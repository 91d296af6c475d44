"""Tests for the splitting pipeline on sampled suspensions.

The suspension sampler is the independent oracle: over a circle base
every quantity the pipeline recovers is known in closed form, so the
line, the time parameters, the fiber metric, and the reconstructed
separations are all checked against those values at floating-point
scale.  A sampled tilted geodesic provides the negative control for
parallelism, and small synthetic spaces exercise the guard paths.
"""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from llk import causal_space as cs
from llk import cli
from llk import model_space as ms
from llk import rigidity as rg
from llk import warped_product as wp
from llk.errors import (
    ChainError,
    ExtractionError,
    InfeasibleError,
    ParameterError,
    SizeBoundError,
)

EXACT = 1e-12
LOOSE = 1e-9
N_TIMES = 21
DELTA = 0.05
STEP = (math.pi - 2 * DELTA) / (N_TIMES - 1)
GRID_TOL = 2 * STEP
N_FIBERS = 12


def circle_space(n=N_FIBERS, circumference=4.0):
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dist[i, j] = (circumference / n) * min(abs(i - j), n - abs(i - j))
    return wp.FiniteMetricSpace(tuple(f"c{i:02d}" for i in range(n)), dist)


@functools.lru_cache(maxsize=None)
def suspension(n_times=N_TIMES):
    S = circle_space()
    grid = np.linspace(-ms.HALF_PI + DELTA, ms.HALF_PI - DELTA, n_times)
    return S, grid, wp.sample_suspension(S, grid)


@functools.lru_cache(maxsize=None)
def suspension_line(n_times=N_TIMES):
    return rg.find_line(suspension(n_times)[2])


@functools.lru_cache(maxsize=None)
def splitting(n_times=N_TIMES):
    _, _, X = suspension(n_times)
    return rg.build_splitting(X, suspension_line(n_times))


@functools.lru_cache(maxsize=None)
def fiber_line(k):
    S, _, X = suspension()
    column = [level * S.size + k for level in range(N_TIMES)]
    return rg.line_from_chain(X, cs.make_chain(X, column))


def noisy_suspension(seed, amp=1e-2):
    _, _, X = suspension()
    rng = np.random.default_rng(seed)
    tau = X.tau.copy()
    finite = np.isfinite(tau) & (tau > 0)
    tau[finite] = np.maximum(
        tau[finite] + rng.uniform(-amp, amp, size=tau.shape)[finite], 1e-12
    )
    return cs.FiniteCausalSpace(X.labels, tau, X.leq)


def tiny_space(tau, leq):
    tau = np.array(tau, dtype=float)
    labels = tuple(f"q{i}" for i in range(tau.shape[0]))
    return cs.FiniteCausalSpace(labels, tau, np.array(leq, dtype=bool))


def fiber(level, k):
    return level * N_FIBERS + k


# ---------------------------------------------------------------- lines


def test_find_line_recovers_a_maximal_fiber():
    _, grid, X = suspension()
    chain = suspension_line()
    line = rg.line_from_chain(X, chain)
    assert len(line.indices) == N_TIMES
    assert abs(chain.value - (math.pi - 2 * DELTA)) < EXACT
    assert all(X.labels[i].startswith("c00@") for i in line.indices)
    assert np.max(np.abs(np.array(line.params) - grid)) < EXACT


def test_find_line_needs_a_long_chain():
    short = tiny_space([[0.0, 1.0], [0.0, 0.0]], [[1, 1], [0, 1]])
    with pytest.raises(InfeasibleError):
        rg.find_line(short)
    spacelike = tiny_space([[0.0, 0.0], [0.0, 0.0]], [[1, 0], [0, 1]])
    with pytest.raises(InfeasibleError):
        rg.find_line(spacelike)


def test_line_from_chain_centers_params():
    S, grid, X = suspension()
    column = [level * S.size + 3 for level in range(N_TIMES)]
    chain = cs.make_chain(X, column)
    line = rg.line_from_chain(X, chain)
    assert line.indices == chain.indices
    assert abs(chain.value - (math.pi - 2 * DELTA)) < EXACT
    assert line.params[0] == -chain.value / 2 and line.params[-1] == chain.value / 2
    assert np.max(np.abs(np.array(line.params) - grid)) < LOOSE


def test_line_from_chain_rejects_reaching_pi():
    X = tiny_space([[0.0, math.pi], [0.0, 0.0]], [[1, 1], [0, 1]])
    with pytest.raises(SizeBoundError):
        rg.line_from_chain(X, cs.make_chain(X, [0, 1]))


def test_line_from_chain_rejects_null_steps():
    X = tiny_space([[0.0, 0.0], [0.0, 0.0]], [[1, 1], [0, 1]])
    with pytest.raises(ChainError):
        rg.line_from_chain(X, cs.make_chain(X, [0, 1]))


def test_line_from_chain_rejects_one_point():
    X = tiny_space([[0.0, 1.0], [0.0, 0.0]], [[1, 1], [0, 1]])
    with pytest.raises(ParameterError, match="at least two points"):
        rg.line_from_chain(X, cs.make_chain(X, [0]))


@pytest.mark.parametrize(
    "chain, message",
    [
        (cs.Chain((0, 2), (0.0, 1.0)), "chain index 2 out of range for 2 points"),
        (cs.Chain((0, 1), (0.0, 0.5)), "do not match the sampled time separations"),
    ],
)
def test_line_from_chain_rejects_chains_off_the_space(chain, message):
    X = tiny_space([[0.0, 1.0], [0.0, 0.0]], [[1, 1], [0, 1]])
    with pytest.raises(ParameterError, match=message):
        rg.line_from_chain(X, chain)


# ---------------------------------------------------------------- parallelism


def c_constant(X, alpha, beta):
    """Constant and deviation of a line pair's c-functions, as split reads them."""
    value, edge = rg._c_entries(X, alpha, beta)[3:]
    return rg._c_constant(value, edge)


def c_tol(alpha, beta):
    """Twice the median parameter step of two lines: the grid-scale bound
    on the c-function deviation of a parallel pair."""
    steps = np.concatenate([np.diff(alpha.params), np.diff(beta.params)])
    return 2.0 * float(np.median(steps))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=N_FIBERS - 1),
    st.integers(min_value=0, max_value=N_FIBERS - 1),
)
def test_fiber_pairs_run_parallel_at_base_distance(a, b):
    S, _, X = suspension()
    c, deviation = c_constant(X, fiber_line(a), fiber_line(b))
    assert deviation <= c_tol(fiber_line(a), fiber_line(b))
    # a line against itself measures 0 only up to the arcosh noise
    # floor sqrt(eps), distinct fibers are exact
    assert abs(c - S.dist[a, b]) < (1e-6 if a == b else LOOSE)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
def test_parallel_distance_adds_along_arcs(i, left, right):
    # i < j < k on a common minor arc, so the middle fiber lies between
    j = i + left
    k = min(j + right, 6)
    if k <= j:
        k = j + 1
    _, _, X = suspension()
    c_ij = c_constant(X, fiber_line(i), fiber_line(j))[0]
    c_jk = c_constant(X, fiber_line(j), fiber_line(k))[0]
    c_ik = c_constant(X, fiber_line(i), fiber_line(k))[0]
    assert abs(c_ij + c_jk - c_ik) < LOOSE


def test_tilted_geodesic_is_not_parallel_to_vertical():
    _, grid, _ = suspension()
    vertical = [ms.AdsPrimePoint(float(t), 0.0) for t in grid]
    tilted_params = ms.GeodesicParams(0.5, 0.3)
    tilted = [ms.geodesic_point(tilted_params, l) for l in np.linspace(-1.0, 1.0, 15)]
    X = cs.sample_model_points(vertical + tilted)
    alpha = rg.line_from_chain(X, cs.make_chain(X, list(range(len(vertical)))))
    beta = rg.line_from_chain(
        X, cs.make_chain(X, list(range(len(vertical), X.size)))
    )
    assert c_constant(X, alpha, beta)[1] > c_tol(alpha, beta)


def test_extreme_levels_are_excluded_not_judged():
    _, _, X = suspension()
    alpha, beta = fiber_line(0), fiber_line(1)
    s, t, _, value, edge = rg._c_entries(X, alpha, beta)
    assert rg._c_constant(value, edge)[1] <= c_tol(alpha, beta)
    assert edge.any()
    assert (np.minimum(np.cos(s[edge]), np.cos(t[edge])) < rg.EDGE_COS).all()


def test_all_edge_fiber_pair_takes_the_median_of_every_entry():
    # two fibers 0.3 apart sampled only within EDGE_COS of the edges:
    # every entry of the pair is an edge entry, so the constant is the
    # median of them all and the deviation, +inf, stays out of worst_dev
    S = wp.FiniteMetricSpace(("a", "b"), np.array([[0.0, 0.3], [0.3, 0.0]]))
    X = wp.sample_suspension(S, [-1.55, -1.53, 1.53, 1.55])
    diagnostics = {}
    slice_space, fibers = rg.extract_slice(X, rg.find_line(X), diagnostics=diagnostics)
    _, _, _, value, edge = rg._c_entries(X, *fibers)
    assert edge.all() and len(edge) == 2
    constant, deviation = rg._c_constant(value, edge)
    assert deviation == math.inf
    assert constant == float(np.median(value)) == slice_space.dist[0, 1]
    assert abs(constant - 0.3) < LOOSE
    assert diagnostics["worst_dev"] == 0.0


def test_extract_slice_refuses_fibers_at_distance_zero():
    # a hand-made table: a1 and a2 share a fiber, since their tau 0.95
    # exceeds their fitted time gap 0.5 and so reads fiber distance 0;
    # a2 then reads its time off a1 as 0.75, and its one timelike entry
    # with b1 (tau 0.2 over the time gap 0.15) also reads 0
    points = [ms.AdsPrimePoint(t, 0.0) for t in (-1.2, -0.4, 0.4, 1.2)]
    points += [ms.AdsPrimePoint(-0.2, 0.5), ms.AdsPrimePoint(0.3, 0.5), ms.AdsPrimePoint(0.9, -0.3)]
    model = cs.sample_model_points(points)
    tau, leq = model.tau.copy(), model.leq.copy()
    a1, a2, b1 = 4, 5, 6
    tau[a1, a2] = 0.95
    tau[a2, b1], leq[a2, b1] = 0.2, True
    tau[a1, b1], leq[a1, b1] = 0.0, False
    X = cs.FiniteCausalSpace(model.labels, tau, leq)
    line = rg.Fiber((0, 1, 2, 3), (-1.2, -0.4, 0.4, 1.2))
    with pytest.raises(ExtractionError, match="do not form a metric: off-diagonal"):
        rg.extract_slice(X, line)


def test_c_functions_need_cross_relations():
    near = [ms.AdsPrimePoint(t, 0.0) for t in (-0.5, 0.5)]
    far = [ms.AdsPrimePoint(t, 50.0) for t in (-0.5, 0.5)]
    X = cs.sample_model_points(near + far)
    alpha = rg.line_from_chain(X, cs.make_chain(X, [0, 1]))
    beta = rg.line_from_chain(X, cs.make_chain(X, [2, 3]))
    with pytest.raises(ExtractionError, match="share no timelike related parameter pairs"):
        rg._c_entries(X, alpha, beta)


# ---------------------------------------------------------------- references
#
# Loop versions of the array code in rigidity: the scalar c-function
# tables over every timelike pair of two lines, and the fibers as the
# components of a scalar union-find over every pair of the line's domain.
# The array code must agree with them exactly, not within a tolerance,
# because their values reach the split report.


def reference_c_value(tau, s, t):
    arg = (math.cos(tau) - math.sin(s) * math.sin(t)) / (math.cos(s) * math.cos(t))
    return math.acosh(max(arg, 1.0))


C_TABLES = ("ab", "ba")


def reference_c_functions(X, alpha, beta):
    """Tables by name, excluded entries, and (constant, deviation)."""
    a_idx, a_par = np.array(alpha.indices), np.array(alpha.params)
    b_idx, b_par = np.array(beta.indices), np.array(beta.params)
    tables = {"ab": [], "ba": []}
    kept = []
    excluded = []

    def record(table, s, t, value):
        tables[table].append((float(s), float(t), float(value)))
        if min(math.cos(s), math.cos(t)) < rg.EDGE_COS:
            excluded.append((table, float(s), float(t), float(value)))
        else:
            kept.append(float(value))

    for i, s in zip(a_idx, a_par):
        for j, t in zip(b_idx, b_par):
            if X.tau[i, j] > 0.0:
                record("ab", s, t, reference_c_value(float(X.tau[i, j]), s, t))
            if X.tau[j, i] > 0.0:
                record("ba", s, t, reference_c_value(float(X.tau[j, i]), s, t))
    if kept:
        constant = float(np.median(kept))
        deviation = float(np.max(np.abs(np.array(kept) - constant)))
    else:
        constant = float(np.median([e[3] for e in excluded]))
        deviation = math.inf
    return tables, excluded, (constant, deviation)


def assert_c_matches_reference(X, alpha, beta, entries=None):
    """The kernels' entries, table by table, equal the loop version's."""
    if entries is None:
        entries = rg._c_entries(X, alpha, beta)
    s, t, table, value, edge = (a.tolist() for a in entries)
    rows = list(zip(table, s, t, value))
    tables, excluded, summary = reference_c_functions(X, alpha, beta)
    for k, name in enumerate(C_TABLES):
        assert [r[1:] for r in rows if r[0] == k] == tables[name], name
    assert [(C_TABLES[r[0]],) + r[1:] for r, out in zip(rows, edge) if out] == excluded
    assert rg._c_constant(entries[3], entries[4]) == summary
    return summary


def reference_fibers(X, th, points):
    """Fibers as sorted point lists: every timelike pair of points whose
    scalar fiber distance is at most FIBER_H joins its two points."""
    parent = {p: p for p in points}

    def root(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for p in points:
        for x in points:
            tau = X.tau[p, x] if X.tau[p, x] > 0.0 else X.tau[x, p]
            if 0.0 < tau < math.inf and reference_c_value(tau, th[p], th[x]) <= rg.FIBER_H:
                a, b = sorted((root(p), root(x)))
                parent[b] = a
    groups = {}
    for p in points:
        groups.setdefault(root(p), []).append(p)
    return sorted(groups.values())


def shuffled(X, seed):
    perm = np.random.default_rng(seed).permutation(X.size)
    Y = cs.FiniteCausalSpace(
        tuple(X.labels[k] for k in perm),
        X.tau[np.ix_(perm, perm)],
        X.leq[np.ix_(perm, perm)],
        X.coords[perm],
    )
    return Y, np.argsort(perm)


def unlinked_suspension(seed, drop=0.03):
    """Jittered suspension with some timelike relations made null."""
    _, _, X = suspension()
    rng = np.random.default_rng(seed)
    timelike = X.tau > 0.0
    tau = np.where(
        timelike, np.maximum(X.tau + rng.uniform(-1e-3, 1e-3, X.tau.shape), 1e-12), 0.0
    )
    tau[timelike & (rng.random(tau.shape) < drop)] = 0.0
    return cs.FiniteCausalSpace(X.labels, tau, X.leq)


def strip_line(X):
    """find_line's chain at its strip times."""
    return rg.line_from_chain(X, rg.find_line(X))


def fibers_match_reference(X, gamma):
    """The fibers of the array code equal the loop version's; returns them."""
    g_idx, g_par = np.array(gamma.indices), np.array(gamma.params)
    th, in_dom = rg._model_times(X, g_idx, g_par)
    points = np.nonzero(in_dom)[0]
    roots = rg._fiber_roots(X, th, points)
    fibers = [points[roots == r].tolist() for r in np.unique(roots)]
    assert fibers == reference_fibers(X, th, points.tolist())
    return fibers


def jittered_suspension(seed, jitter=0.3):
    """The circle suspension over time levels moved by up to jitter steps."""
    S = circle_space()
    rng = np.random.default_rng(seed)
    grid = np.linspace(-ms.HALF_PI + DELTA, ms.HALF_PI - DELTA, N_TIMES)
    grid[1:-1] += rng.uniform(-jitter, jitter, N_TIMES - 2) * STEP
    return wp.sample_suspension(S, grid)


def test_c_functions_match_reference_on_fiber_pairs():
    _, _, X = suspension()
    for a in range(N_FIBERS):
        for b in range(a, N_FIBERS):
            assert_c_matches_reference(X, fiber_line(a), fiber_line(b))


def test_c_functions_match_reference_on_tilted_pair():
    _, grid, _ = suspension()
    vertical = [ms.AdsPrimePoint(float(t), 0.0) for t in grid]
    tilted = [
        ms.geodesic_point(ms.GeodesicParams(0.5, 0.3), float(l))
        for l in np.linspace(-1.0, 1.0, 15)
    ]
    X = cs.sample_model_points(vertical + tilted)
    alpha = rg.line_from_chain(X, cs.make_chain(X, list(range(len(vertical)))))
    beta = rg.line_from_chain(X, cs.make_chain(X, list(range(len(vertical), X.size))))
    for pair in ((alpha, beta), (beta, alpha)):
        assert assert_c_matches_reference(X, *pair)[1] > c_tol(*pair)


@pytest.mark.parametrize("seed", range(3))
def test_array_pipeline_matches_reference_on_shuffled_orders(seed):
    S, _, X = suspension()
    Y, where = shuffled(X, seed)
    lines = {}
    for k in (0, 1, 5, 6):
        column = [int(where[fiber(level, k)]) for level in range(N_TIMES)]
        lines[k] = rg.line_from_chain(Y, cs.make_chain(Y, column))
    for a, b in ((0, 1), (1, 6), (5, 0), (6, 6)):
        assert_c_matches_reference(Y, lines[a], lines[b])
    assert len(fibers_match_reference(Y, strip_line(Y))) == N_FIBERS


def test_fibers_match_reference_on_unlinked_pairs():
    # some timelike relations dropped: the fibers need not be chains
    X = unlinked_suspension(0)
    fibers = fibers_match_reference(X, strip_line(X))
    assert any((X.tau[np.ix_(f, f)] <= 0.0)[np.triu_indices(len(f), 1)].any() for f in fibers)


def test_extract_slice_tables_match_reference(monkeypatch):
    # extract_slice reads only the constant and the deviation of each
    # head pair; the entries it saw must be the loop version's
    X = unlinked_suspension(0)
    c_entries = rg._c_entries
    calls = []

    def recorded(X, alpha, beta):
        entries = c_entries(X, alpha, beta)
        calls.append((alpha, beta, entries))
        return entries

    monkeypatch.setattr(rg, "_c_entries", recorded)
    rg.extract_slice(X, rg.find_line(X))
    monkeypatch.undo()
    assert calls
    for alpha, beta, entries in calls:
        assert_c_matches_reference(X, alpha, beta, entries)


@pytest.mark.parametrize("seed", range(3))
def test_fibers_match_reference_on_jittered_levels(seed):
    X = jittered_suspension(seed)
    gamma = strip_line(X)
    assert len(set(np.round(np.diff(gamma.params), 12))) > 1
    assert len(fibers_match_reference(X, gamma)) == N_FIBERS


@pytest.mark.parametrize("rows", ["one", "all but one"])
def test_fiber_blocks_match_reference(monkeypatch, rows):
    X = unlinked_suspension(1)
    gamma = strip_line(X)
    n_dom = int(rg._model_times(X, np.array(gamma.indices), np.array(gamma.params))[1].sum())
    size = 1 if rows == "one" else n_dom - 1
    monkeypatch.setattr(rg, "_BLOCK_CELLS", size * n_dom)
    seen = []
    join = rg._join

    def spy(parent, a, b):
        seen.append(a)
        join(parent, a, b)

    monkeypatch.setattr(rg, "_join", spy)
    fibers_match_reference(X, gamma)
    # each block joins pairs from at most size rows, and the blocks cover
    # the domain once
    assert len(seen) == (n_dom + size - 1) // size
    assert all(np.ptp(a) < size for a in seen if len(a))


def test_fibers_match_reference_with_infinite_separations():
    # cos(inf) is NaN, so these pairs never join two points, as the loop
    # version skips them
    X = unlinked_suspension(3)
    gamma = strip_line(X)
    rng = np.random.default_rng(5)
    far = (X.tau > 0.0) & (rng.random(X.tau.shape) < 0.02)
    far[list(gamma.indices)] = False
    far[:, list(gamma.indices)] = False
    Y = cs.FiniteCausalSpace(X.labels, np.where(far, np.inf, X.tau), X.leq)
    fibers_match_reference(Y, gamma)


@settings(max_examples=5, deadline=None)
@given(st.permutations(range(N_TIMES * N_FIBERS)))
def test_fibers_match_reference_on_permuted_points(perm):
    X = unlinked_suspension(2)
    Y = cs.FiniteCausalSpace(
        tuple(X.labels[k] for k in perm),
        X.tau[np.ix_(perm, perm)],
        X.leq[np.ix_(perm, perm)],
    )
    fibers_match_reference(Y, strip_line(Y))


# ---------------------------------------------------------------- slices


def test_extract_slice_recovers_the_base_metric():
    S, _, X = suspension()
    recovered, fibers = rg.extract_slice(X, suspension_line())
    assert len(fibers) == S.size
    assert recovered.size == S.size
    fibers = [int(label.split("@")[0][1:]) for label in recovered.labels]
    assert sorted(fibers) == list(range(N_FIBERS))
    perm = np.argsort(fibers)
    assert np.max(np.abs(recovered.dist[np.ix_(perm, perm)] - S.dist)) < LOOSE


def test_extract_slice_places_every_domain_point_on_its_fiber():
    S, grid, X = suspension()
    recovered, fibers = rg.extract_slice(X, suspension_line())
    points = sorted(p for f in fibers for p in f.indices)
    assert len(points) == len(set(points)) > X.size // 2
    for label, f in zip(recovered.labels, fibers):
        assert list(f.params) == sorted(f.params)
        for p, t in zip(f.indices, f.params):
            assert label.split("@")[0] == X.labels[p].split("@")[0]
            assert abs(t - grid[p // S.size]) <= GRID_TOL
    # every domain point is audited once, at its time on its fiber
    assert sorted(idx for _, _, idx in splitting().samples) == points


def test_splitting_certifies_the_suspension():
    result = splitting()
    assert result.verdict
    assert result.mismatches == 0
    assert result.residual < 1e-10
    assert result.slice_space.size == N_FIBERS
    assert list(result.samples) == sorted(result.samples, key=lambda s: s[:2])


def test_splitting_sample_params_match_grid_times():
    _, grid, X = suspension()
    for _, param, idx in splitting().samples:
        level = int(X.labels[idx].split("@")[1])
        assert abs(param - grid[level]) <= GRID_TOL


def test_splitting_reconstructs_every_separation():
    _, _, X = suspension()
    result = splitting()
    where = {idx: (label, param) for label, param, idx in result.samples}
    at = {label: k for k, label in enumerate(result.slice_space.labels)}
    worst = 0.0
    for i, (li, si) in where.items():
        for j, (lj, sj) in where.items():
            if i == j or not np.isfinite(X.tau[i, j]) or X.tau[i, j] <= 0:
                continue
            d = result.slice_space.dist[at[li], at[lj]]
            arg = math.sin(si) * math.sin(sj) + math.cos(si) * math.cos(
                sj
            ) * math.cosh(d)
            if arg < 1.0:
                worst = max(worst, abs(math.acos(arg) - X.tau[i, j]))
    assert worst <= GRID_TOL


@pytest.mark.parametrize("seed", range(10))
def test_splitting_ignores_point_order(seed):
    _, _, X = suspension()
    Y, _ = shuffled(X, seed)
    line = rg.find_line(Y)
    result = rg.build_splitting(Y, line)
    assert len(line.indices) == N_TIMES
    assert result.verdict
    assert result.slice_space.size == N_FIBERS
    assert result.residual <= LOOSE


def test_refined_grid_keeps_the_verdict():
    result = splitting(41)
    assert result.verdict
    assert result.slice_space.size == N_FIBERS
    assert result.residual < 1e-9


def test_single_fiber_space_collapses_to_a_point():
    _, grid, _ = suspension()
    S = wp.FiniteMetricSpace(("hub",), np.zeros((1, 1)))
    X = wp.sample_suspension(S, grid)
    result = rg.build_splitting(X, rg.find_line(X))
    assert result.verdict
    assert result.slice_space.size == 1
    assert result.residual < EXACT


def test_noisy_tables_still_complete():
    for seed in range(4):
        X = noisy_suspension(seed)
        result = rg.build_splitting(X, rg.find_line(X))
        assert result.slice_space.size >= 1
        assert math.isfinite(result.residual)
        assert result.residual >= 0.0


def jittered_net(seed):
    """A bench-like base: fiber k at site 2k or 2k + 1 of 24 on a circle
    of circumference 4, drawn from the seed."""
    rng = np.random.default_rng(seed)
    sites = 2 * np.arange(N_FIBERS) + rng.integers(0, 2, N_FIBERS)
    gaps = np.abs(sites[:, None] - sites[None, :])
    return wp.FiniteMetricSpace(
        tuple(f"c{i:02d}" for i in range(N_FIBERS)),
        np.minimum(gaps, 24 - gaps) * (4.0 / 24),
    )


def test_cos_table_splits_without_deviation():
    # a 2049-knot table of cos over a jittered circle net, at 7 time levels:
    # the timelike pairs read each fiber distance to solver precision, so
    # neither the c-tables nor the triangle repair see a deviation
    base = jittered_net(5)
    knots = np.linspace(-ms.HALF_PI + 1e-9, ms.HALF_PI - 1e-9, 2049)
    warping = wp.table_warping(knots.tolist(), np.cos(knots).tolist())
    grid = np.linspace(-ms.HALF_PI + DELTA, ms.HALF_PI - DELTA, 7)
    X = wp.sample_warped_product(warping, base, tuple(grid))
    result = rg.build_splitting(X, rg.find_line(X))
    assert result.verdict
    assert result.slice_space.size == N_FIBERS
    assert result.diagnostics["worst_dev"] <= 1e-6
    assert result.diagnostics["slack"] <= 1e-6


def reference_audit(X, result):
    """(residual, mismatches, forgiven) from whole samples x samples
    matrices, the audit as build_splitting ran it before it went by rows."""
    S = result.slice_space
    svals = np.array([rec[1] for rec in result.samples])
    bidx = np.array([S.index(rec[0]) for rec in result.samples])
    xidx = np.array([rec[2] for rec in result.samples])
    tau_x = X.tau[np.ix_(xidx, xidx)]
    leq_x = X.leq[np.ix_(xidx, xidx)]
    dmat = S.dist[np.ix_(bidx, bidx)]
    future = svals[None, :] > svals[:, None]
    leq_w, timelike_w, wtau = ms.ads_separation(svals[:, None], svals, dmat, future)
    distinct = xidx[:, None] != xidx[None, :]
    gap = np.abs((tau_x - tau_x.T) - (wtau - wtau.T))
    gap[~distinct] = 0.0
    null_x = leq_x & (tau_x <= 0.0) & distinct
    cls_x = np.where(tau_x > 0.0, 2, np.where(null_x, 1, 0))
    cls_w = np.where(timelike_w, 2, np.where(leq_w & ~timelike_w, 1, 0))
    mismatch = (cls_x != cls_w) & distinct
    lam = np.log(np.tan(svals / 2.0 + math.pi / 4.0))
    near_cone = np.abs(dmat - np.abs(lam[None, :] - lam[:, None])) <= result.collar
    bad = np.triu(mismatch | mismatch.T, 1)
    return (
        float(np.max(gap)),
        int(np.count_nonzero(bad & ~near_cone)),
        int(np.count_nonzero(bad & near_cone)),
    )


def near_miss_table(seed, a, levels):
    """cos(a t) as a 257-knot table over a jittered net: for a > 1 its
    lines are pi / a long, so it is not the cos product and split fails."""
    half = ms.HALF_PI / a
    knots = np.linspace(-half + 1e-9, half - 1e-9, 257)
    warping = wp.table_warping(knots.tolist(), np.cos(a * knots).tolist())
    grid = np.linspace(-half + DELTA / a, half - DELTA / a, levels)
    return wp.sample_warped_product(warping, jittered_net(seed), tuple(grid))


@pytest.mark.parametrize("levels", [7, 11, 21])
@pytest.mark.parametrize("seed", [3, 5])
def test_near_miss_tables_fail_where_cos_tables_pass(seed, levels):
    # the cos table certifies; the near misses close up their fibers
    # across the net, so the extraction refuses them or the audit fails
    X = near_miss_table(seed, 1.0, levels)
    assert rg.build_splitting(X, rg.find_line(X)).verdict
    for a in (1.05, 1.1):
        X = near_miss_table(seed, a, levels)
        try:
            verdict = rg.build_splitting(X, rg.find_line(X)).verdict
        except ExtractionError:
            verdict = False
        assert not verdict, a


@pytest.mark.parametrize("rows", [None, 1, 7], ids=["default", "one", "seven"])
def test_row_blocked_audit_matches_whole_matrix_reference(monkeypatch, rows):
    spaces = [noisy_suspension(k) for k in (0, 2)] + [unlinked_suspension(k) for k in (1, 2)]
    expected = []
    for X in spaces:
        result = rg.build_splitting(X, rg.find_line(X))
        # seven rows leave a short last block
        assert len(result.samples) % 7 != 0
        expected.append(reference_audit(X, result))
        if rows is not None:
            monkeypatch.setattr(rg, "_BLOCK_CELLS", rows * len(result.samples))
            result = rg.build_splitting(X, rg.find_line(X))
            monkeypatch.undo()
        assert (result.residual, result.mismatches, result.forgiven) == expected[-1]
    # the spaces reach every branch: mismatches outside and inside the collar
    assert all(e[1] > 0 for e in expected[:2]) and all(e[2] > 0 for e in expected)


def test_splitting_audit_works_in_row_blocks():
    # the cos product over a bench-like net at 81 levels, 972 points: the
    # whole-matrix audit held about six n x n float64 matrices at its peak
    base = jittered_net(3)
    grid = np.linspace(-ms.HALF_PI + DELTA, ms.HALF_PI - DELTA, 81)
    X = wp.sample_warped_product(wp.cos_warping(), base, tuple(grid))
    gamma = rg.find_line(X)
    tracemalloc.start()
    try:
        result = rg.build_splitting(X, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.verdict
    assert peak < X.size**2 * 8


def test_find_line_takes_the_first_maximum_without_copying_tau():
    # np.argmax on the read-only tau of a space copied it whole, 8 n^2
    # bytes at 972 points; the line's chain runs on a built index, so
    # what is left is one n x n bool and the chain's small arrays
    base = jittered_net(3)
    grid = np.linspace(-ms.HALF_PI + DELTA, ms.HALF_PI - DELTA, 81)
    X = wp.sample_warped_product(wp.cos_warping(), base, tuple(grid))
    X._chain_index
    tracemalloc.start()
    try:
        gamma = rg.find_line(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    i, j = np.unravel_index(int(np.argmax(np.array(X.tau))), X.tau.shape)
    assert (gamma.indices[0], gamma.indices[-1]) == (i, j)
    assert peak < X.size**2 + 64 * 1024


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
def test_slice_metric_is_exactly_symmetric(seed):
    # _audit reads each model pair's fiber distance in one orientation;
    # None is the circle fixture's suspension, a seed a bench-like net at
    # --grid 21
    if seed is None:
        _, _, X = suspension()
    else:
        grid = np.linspace(-ms.HALF_PI + DELTA, ms.HALF_PI - DELTA, 21)
        X = wp.sample_warped_product(wp.cos_warping(), jittered_net(seed), tuple(grid))
    S, _ = rg.extract_slice(X, rg.find_line(X))
    assert np.array_equal(S.dist, S.dist.T)


def test_extract_slice_rejects_unrepairable_metrics():
    # an exact cos product over a base that is no metric: d(a, c) = 2.0
    # exceeds d(a, b) + d(b, c) = 1.0 by far more than the repair allows
    dist = np.array([[0.0, 0.5, 2.0], [0.5, 0.0, 0.5], [2.0, 0.5, 0.0]])
    grid = np.linspace(-ms.HALF_PI + DELTA, ms.HALF_PI - DELTA, N_TIMES)
    fiber = np.repeat(np.arange(3), N_TIMES)
    t = np.tile(grid, 3)
    leq, _, tau = ms.ads_separation(
        t[:, None], t, dist[np.ix_(fiber, fiber)], t[:, None] <= t[None, :]
    )
    labels = [f"{name}@{k:02d}" for name in "abc" for k in range(N_TIMES)]
    X = cs.FiniteCausalSpace(labels, tau, leq, t[:, None])
    diagnostics = {}
    with pytest.raises(ExtractionError, match="triangle inequality"):
        rg.extract_slice(X, rg.find_line(X), diagnostics=diagnostics)
    assert diagnostics["slack"] == pytest.approx(1.0, abs=LOOSE)
    assert diagnostics["metric_slack"] == pytest.approx(GRID_TOL, abs=LOOSE)


# ---------------------------------------------------------------- curvature


def test_circle_slice_meets_the_curvature_bound():
    # the cos product over the recovered slice is the space split
    # certifies; its sampled triangles meet the lower bound -1
    S = splitting().slice_space
    grid = np.linspace(-ms.HALF_PI + DELTA, ms.HALF_PI - DELTA, N_TIMES)
    doc = {
        "kind": "suspension_request",
        "warping": {"kind": "cos"},
        "base": {"labels": list(S.labels), "dist": S.dist.tolist()},
        "t_grid": grid.tolist(),
    }
    options = cli._build_parser().parse_args(["curvature", "--in", "x", "--samples", "50"])
    payload, code = cli.run_command("curvature", json.dumps(doc).encode(), options)
    check = json.loads(payload)["checks"][0]
    assert code == cli.EXIT_PASS
    assert check["checked"] > 0
    assert check["max_deficit"] < 1e-6

"""Tests for the splitting pipeline on sampled suspensions.

The suspension sampler is the independent oracle: over a circle base
every quantity the pipeline recovers is known in closed form, so the
line, the time parameters, the fiber metric, and the reconstructed
separations are all checked against those values at floating-point
scale.  A sampled tilted geodesic provides the negative control for
parallelism, and small synthetic spaces exercise the guard paths.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from llk import causal_space as cs
from llk import model_space as ms
from llk import rigidity as rg
from llk import warped_product as wp
from llk.errors import (
    ChainError,
    DataQualityError,
    DomainError,
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
    line = suspension_line()
    assert line.size == N_TIMES
    assert abs(line.value - (math.pi - 2 * DELTA)) < EXACT
    assert abs(line.delta - DELTA) < EXACT
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
    line = rg.line_from_chain(X, cs.make_chain(X, column))
    assert abs(line.value - (math.pi - 2 * DELTA)) < EXACT
    assert np.max(np.abs(np.array(line.params) - grid)) < LOOSE


def test_line_from_chain_rejects_reaching_pi():
    X = tiny_space([[0.0, math.pi], [0.0, 0.0]], [[1, 1], [0, 1]])
    with pytest.raises(SizeBoundError):
        rg.line_from_chain(X, cs.make_chain(X, [0, 1]))


def test_line_from_chain_rejects_null_steps():
    X = tiny_space([[0.0, 0.0], [0.0, 0.0]], [[1, 1], [0, 1]])
    with pytest.raises(ChainError):
        rg.line_from_chain(X, cs.make_chain(X, [0, 1]))


def test_line_sample_validates_span():
    with pytest.raises(ParameterError):
        rg.LineSample((0, 1), (-0.5, 0.5), 0.05)


# ---------------------------------------------------------------- busemann


def test_busemann_linear_on_the_line():
    _, _, X = suspension()
    line = suspension_line()
    for k in (1, N_TIMES // 2, N_TIMES - 2):
        b = rg.busemann(X, line, int(line.indices[k]))
        assert abs(b.plus - line.params[k]) < LOOSE
        assert abs(b.minus + line.params[k]) < LOOSE
        assert b.certificate < EXACT


def test_busemann_offsets_stay_within_grid_tolerance():
    _, _, X = suspension()
    line = suspension_line()
    result = splitting()
    worst_sum = math.inf
    for label, param, idx in result.samples:
        b = rg.busemann(X, line, idx)
        assert abs(b.plus - param) <= GRID_TOL
        worst_sum = min(worst_sum, b.plus + b.minus)
    assert worst_sum >= -LOOSE


def test_busemann_rejects_unreachable_points():
    _, _, X = suspension()
    with pytest.raises(DomainError):
        rg.busemann(X, suspension_line(), fiber(N_TIMES - 1, 6))


def test_busemann_rejects_nonmonotone_tails():
    _, _, X = suspension()
    line = suspension_line()
    tau = X.tau.copy()
    tau[fiber(10, 1), int(line.indices[-1])] -= 0.05
    corrupted = cs.FiniteCausalSpace(X.labels, tau, X.leq)
    with pytest.raises(DataQualityError):
        rg.busemann(corrupted, line, fiber(10, 1))


# ---------------------------------------------------------------- asymptotes


def test_asymptote_collects_a_single_fiber():
    _, _, X = suspension()
    p = fiber(10, 3)
    line = rg.construct_asymptote(X, suspension_line(), p)
    assert p in line.indices
    assert {X.labels[i].split("@")[0] for i in line.indices} == {"c03"}
    assert line.size == N_TIMES - 2


def test_asymptote_through_line_point_is_the_line_interior():
    _, _, X = suspension()
    gamma = suspension_line()
    line = rg.construct_asymptote(X, gamma, int(gamma.indices[10]))
    assert tuple(line.indices) == tuple(gamma.indices[1:-1])


def test_asymptote_rejects_points_outside_the_domain():
    _, _, X = suspension()
    with pytest.raises(DomainError):
        rg.construct_asymptote(X, suspension_line(), fiber(N_TIMES - 1, 6))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=N_TIMES - 3),
    st.integers(min_value=0, max_value=N_FIBERS - 1),
    st.integers(min_value=0, max_value=10**6),
)
def test_asymptote_idempotent_over_its_members(level, k, pick):
    _, _, X = suspension()
    gamma = suspension_line()
    try:
        first = rg.construct_asymptote(X, gamma, fiber(level, k))
    except DomainError:
        # distant fibers lose line reach near the strip edges
        assume(False)
    member = int(first.indices[pick % first.size])
    second = rg.construct_asymptote(X, gamma, member)
    assert tuple(second.indices) == tuple(first.indices)


# ---------------------------------------------------------------- parallelism


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=N_FIBERS - 1),
    st.integers(min_value=0, max_value=N_FIBERS - 1),
)
def test_fiber_pairs_run_parallel_at_base_distance(a, b):
    S, _, X = suspension()
    parallel, c = rg.check_parallel(X, fiber_line(a), fiber_line(b))
    assert parallel
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
    c_ij = rg.check_parallel(X, fiber_line(i), fiber_line(j))[1]
    c_jk = rg.check_parallel(X, fiber_line(j), fiber_line(k))[1]
    c_ik = rg.check_parallel(X, fiber_line(i), fiber_line(k))[1]
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
    report = rg.c_functions(X, alpha, beta)
    assert not report.verdict
    assert report.deviation > report.tol


def test_extreme_levels_are_excluded_not_judged():
    _, _, X = suspension()
    report = rg.c_functions(X, fiber_line(0), fiber_line(1))
    assert report.verdict
    assert report.excluded
    for _, s, t, _ in report.excluded:
        assert min(math.cos(s), math.cos(t)) < rg.EDGE_COS


def test_c_functions_need_cross_relations():
    near = [ms.AdsPrimePoint(t, 0.0) for t in (-0.5, 0.5)]
    far = [ms.AdsPrimePoint(t, 50.0) for t in (-0.5, 0.5)]
    X = cs.sample_model_points(near + far)
    alpha = rg.line_from_chain(X, cs.make_chain(X, [0, 1]))
    beta = rg.line_from_chain(X, cs.make_chain(X, [2, 3]))
    with pytest.raises(DomainError):
        rg.c_functions(X, alpha, beta)


# ---------------------------------------------------------------- slices


def test_extract_slice_recovers_the_base_metric():
    S, _, X = suspension()
    recovered, rep_lines = rg.extract_slice(X, suspension_line())
    assert len(rep_lines) == S.size
    assert recovered.size == S.size
    fibers = [int(label.split("@")[0][1:]) for label in recovered.labels]
    assert sorted(fibers) == list(range(N_FIBERS))
    perm = np.argsort(fibers)
    assert np.max(np.abs(recovered.dist[np.ix_(perm, perm)] - S.dist)) < LOOSE


def test_splitting_certifies_the_suspension():
    result = splitting()
    assert result.verdict
    assert result.mismatches == 0
    assert result.residual < 1e-10
    assert result.slice_space.size == N_FIBERS
    assert list(result.samples) == sorted(result.samples, key=lambda s: s[:2])


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
    perm = np.random.default_rng(seed).permutation(X.size)
    Y = cs.FiniteCausalSpace(
        tuple(X.labels[k] for k in perm),
        X.tau[np.ix_(perm, perm)],
        X.leq[np.ix_(perm, perm)],
        X.coords[perm],
    )
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


def test_extract_slice_rejects_unrepairable_metrics():
    X = noisy_suspension(1)
    with pytest.raises(ExtractionError):
        rg.extract_slice(X, rg.find_line(X), metric_slack=1e-12)


# ---------------------------------------------------------------- stacking


def test_stacked_triangles_stay_collinear():
    _, grid, X = suspension()
    report = rg.stacking_audit(
        X, suspension_line(), fiber(6, 1), grid[3], grid[10], grid[17]
    )
    assert report.verdict
    assert report.max_deficit < EXACT
    assert report.checked == 19
    assert report.skipped == 3


def test_stacking_validates_inputs():
    _, grid, X = suspension()
    gamma = suspension_line()
    with pytest.raises(DomainError):
        rg.stacking_audit(X, gamma, fiber(10, 6), grid[3], grid[10], grid[17])
    with pytest.raises(ParameterError):
        rg.stacking_audit(X, gamma, int(gamma.indices[10]), grid[3], grid[10], grid[17])
    with pytest.raises(ParameterError):
        rg.stacking_audit(X, gamma, fiber(6, 1), grid[10], grid[3], grid[17])
    with pytest.raises(ParameterError):
        rg.stacking_audit(X, gamma, fiber(6, 1), grid[3] + 0.01, grid[10], grid[17])


# ---------------------------------------------------------------- curvature


def test_circle_slice_meets_the_curvature_bound():
    report = rg.check_slice_alexandrov(splitting().slice_space)
    assert report.verdict
    assert report.max_deficit < 1e-6


def test_tripod_breaks_the_curvature_bound():
    dist = np.array(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float
    )
    tripod = wp.FiniteMetricSpace(("hub", "a", "b", "c"), dist)
    report = rg.check_slice_alexandrov(tripod)
    assert not report.verdict
    assert abs(report.max_deficit - math.pi) < LOOSE
    assert report.violation_count == 1

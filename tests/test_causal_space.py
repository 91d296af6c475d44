"""Tests for finite causal spaces, chain extraction and the checkers.

Longest chains are validated against an exhaustive path enumeration on
small sampled spaces.  Comparison checkers are validated on three
sampled geometries with known behaviour: model samples must sit exactly
on the comparison bound, cosine suspensions must satisfy it, and a
constant-warping strip must violate it.
"""

import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llk import causal_space as cs
from llk import cli
from llk import model_space as ms
from llk import warped_product as wp
from llk.errors import (
    CausalityError,
    ChainError,
    GeometryError,
    ParameterError,
    SizeBoundError,
    StructuralError,
    UndefinedAngleError,
)

EXACT = 1e-12
GRID_TOL = 1e-6


def diamond_space(half_width=2.0, n=11):
    uv = np.linspace(-half_width, half_width, n)
    pts = [
        ms.AdsPrimePoint(ms.inverse_conformal_time((u + v) / 2.0), (v - u) / 2.0)
        for u in uv
        for v in uv
    ]
    return cs.sample_model_points(pts), pts


def suspension_space(n_base=12, n_times=13):
    dist = np.zeros((n_base, n_base))
    for i in range(n_base):
        for j in range(n_base):
            dist[i, j] = (4.0 / n_base) * min(abs(i - j), n_base - abs(i - j))
    S = wp.FiniteMetricSpace(tuple(f"c{i:02d}" for i in range(n_base)), dist)
    grid = np.linspace(-ms.HALF_PI + 0.05, ms.HALF_PI - 0.05, n_times)
    return wp.sample_suspension(S, grid)


def flat_strip_space(n_base=12, n_times=13):
    seg = np.arange(n_base) * 0.25
    S = wp.FiniteMetricSpace(
        tuple(f"s{i:02d}" for i in range(n_base)), np.abs(seg[:, None] - seg[None, :])
    )
    grid = np.linspace(-1.9, 1.9, n_times)
    return wp.sample_warped_product(wp.constant_warping(1.0, (-2.0, 2.0)), S, grid)


def random_model_space(rng, n):
    pts = [
        ms.AdsPrimePoint(rng.uniform(-1.4, 1.4), rng.uniform(-1.5, 1.5))
        for _ in range(n)
    ]
    return cs.sample_model_points(pts)


def brute_force_best_chain(X, i, j):
    """Exhaustive maximal-value chain search, smallest index tuple on ties."""
    best_value = -1.0
    best_chain = None
    n = X.size
    nodes = [k for k in range(n) if X.leq[i, k] and X.leq[k, j]]

    def extend(path, value):
        nonlocal best_value, best_chain
        last = path[-1]
        if last == j:
            if value > best_value + 1e-15 or (
                abs(value - best_value) <= 1e-15
                and (best_chain is None or path < best_chain)
            ):
                best_value = value
                best_chain = list(path)
            return
        for k in nodes:
            if k != last and X.leq[last, k]:
                extend(path + [k], value + X.tau[last, k])

    if not X.leq[i, j]:
        return None
    extend([i], 0.0)
    return best_chain, best_value


def triangle_vertices(X, rng, count, min_tau=0.15):
    out = []
    guard = 0
    while len(out) < count and guard < 300000:
        guard += 1
        i, j, k = (int(q) for q in rng.integers(0, X.size, size=3))
        if len({i, j, k}) < 3:
            continue
        i, j, k = sorted((i, j, k), key=lambda q: X.coords[q, 0])
        if (
            X.tau[i, j] > min_tau
            and X.tau[j, k] > min_tau
            and X.tau[i, k] > min_tau
            and X.tau[i, k] < math.pi - 1e-3
        ):
            out.append((i, j, k))
    return out


def side_chains(X, verts):
    i, j, k = verts
    return (
        cs.longest_chain(X, i, j),
        cs.longest_chain(X, j, k),
        cs.longest_chain(X, i, k),
    )


# ---------------------------------------------------------------- structure


def test_space_rejects_duplicate_labels():
    with pytest.raises(StructuralError):
        cs.FiniteCausalSpace(
            ("a", "a"), np.zeros((2, 2)), np.eye(2, dtype=bool)
        )


def test_space_rejects_negative_tau():
    tau = np.array([[0.0, -1.0], [0.0, 0.0]])
    with pytest.raises(StructuralError):
        cs.FiniteCausalSpace(("a", "b"), tau, np.eye(2, dtype=bool))


def test_space_rejects_nonreflexive_leq():
    leq = np.zeros((2, 2), dtype=bool)
    with pytest.raises(StructuralError):
        cs.FiniteCausalSpace(("a", "b"), np.zeros((2, 2)), leq)


def test_space_rejects_shape_mismatch():
    with pytest.raises(StructuralError):
        cs.FiniteCausalSpace(("a", "b"), np.zeros((3, 3)), np.eye(3, dtype=bool))


def test_space_arrays_are_write_protected():
    X, _ = diamond_space(1.0, 3)
    with pytest.raises(ValueError):
        X.tau[0, 1] = 5.0


def test_relation_classification():
    X, pts = diamond_space(1.0, 3)
    i, j = 0, X.size - 1
    assert X.relation(i, j) == "timelike"
    assert X.relation(j, i) == "past-directed"
    # a point is causally but not chronologically related to itself
    assert X.relation(i, i) == "null"


def test_sampled_model_points_match_pairwise_intervals():
    rng = np.random.default_rng(2)
    X = random_model_space(rng, 20)
    pts = [ms.AdsPrimePoint(*c) for c in X.coords]
    for a in range(20):
        for b in range(20):
            res = ms.ads_interval(pts[a], pts[b])
            fwd = res.relation in ("timelike", "null")
            assert X.leq[a, b] == (fwd or a == b)
            expect = res.tau if res.relation == "timelike" else 0.0
            assert abs(X.tau[a, b] - expect) < EXACT


# ---------------------------------------------------------------- validation


def test_validate_passes_on_model_sample():
    X, _ = diamond_space(2.0, 11)
    rep = cs.validate_space(X)
    assert rep.verdict and rep.violation_count == 0


def test_validate_flags_reverse_triangle_violation():
    # two unit hops but a direct separation below their sum
    tau = np.array(
        [
            [0.0, 1.0, 1.5],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ]
    )
    leq = np.array(
        [
            [True, True, True],
            [False, True, True],
            [False, False, True],
        ]
    )
    X = cs.FiniteCausalSpace(("a", "b", "c"), tau, leq)
    rep = cs.validate_space(X)
    assert not rep.verdict
    assert any("reverse triangle" in v.note for v in rep.violations)
    assert abs(rep.max_deficit - 0.5) < EXACT


def test_validate_flags_positive_tau_without_leq():
    tau = np.array([[0.0, 1.0], [0.0, 0.0]])
    leq = np.eye(2, dtype=bool)
    X = cs.FiniteCausalSpace(("a", "b"), tau, leq)
    rep = cs.validate_space(X)
    assert not rep.verdict
    assert any("timelike" in v.note for v in rep.violations)


def test_validate_flags_nontransitive_leq():
    tau = np.zeros((3, 3))
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True
    X = cs.FiniteCausalSpace(("a", "b", "c"), tau, leq)
    rep = cs.validate_space(X)
    assert not rep.verdict
    assert any("transitiv" in v.note for v in rep.violations)


def test_validate_flags_chronological_gap():
    # timelike hops a->b->c but c unreachable from a
    tau = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ]
    )
    leq = np.array(
        [
            [True, True, False],
            [False, True, True],
            [False, False, True],
        ]
    )
    X = cs.FiniteCausalSpace(("a", "b", "c"), tau, leq)
    rep = cs.validate_space(X)
    assert not rep.verdict


def reference_validate(X, tol=cs.RTI_TOL):
    """Triple-loop audit in the documented scan order: stage by stage,
    the reverse triangle stage by middle point k, then (i, j) row-major."""
    tau, leq, n = X.tau, X.leq, X.size
    found = []
    for i in range(n):
        for j in range(n):
            if tau[i, j] > 0.0 and not leq[i, j]:
                found.append(((i, j), float(tau[i, j]), 0.0, float(tau[i, j]),
                              "timelike pair is not leq-related"))
    for rel, note in (
        (leq, "leq is not transitive"),
        (tau > 0.0, "chronological relation is not transitive"),
    ):
        for i in range(n):
            for j in range(n):
                if not rel[i, j] and any(rel[i, k] and rel[k, j] for k in range(n)):
                    found.append(((i, j), 1.0, 0.0, 1.0, note))
    checked = 3 * n * n
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if not (leq[i, k] and leq[k, j]):
                    continue
                checked += 1
                sums = tau[i, k] + tau[k, j]
                if tau[i, j] + tol < sums:
                    found.append(((i, k, j), float(tau[i, j]), float(sums),
                                  float(sums - tau[i, j]),
                                  "reverse triangle inequality fails through the middle point"))
    return cs.ComparisonReport(
        checked=checked,
        violations=tuple(cs.Violation(*v) for v in found[: cs.VIOLATION_CAP]),
        violation_count=len(found),
        max_deficit=max([0.0] + [v[3] for v in found]),
        verdict=not found,
    )


def corrupted_model_space(seed, n=15, flips=4, nudges=4):
    """Model sample with some off-diagonal leq entries flipped and some
    tau entries moved, which breaks every audited axiom somewhere."""
    rng = np.random.default_rng(seed)
    X = random_model_space(rng, n)
    tau, leq = X.tau.copy(), X.leq.copy()
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for r in rng.choice(len(off), flips, replace=False):
        leq[off[r]] = not leq[off[r]]
    for r in rng.choice(len(off), nudges, replace=False):
        tau[off[r]] = abs(tau[off[r]] + rng.normal(0.0, 0.5))
    return cs.FiniteCausalSpace(X.labels, tau, leq, X.coords)


def scrambled_space(seed, n=15):
    """Random tau and leq: far more than VIOLATION_CAP violations."""
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.0, 2.0, (n, n))
    np.fill_diagonal(tau, 0.0)
    leq = rng.random((n, n)) < 0.5
    np.fill_diagonal(leq, True)
    return cs.FiniteCausalSpace(tuple(f"q{k:02d}" for k in range(n)), tau, leq)


def relabelled(X, perm):
    coords = None if X.coords is None else X.coords[perm]
    return cs.FiniteCausalSpace(
        tuple(X.labels[k] for k in perm),
        X.tau[np.ix_(perm, perm)],
        X.leq[np.ix_(perm, perm)],
        coords,
    )


VALIDATE_CASES = [
    pytest.param(lambda: diamond_space(2.0, 3)[0], id="model-diamond"),
    *(pytest.param(lambda s=s: corrupted_model_space(s), id=f"corrupted-{s}")
      for s in range(8)),
    pytest.param(lambda: corrupted_model_space(8, flips=20, nudges=20), id="corrupted-heavy"),
    pytest.param(lambda: scrambled_space(0), id="scrambled"),
]


@pytest.mark.parametrize("make", VALIDATE_CASES)
def test_validate_matches_triple_loop_reference(make):
    X = make()
    assert cs.validate_space(X) == reference_validate(X)


def test_validate_matches_reference_at_zero_tolerance():
    # Additive time separations along the fibers meet the reverse
    # triangle bound with equality, so only a strict comparison passes.
    X = suspension_space(3, 5)
    assert cs.validate_space(X, tol=0.0) == reference_validate(X, tol=0.0)


def test_validate_truncates_in_scan_order():
    X = scrambled_space(0)
    rep = cs.validate_space(X)
    assert rep.violation_count > cs.VIOLATION_CAP
    assert len(rep.violations) == cs.VIOLATION_CAP
    assert rep == reference_validate(X)


@pytest.mark.parametrize("make", VALIDATE_CASES)
def test_validate_summary_ignores_point_order(make):
    X = make()
    rep = cs.validate_space(X)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(X.size)
        other = cs.validate_space(relabelled(X, perm))
        assert (other.verdict, other.checked, other.violation_count, other.max_deficit) == (
            rep.verdict, rep.checked, rep.violation_count, rep.max_deficit
        )


# ---------------------------------------------------------------- chains


def test_longest_chain_matches_exhaustive_search():
    rng = np.random.default_rng(12)
    for trial in range(12):
        X = random_model_space(rng, 7)
        for i in range(7):
            for j in range(7):
                if i == j or not X.leq[i, j]:
                    continue
                expect = brute_force_best_chain(X, i, j)
                got = cs.longest_chain(X, i, j)
                assert abs(got.value - expect[1]) < 1e-12
                assert list(got.indices) == expect[0]


def test_longest_chain_walks_full_fiber_of_suspension():
    X = suspension_space(n_base=4, n_times=9)
    i, j = X.index("c00@0"), X.index("c00@8")
    ch = cs.longest_chain(X, i, j)
    assert [X.labels[q] for q in ch.indices] == [f"c00@{r}" for r in range(9)]
    assert abs(ch.value - X.tau[i, j]) < EXACT


def test_longest_chain_value_decomposes_additively():
    X, _ = diamond_space(2.0, 11)
    ch = cs.longest_chain(X, 0, X.size - 1)
    assert len(ch.indices) > 2
    hops = [
        X.tau[a, b] for a, b in zip(ch.indices, ch.indices[1:])
    ]
    assert abs(sum(hops) - ch.value) < 1e-12
    assert ch.params[0] == 0.0
    assert abs(ch.params[-1] - ch.value) < 1e-12


def test_longest_chain_single_point():
    X, _ = diamond_space(1.0, 3)
    ch = cs.longest_chain(X, 4, 4)
    assert ch.indices == (4,) and ch.value == 0.0


def test_longest_chain_rejects_unrelated_endpoints():
    X, _ = diamond_space(1.0, 5)
    lo = np.argsort(X.coords[:, 0])
    a, b = int(lo[0]), int(lo[1])
    pair = None
    for a in range(X.size):
        for b in range(X.size):
            if a != b and not X.leq[a, b]:
                pair = (a, b)
                break
        if pair:
            break
    with pytest.raises(ChainError):
        cs.longest_chain(X, *pair)


def test_longest_chain_detects_cycles_without_coordinates():
    tau = np.zeros((2, 2))
    leq = np.ones((2, 2), dtype=bool)
    X = cs.FiniteCausalSpace(("a", "b"), tau, leq)
    with pytest.raises(CausalityError):
        cs.longest_chain(X, 0, 1)


# ------------------------------------------------- block DP against its oracle


def reference_longest_chain(X, i, j):
    """The per-node DP that longest_chain replaced, kept as its oracle:
    one masked max per point of the interval, walking down a topological
    order, and the earliest achiever in that order on reconstruction."""
    if i == j:
        return cs.Chain((i,), (0.0,))
    nodes = np.nonzero(X.leq[i] & X.leq[:, j])[0]
    order = None
    if X.coords is not None:
        order = nodes[np.lexsort((nodes, X.coords[nodes, 0]))]
        if np.tril(X.leq[np.ix_(order, order)], -1).any():
            order = None
    if order is None:
        order = cs._kahn_order(X.leq, nodes)
    m = len(order)
    pos = {int(node): r for r, node in enumerate(order)}
    ri, rj = pos[i], pos[j]
    T = X.tau[np.ix_(order, order)]
    A = X.leq[np.ix_(order, order)].copy()
    np.fill_diagonal(A, False)
    best = np.full(m, -np.inf)
    best[rj] = 0.0
    for r in range(m - 1, -1, -1):
        if r == rj:
            continue
        succ = A[r] & (best > -np.inf)
        if succ.any():
            best[r] = np.max(T[r, succ] + best[succ])
    indices = [int(i)]
    params = [0.0]
    r = ri
    while r != rj:
        succ = np.nonzero(A[r] & (best > -np.inf))[0]
        achieving = succ[T[r, succ] + best[succ] >= best[r] - cs.RECON_COLLAR]
        r_next = achieving[0]
        params.append(params[-1] + float(T[r, r_next]))
        r = int(r_next)
        indices.append(int(order[r]))
    return cs.Chain(tuple(indices), tuple(params))


def seeded_net_space(seed, warping, n_times=21):
    """A 12-point circle net jittered by the seed, sampled at n_times
    levels: 252 points at the default, as at --grid 21."""
    rng = np.random.default_rng(seed)
    sites = 2 * np.arange(12) + rng.integers(0, 2, size=12)
    gap = np.abs(sites[:, None] - sites[None, :])
    S = wp.FiniteMetricSpace(
        tuple(f"c{k:02d}" for k in range(12)), np.minimum(gap, 24 - gap) * (4.0 / 24)
    )
    if warping == "cos":
        grid = np.linspace(-ms.HALF_PI + 0.05, ms.HALF_PI - 0.05, n_times)
        return wp.sample_suspension(S, grid)
    grid = np.linspace(0.05, 3.95, n_times)
    return wp.sample_warped_product(wp.constant_warping(1.0, (0.0, 4.0)), S, grid)


def ads81_space():
    raw = (Path(__file__).resolve().parents[1] / "fixtures" / "ads_diamond_81.json").read_bytes()
    return cli.parse_space_file(raw).space


def strict_pairs(X):
    return np.argwhere(X.leq & ~np.eye(X.size, dtype=bool))


def without_coords(X, rng):
    return cs.FiniteCausalSpace(X.labels, X.tau, X.leq)


def with_infinite_tau(X, rng):
    rel = strict_pairs(X)
    hit = rel[rng.choice(len(rel), len(rel) // 10, replace=False)]
    tau = X.tau.copy()
    tau[hit[:, 0], hit[:, 1]] = np.inf
    return cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords)


def with_dropped_leq(X, rng):
    rel = strict_pairs(X)
    hit = rel[rng.choice(len(rel), len(rel) // 5, replace=False)]
    leq = X.leq.copy()
    leq[hit[:, 0], hit[:, 1]] = False
    return cs.FiniteCausalSpace(X.labels, X.tau, leq, X.coords)


def with_inflated_tau(X, rng):
    """tau scaled up by up to half on a fifth of the related pairs, which
    breaks the reverse triangle inequality."""
    rel = strict_pairs(X)
    hit = rel[rng.choice(len(rel), len(rel) // 5, replace=False)]
    tau = X.tau.copy()
    tau[hit[:, 0], hit[:, 1]] *= rng.uniform(1.0, 1.5, size=len(hit))
    return cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords)


ORACLE_SPACES = {
    "cos21": lambda: seeded_net_space(3, "cos"),
    "flat21": lambda: seeded_net_space(4, "flat"),
    "ads81": ads81_space,
}
ORACLE_VARIANTS = {
    "plain": lambda X, rng: X,
    "no-coords": without_coords,
    "inf-tau": with_infinite_tau,
    "dropped-leq": with_dropped_leq,
    "inflated-tau": with_inflated_tau,
}


@pytest.mark.parametrize("variant", ORACLE_VARIANTS)
@pytest.mark.parametrize("space", ORACLE_SPACES)
def test_longest_chain_equals_per_node_reference(space, variant):
    rng = np.random.default_rng(7)
    X = ORACLE_VARIANTS[variant](ORACLE_SPACES[space](), rng)
    rel = strict_pairs(X)
    far = rel[X.tau[rel[:, 0], rel[:, 1]] >= np.quantile(X.tau[X.leq], 0.9)]
    pairs = [
        (int(a), int(b))
        for pool in (rel, far)
        for a, b in pool[rng.choice(len(pool), 30, replace=False)]
    ]
    got = []
    for a, b in pairs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got.append(cs.longest_chain(X, a, b))
        assert got[-1] == reference_longest_chain(X, a, b), (a, b)
    assert sum(len(ch.indices) > 2 for ch in got) >= 5
    assert any(math.isinf(ch.value) for ch in got) == (variant == "inf-tau")


def test_longest_chain_detects_cycles_behind_coordinates():
    X = seeded_net_space(3, "cos")
    a, b = X.index("c00@5"), X.index("c00@9")
    leq = X.leq.copy()
    leq[b, a] = True
    Y = cs.FiniteCausalSpace(X.labels, X.tau, leq, X.coords)
    with pytest.raises(CausalityError):
        cs.longest_chain(Y, X.index("c00@0"), X.index("c00@20"))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=40))
def test_longest_chain_value_ignores_point_order(seed, n):
    rng = np.random.default_rng(seed)
    X = random_model_space(rng, n)
    perm = rng.permutation(n)
    Y = relabelled(X, perm)
    where = np.argsort(perm)  # X's point k is Y's point where[k]
    for a, b in strict_pairs(X):
        got = cs.longest_chain(Y, int(where[a]), int(where[b])).value
        assert abs(got - cs.longest_chain(X, int(a), int(b)).value) <= EXACT


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=40))
def test_longest_chain_value_survives_time_reversal(seed, n):
    X = random_model_space(np.random.default_rng(seed), n)
    coords = X.coords * np.array([-1.0, 1.0])
    R = cs.FiniteCausalSpace(X.labels, X.tau.T, X.leq.T, coords)
    for a, b in strict_pairs(X):
        forward = cs.longest_chain(X, int(a), int(b))
        back = cs.longest_chain(R, int(b), int(a))
        assert back.indices[0] == b and back.indices[-1] == a
        assert abs(back.value - forward.value) <= EXACT


def test_make_chain_validates_connectivity():
    X, _ = diamond_space(1.0, 5)
    pair = next(
        (a, b)
        for a in range(X.size)
        for b in range(X.size)
        if a != b and not X.leq[a, b]
    )
    with pytest.raises(ChainError):
        cs.make_chain(X, pair)


# ---------------------------------------------------------------- triangles


def test_triangle_comparison_is_equality_on_model_sample():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(7)
    for verts in triangle_vertices(X, rng, 25):
        rep = cs.check_triangle_comparison(X, verts, side_chains(X, verts), GRID_TOL)
        assert rep.verdict
        assert rep.max_deficit < GRID_TOL
        assert rep.max_excess < GRID_TOL


def test_triangle_comparison_passes_on_suspension():
    X = suspension_space()
    rng = np.random.default_rng(8)
    for verts in triangle_vertices(X, rng, 25):
        rep = cs.check_triangle_comparison(X, verts, side_chains(X, verts), GRID_TOL)
        assert rep.verdict, rep.violations[:1]


def test_triangle_comparison_fails_on_constant_strip():
    X = flat_strip_space()
    rng = np.random.default_rng(3)
    tris = triangle_vertices(X, rng, 60)
    failing = 0
    for verts in tris:
        rep = cs.check_triangle_comparison(X, verts, side_chains(X, verts), GRID_TOL)
        if not rep.verdict:
            failing += 1
            worst = max(v.deficit for v in rep.violations)
            assert worst > GRID_TOL
    assert failing >= len(tris) // 3


def test_triangle_comparison_detects_value_mismatch():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(7)
    verts = None
    for cand in triangle_vertices(X, rng, 40):
        if len(cs.longest_chain(X, cand[0], cand[2]).indices) >= 3:
            verts = cand
            break
    assert verts is not None
    i, j, k = verts
    full = side_chains(X, verts)
    truncated = cs.Chain(
        indices=(i, k),
        params=(0.0, float(X.tau[i, k]) - 0.5),
    )
    with pytest.raises(ChainError):
        cs.check_triangle_comparison(X, verts, (full[0], full[1], truncated), GRID_TOL)


def test_triangle_comparison_rejects_null_related_vertices():
    X, _ = diamond_space(2.0, 11)
    # a null leg admits a chain but no timelike triangle
    pair = next(
        (a, b)
        for a in range(X.size)
        for b in range(X.size)
        if a != b and X.leq[a, b] and X.tau[a, b] == 0.0
    )
    a, b = pair
    c = next(
        q for q in range(X.size) if X.tau[a, q] > 0.2 and X.tau[b, q] > 0.2
    )
    chains = (
        cs.make_chain(X, (a, b)),
        cs.longest_chain(X, b, c),
        cs.longest_chain(X, a, c),
    )
    with pytest.raises(ParameterError):
        cs.check_triangle_comparison(X, (a, b, c), chains, GRID_TOL)


# -------------------------------------------------------------- monotonicity


def chain_pair_from(X, rng, min_tau=0.4):
    guard = 0
    while guard < 300000:
        guard += 1
        v = int(rng.integers(0, X.size))
        ups = np.where(X.tau[v] > min_tau)[0]
        if len(ups) < 2:
            continue
        a, b = (int(q) for q in rng.choice(ups, size=2, replace=False))
        ca, cb = cs.longest_chain(X, v, a), cs.longest_chain(X, v, b)
        if len(ca.indices) < 3 or len(cb.indices) < 3:
            continue
        if ca.value >= math.pi or cb.value >= math.pi:
            continue
        return v, ca, cb
    raise AssertionError("no usable chain pair found")


def test_monotonicity_holds_on_model_sample():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(5)
    for _ in range(15):
        v, ca, cb = chain_pair_from(X, rng)
        try:
            rep = cs.check_monotonicity(X, v, ca, cb, GRID_TOL)
        except UndefinedAngleError:
            continue
        assert rep.verdict, rep.violations[:1]


def test_monotonicity_fails_somewhere_on_constant_strip():
    X = flat_strip_space()
    rng = np.random.default_rng(6)
    failures = 0
    for _ in range(40):
        v, ca, cb = chain_pair_from(X, rng)
        try:
            rep = cs.check_monotonicity(X, v, ca, cb, GRID_TOL)
        except UndefinedAngleError:
            continue
        if not rep.verdict:
            failures += 1
    assert failures > 0


def test_monotonicity_requires_chains_from_vertex():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(5)
    v, ca, cb = chain_pair_from(X, rng)
    with pytest.raises(ParameterError):
        cs.check_monotonicity(X, ca.indices[1], ca, cb, GRID_TOL)


def test_monotonicity_rejects_oversized_chains():
    tau = np.array([[0.0, 3.2], [0.0, 0.0]])
    leq = np.array([[True, True], [False, True]])
    X = cs.FiniteCausalSpace(("a", "b"), tau, leq)
    ch = cs.make_chain(X, (0, 1))
    with pytest.raises(SizeBoundError):
        cs.check_monotonicity(X, 0, ch, ch, GRID_TOL)


# ---------------------------------------------------------------- angles


def test_angle_estimate_matches_embedded_tangents_on_model_sample():
    X, pts = diamond_space(2.0, 11)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        v, ca, cb = chain_pair_from(X, rng, min_tau=0.5)
        try:
            est = cs.upper_angle_estimate(X, v, ca, cb)
        except GeometryError:
            continue
        pv = pts[v]
        ga, la, _ = ms.geodesic_through(pv, pts[ca.indices[-1]])
        gb, lb, _ = ms.geodesic_through(pv, pts[cb.indices[-1]])
        exact = ms.hyperbolic_angle(
            pv, ms.geodesic_tangent(ga, la), ms.geodesic_tangent(gb, lb)
        )
        assert abs(est.angle - exact) < GRID_TOL
        assert est.spread < GRID_TOL
        assert est.sigma == -1
        checked += 1


def test_angle_estimate_is_zero_for_identical_chains():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(5)
    v, ca, _ = chain_pair_from(X, rng)
    est = cs.upper_angle_estimate(X, v, ca, ca)
    assert est.angle == 0.0 and est.spread == 0.0


def test_angle_estimate_requires_interior_points():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(5)
    v, ca, cb = chain_pair_from(X, rng)
    stub = cs.make_chain(X, (v, ca.indices[-1]))
    with pytest.raises(ParameterError):
        cs.upper_angle_estimate(X, v, stub, cb)


# ------------------------------------------------------------- subdivision


def interior_subdivision_case(X, rng, which, count):
    found = []
    guard = 0
    while len(found) < count and guard < 300000:
        guard += 1
        cand = triangle_vertices(X, rng, 1, min_tau=0.2)
        if not cand:
            break
        verts = cand[0]
        chains = side_chains(X, verts)
        host = chains[2] if which == "across" else chains[0]
        if len(host.indices) < 3:
            continue
        p = host.indices[len(host.indices) // 2]
        found.append((verts, chains, p))
    return found


def test_subdivision_is_degenerate_on_model_sample():
    X, _ = diamond_space(2.0, 11)
    for which in ("across", "future"):
        rng = np.random.default_rng(21)
        done = 0
        for verts, chains, p in interior_subdivision_case(X, rng, which, 40):
            try:
                rep = cs.check_subdivision(X, verts, chains, p, which, GRID_TOL)
            except GeometryError:
                continue
            assert rep.verdict, (which, rep.violations[:1])
            assert any("degenerate" in note for note in rep.notes)
            done += 1
        assert done >= 5


def test_subdivision_is_consistent_on_suspension():
    X = suspension_space()
    for which in ("across", "future"):
        rng = np.random.default_rng(23)
        done = 0
        for verts, chains, p in interior_subdivision_case(X, rng, which, 25):
            try:
                rep = cs.check_subdivision(X, verts, chains, p, which, GRID_TOL)
            except GeometryError:
                continue
            assert rep.verdict, (which, rep.violations[:1])
            done += 1
        assert done >= 5


def test_subdivision_classifies_constant_strip_as_concave():
    X = flat_strip_space()
    rng = np.random.default_rng(29)
    concave = 0
    done = 0
    for verts, chains, p in interior_subdivision_case(X, rng, "future", 30):
        try:
            rep = cs.check_subdivision(X, verts, chains, p, "future", GRID_TOL)
        except GeometryError:
            continue
        assert rep.verdict, rep.violations[:1]
        done += 1
        if any("concave" in note for note in rep.notes):
            concave += 1
    assert done >= 10
    assert concave > done // 2


def test_subdivision_rejects_noninterior_point():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(21)
    verts, chains, _ = interior_subdivision_case(X, rng, "across", 1)[0]
    with pytest.raises(ParameterError):
        cs.check_subdivision(X, verts, chains, verts[0], "across", GRID_TOL)


def test_subdivision_rejects_unknown_kind():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(21)
    verts, chains, p = interior_subdivision_case(X, rng, "across", 1)[0]
    with pytest.raises(ParameterError):
        cs.check_subdivision(X, verts, chains, p, "sideways", GRID_TOL)


# ---------------------------------------------------------------- size bound


def test_myers_passes_on_suspension():
    X = suspension_space()
    rep = cs.myers_check(X)
    assert rep.verdict and rep.violation_count == 0


def test_myers_passes_on_model_sample():
    X, _ = diamond_space(2.0, 11)
    rep = cs.myers_check(X)
    assert rep.verdict


def test_myers_fails_on_tall_constant_strip():
    X = flat_strip_space()
    rep = cs.myers_check(X)
    assert not rep.verdict
    assert rep.max_deficit > 0.5
    assert rep.violation_count > 0
    assert all(v.lhs > math.pi for v in rep.violations)

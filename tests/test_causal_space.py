"""Tests for finite causal spaces, chain extraction and the checkers.

Longest chains are validated against an exhaustive path enumeration on
small sampled spaces.  Comparison checkers are validated on three
sampled geometries with known behaviour: model samples must sit exactly
on the comparison bound, cosine suspensions must satisfy it, and a
constant-warping strip must violate it.
"""

import dataclasses
import functools
import heapq
import itertools
import math
import sys
import tracemalloc
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
)

EXACT = 1e-12
GRID_TOL = 1e-6
# the tolerance of these tests' axiom and diameter audits
AXIOM_TOL = 1e-9


def diamond_space(half_width=2.0, n=11):
    """Null-coordinate grid: conformal time (u + v) / 2, position (v - u) / 2."""
    uv = np.linspace(-half_width, half_width, n)
    pts = [
        ms.AdsPrimePoint(2.0 * math.atan(math.exp((u + v) / 2.0)) - ms.HALF_PI, (v - u) / 2.0)
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


def test_space_rejects_coords_without_a_time_column():
    with pytest.raises(StructuralError, match="time column"):
        cs.FiniteCausalSpace(("a", "b"), np.zeros((2, 2)), np.eye(2, dtype=bool), np.zeros((2, 0)))


def test_space_arrays_are_write_protected():
    X, _ = diamond_space(1.0, 3)
    with pytest.raises(ValueError):
        X.tau[0, 1] = 5.0


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
    rep = cs.validate_space(X, AXIOM_TOL)
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
    rep = cs.validate_space(X, AXIOM_TOL)
    assert not rep.verdict
    assert any("reverse triangle" in v.note for v in rep.violations)
    assert abs(rep.max_deficit - 0.5) < EXACT


def test_validate_flags_positive_tau_without_leq():
    tau = np.array([[0.0, 1.0], [0.0, 0.0]])
    leq = np.eye(2, dtype=bool)
    X = cs.FiniteCausalSpace(("a", "b"), tau, leq)
    rep = cs.validate_space(X, AXIOM_TOL)
    assert not rep.verdict
    assert any("timelike" in v.note for v in rep.violations)


def test_validate_flags_nontransitive_leq():
    tau = np.zeros((3, 3))
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True
    X = cs.FiniteCausalSpace(("a", "b", "c"), tau, leq)
    rep = cs.validate_space(X, AXIOM_TOL)
    assert not rep.verdict
    assert any("transitiv" in v.note for v in rep.violations)


def test_validate_flags_a_pair_related_both_ways():
    # a <= b <= a below the chain a, c, d: every other axiom holds
    tau = np.array(
        [
            [0.0, 0.0, 1.0, 2.0],
            [0.0, 0.0, 1.0, 2.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    leq = np.triu(np.ones((4, 4), dtype=bool))
    leq[1, 0] = True
    X = cs.FiniteCausalSpace(("a", "b", "c", "d"), tau, leq)
    rep = cs.validate_space(X, AXIOM_TOL)
    assert not rep.verdict
    assert rep.violations == (cs.Violation((0, 1), 1.0, 0.0, 1.0, "leq is not antisymmetric"),)
    assert rep == reference_validate(X)


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
    rep = cs.validate_space(X, AXIOM_TOL)
    assert not rep.verdict


def reference_validate(X, tol=AXIOM_TOL):
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
        if rel is leq:
            for i in range(n):
                for j in range(i + 1, n):
                    if leq[i, j] and leq[j, i]:
                        found.append(((i, j), 1.0, 0.0, 1.0, "leq is not antisymmetric"))
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
    pytest.param(lambda: suspension_space(4, 7), id="suspension"),
    pytest.param(lambda: inflated_suspension(), id="suspension-inflated"),
    pytest.param(lambda: permuted(suspension_space(4, 7)), id="suspension-permuted"),
    pytest.param(lambda: permuted(inflated_suspension()), id="suspension-inflated-permuted"),
    pytest.param(lambda: with_infinite_tau(suspension_space(4, 7), np.random.default_rng(0)),
                 id="suspension-inf"),
    pytest.param(lambda: with_infinite_last_column(suspension_space(4, 7)),
                 id="suspension-inf-column"),
]


@pytest.mark.parametrize("make", VALIDATE_CASES)
def test_validate_matches_triple_loop_reference(make):
    X = make()
    assert cs.validate_space(X, AXIOM_TOL) == reference_validate(X)


def test_validate_matches_reference_at_zero_tolerance():
    # Additive time separations along the fibers meet the reverse
    # triangle bound with equality, so only a strict comparison passes.
    # tol 0 lies below the screen's rounding margin, so every k takes
    # the exact comparison.
    X = suspension_space(3, 5)
    assert cs.validate_space(X, tol=0.0) == reference_validate(X, tol=0.0)


def test_validate_truncates_in_scan_order():
    X = scrambled_space(0)
    rep = cs.validate_space(X, AXIOM_TOL)
    assert rep.violation_count > cs.VIOLATION_CAP
    assert len(rep.violations) == cs.VIOLATION_CAP
    assert rep == reference_validate(X)


@pytest.mark.parametrize("make", VALIDATE_CASES)
def test_validate_summary_ignores_point_order(make):
    X = make()
    rep = cs.validate_space(X, AXIOM_TOL)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(X.size)
        other = cs.validate_space(relabelled(X, perm), AXIOM_TOL)
        assert (other.verdict, other.checked, other.violation_count, other.max_deficit) == (
            rep.verdict, rep.checked, rep.violation_count, rep.max_deficit
        )


def reference_gather_validate(X, tol=AXIOM_TOL):
    """validate_space without its screen: every diamond J-(k) x J+(k) is
    gathered and compared cell by cell.  The oracle for sizes the triple
    loop cannot reach."""
    tau, leq, n = X.tau, X.leq, X.size
    books = cs._Tally(tol)
    bad = np.nonzero((tau > 0.0) & ~leq)
    books.found(np.column_stack(bad), tau[bad], 0.0, tau[bad], "timelike pair is not leq-related")
    books.found(np.argwhere(cs._composed(leq) & ~leq), 1.0, 0.0, 1.0, "leq is not transitive")
    books.found(np.argwhere(np.triu(leq & leq.T, 1)), 1.0, 0.0, 1.0, "leq is not antisymmetric")
    ll = tau > 0.0
    books.found(np.argwhere(cs._composed(ll) & ~ll), 1.0, 0.0, 1.0,
                "chronological relation is not transitive")
    books.checked = 3 * n * n
    for k in range(n):
        past = np.nonzero(leq[:, k])[0]
        fut = np.nonzero(leq[k, :])[0]
        books.checked += len(past) * len(fut)
        direct = tau[np.ix_(past, fut)]
        sums = tau[past, k][:, None] + tau[k, fut][None, :]
        a, b = np.nonzero(direct + tol < sums)
        books.found(np.column_stack((past[a], np.full(len(a), k), fut[b])),
                    direct[a, b], sums[a, b], sums[a, b] - direct[a, b],
                    "reverse triangle inequality fails through the middle point")
    return books.report(verdict=books.count == 0)


def inflated_suspension():
    return with_inflated_tau(suspension_space(4, 7), np.random.default_rng(2))


def permuted(X):
    """X out of time order: some futures fill less than a quarter of
    their index span, and validate_space gathers those diamonds without
    screening them."""
    return relabelled(X, np.random.default_rng(1).permutation(X.size))


def with_moved_entry(X, i, j, value):
    tau = X.tau.copy()
    tau[i, j] = value
    return cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords)


def with_infinite_last_column(X):
    """The last point of a 4 x 7 suspension at +inf from its whole past,
    and one separation along its fiber shortened: the reverse triangle
    inequality fails only through the points between its ends, whose
    futures all hold the infinite column, and inf - inf would hide each
    of their past rows from a screen as NaN."""
    tau = X.tau.copy()
    i, j, last = (X.index(f"c03@{r}") for r in (0, 5, 6))
    tau[X.leq[:, last], last] = np.inf
    tau[last, last] = 0.0
    tau[i, j] -= 0.1
    return cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords)


@pytest.mark.parametrize("a, b, d, tol", [
    (1.7009144993963021, 2.4808538080615112, 4.081768307457813, 0.1),
    (2.6515778658176714, 1.675096095155975, 3.9566739609736463, 0.37),
])
def test_validate_flags_triples_within_the_rounding_margin(a, b, d, tol):
    # d + tol < a + b in floating point, but not d - b < a - tol: a
    # screen without its margin would pass this chain
    assert d + tol < a + b and not d - b < a - tol
    tau = np.array([[0.0, a, d], [0.0, 0.0, b], [0.0, 0.0, 0.0]])
    X = cs.FiniteCausalSpace(("p", "q", "r"), tau, np.triu(np.ones((3, 3), dtype=bool)))
    rep = cs.validate_space(X, tol)
    assert rep.violation_count == 1
    assert rep == reference_validate(X, tol)


@pytest.mark.parametrize("tol", [AXIOM_TOL, 1e-3])
@pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
def test_validate_matches_reference_at_the_tolerance_boundary(tol, ulps):
    # tau(i, j) moved to tol below tau(i, k) + tau(k, j) and a few ulp
    # to either side: the screen must pass every k the exact comparison
    # flags, however close the call
    X = suspension_space(4, 7)
    i, k, j = (X.index(f"c00@{r}") for r in (0, 3, 6))
    value = (X.tau[i, k] + X.tau[k, j]) - tol
    for _ in range(abs(ulps)):
        value = np.nextafter(value, math.copysign(np.inf, ulps))
    X = with_moved_entry(X, i, j, value)
    assert cs.validate_space(X, tol) == reference_validate(X, tol)


@pytest.mark.parametrize("corrupted", [False, True], ids=["clean", "corrupted"])
def test_validate_matches_the_gather_loop_on_a_bench_net(corrupted):
    # 492 points, as the bench nets at --grid 41, at the CLI's tol
    X = seeded_net_space(3, "cos", n_times=41)
    if corrupted:
        i, j = X.index("c05@10"), X.index("c05@30")
        X = with_moved_entry(X, i, j, X.tau[i, j] - 1e-6)
    rep = cs.validate_space(X, 1e-8)
    assert (rep.violation_count > 0) == corrupted
    assert rep == reference_gather_validate(X, 1e-8)


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


def kahn_order(leq, nodes):
    """Kahn's topological sort of the node subset, smallest index first."""
    sub = leq[np.ix_(nodes, nodes)].copy()
    np.fill_diagonal(sub, False)
    indeg = sub.sum(axis=0)
    ready = [int(nodes[r]) for r in np.nonzero(indeg == 0)[0]]
    heapq.heapify(ready)
    pos = {int(node): r for r, node in enumerate(nodes)}
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for m in np.nonzero(sub[pos[node]])[0]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, int(nodes[m]))
    assert len(order) == len(nodes), "the relation has a cycle"
    return np.array(order, dtype=int)


def reference_longest_chain(X, i, j, paths=False):
    """The per-node DP that longest_chain replaced, kept as its oracle:
    one masked max per point of the interval, walking down a topological
    order of the interval alone (by time when coords respect leq there,
    else Kahn's), and the earliest achiever in that order on
    reconstruction.  With paths, the nodes are the whole space, so the
    chain is the longest path of leq hops, which leaves the interval
    only where leq is not transitive."""
    if i == j:
        return cs.Chain((i,), (0.0,))
    nodes = np.arange(X.size) if paths else np.nonzero(X.leq[i] & X.leq[:, j])[0]
    order = None
    if X.coords is not None:
        order = nodes[np.lexsort((nodes, X.coords[nodes, 0]))]
        if np.tril(X.leq[np.ix_(order, order)], -1).any():
            order = None
    if order is None:
        order = kahn_order(X.leq, nodes)
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


def shuffled_cos_space():
    """The cos21 oracle space with its points relabelled at random, so
    that the time order is not the stored order."""
    X = seeded_net_space(3, "cos")
    return relabelled(X, np.random.default_rng(5).permutation(X.size))


ORACLE_SPACES = {
    "cos21": lambda: seeded_net_space(3, "cos"),
    "flat21": lambda: seeded_net_space(4, "flat"),
    "ads81": ads81_space,
    "cos21-shuffled": shuffled_cos_space,
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
        # a dropped leq entry breaks transitivity: chains are longest paths
        expect = reference_longest_chain(X, a, b, paths=variant == "dropped-leq")
        assert got[-1] == expect, (a, b)
    assert sum(len(ch.indices) > 2 for ch in got) >= 5
    assert any(math.isinf(ch.value) for ch in got) == (variant == "inf-tau")
    left = [not (X.leq[a, ch.indices] & X.leq[ch.indices, b]).all() for (a, b), ch in zip(pairs, got)]
    assert any(left) == (variant == "dropped-leq")


def test_longest_chain_detects_cycles_behind_coordinates():
    X = seeded_net_space(3, "cos")
    a, b = X.index("c00@5"), X.index("c00@9")
    leq = X.leq.copy()
    leq[b, a] = True
    Y = cs.FiniteCausalSpace(X.labels, X.tau, leq, X.coords)
    with pytest.raises(CausalityError):
        cs.longest_chain(Y, X.index("c00@0"), X.index("c00@20"))
    # a failed build is not cached: every read refuses the space again
    for _ in range(2):
        with pytest.raises(CausalityError):
            Y._chain_index


# ------------------------------------------------------------ the chain index


def sample_pairs(X, rng, count=40):
    rel = strict_pairs(X)
    return [(int(a), int(b)) for a, b in rel[rng.choice(len(rel), count, replace=False)]]


def run_starts(W, heads):
    """The first places of the runs that heads names, after checking that
    they are the greedy antichain runs of W from the top: no row of a run
    has a successor inside it, and the row below each run but the lowest
    has one, so that run could not grow."""
    n = len(W)
    starts = np.unique(heads)
    assert np.array_equal(heads, np.repeat(starts, np.diff([*starts, n])))
    related = W > -np.inf
    for lo, hi in zip(starts, [*starts[1:], n]):
        assert not related[lo:hi, lo:hi].any()
        assert lo == 0 or related[lo - 1, lo:hi].any()
    return starts


def test_chain_index_reads_a_time_ordered_space_in_place():
    X = seeded_net_space(3, "cos")
    rank, byrank, W, heads, ends = X._chain_index
    assert np.array_equal(rank, np.arange(X.size))
    assert np.array_equal(byrank, np.arange(X.size))
    strict = X.leq & ~np.eye(X.size, dtype=bool)
    assert np.array_equal(W, np.where(strict, X.tau, -np.inf))
    assert W.flags.c_contiguous and not W.flags.writeable
    # every time level of the suspension is one run
    assert np.array_equal(run_starts(W, heads), np.arange(0, X.size, 12))
    assert ends == {}


def test_chain_index_ranks_a_shuffled_space():
    # its chains are checked against the reference as the cos21-shuffled
    # oracle space; the index ranks the points and keeps W in rank order
    X = shuffled_cos_space()
    rank, byrank, W, heads, _ = X._chain_index
    perm = np.lexsort((np.arange(X.size), X.coords[:, 0]))
    assert not np.array_equal(perm, np.arange(X.size))
    assert np.array_equal(byrank, perm)
    assert np.array_equal(rank[perm], np.arange(X.size))
    strict = X.leq & ~np.eye(X.size, dtype=bool)
    assert np.array_equal(W, np.where(strict, X.tau, -np.inf)[np.ix_(perm, perm)])
    assert W.flags.c_contiguous and not W.flags.writeable
    assert np.array_equal(run_starts(W, heads), np.arange(0, X.size, 12))


@pytest.mark.parametrize("space", [lambda: seeded_net_space(3, "cos"), shuffled_cos_space])
def test_chain_index_builds_beside_one_float_block(space):
    # at 252 points one row block is all of W; beyond W and that block
    # the build holds only index-sized arrays, well under 32 KB
    X = space()
    n = X.size
    assert cs._INDEX_CELLS // n >= n
    tracemalloc.start()
    try:
        X._chain_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8 + 32 * 1024


def test_longest_chain_extends_the_cache_of_its_end_point():
    X = seeded_net_space(3, "cos")
    rank, _, _, _, ends = X._chain_index
    e = X.index("c05@20")
    # the chains walk the fiber of c05; the first start sits inside the
    # run of its time level, so the second chain finishes that run before
    # it goes further down
    first, second = X.index("c05@10"), X.index("c05@2")
    assert rank[first] % 12 == 5
    a = cs.longest_chain(X, first, e)
    assert list(ends) == [rank[e]] and ends[rank[e]][0] == rank[first]
    cached = ends[rank[e]][1]
    b = cs.longest_chain(X, second, e)
    assert list(ends) == [rank[e]] and ends[rank[e]][0] == rank[second]
    assert ends[rank[e]][1] is cached
    assert len(b.indices) > len(a.indices) > 2
    for i, chain in ((first, a), (second, b)):
        cold = cs.FiniteCausalSpace(X.labels, X.tau, X.leq, X.coords)
        assert cs.longest_chain(cold, i, e) == chain
        assert cs.longest_chain(X, i, e) == chain
    # every row of the extended array, the cut run's included, is the
    # one a single cold fill from the lower start gives
    low = rank[second]
    assert np.array_equal(cached[low:], cold._chain_index[4][rank[e]][1][low:])


def test_warm_chains_work_in_place():
    # 972 points, as at --grid 81: warm chains gather no interval and
    # form no n x n temporary, and the index and its cache stay within
    # one and a half n x n float64 matrices
    X = seeded_net_space(3, "cos", n_times=81)
    n = X.size
    pairs = sample_pairs(X, np.random.default_rng(1), 201)
    cs.longest_chain(X, *pairs[0])
    tracemalloc.start()
    try:
        for a, b in pairs[1:]:
            cs.longest_chain(X, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the arrays the cache keeps are most of it
    assert peak < n * n * 8 / 4
    rank, byrank, W, heads, ends = X._chain_index
    kept = rank.nbytes + byrank.nbytes + W.nbytes + sys.getsizeof(heads)
    kept += sum(best.nbytes for _, best in ends.values())
    assert kept <= 1.5 * n * n * 8


def test_reductions_over_a_space_read_tau_in_place():
    # 972 points, as at --grid 81: building a space keeps its copies of tau
    # and leq, 9 n^2 bytes, and checks them without an n x n temporary;
    # myers_check and the default --tol-disc form no n x n float64 matrix
    X = seeded_net_space(3, "cos", n_times=81)
    n = X.size
    tau, leq = np.array(X.tau), np.array(X.leq)
    options = cli._build_parser().parse_args(["curvature", "--in", "x"])
    runs = (
        (lambda: cs.FiniteCausalSpace(X.labels, tau, leq, X.coords), 9 * n * n + 64 * 1024),
        (lambda: cs.myers_check(X, AXIOM_TOL), 3 * n * n),
        (lambda: cli._effective_tol_disc(options, X), 3 * n * n),
    )
    for run, bound in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_split_drops_the_chain_index():
    X = suspension_space()
    options = cli._build_parser().parse_args(["split", "--in", "x"])
    checks = cli._cmd_split(X, options)
    assert checks[0]["verdict"]
    assert "_chain_index" not in vars(X)


def python_longest_path(X, i, j):
    """Longest path of leq hops from i to j in plain Python: the points
    in the chain index's order (time when coords respect leq, else past
    size, ties by index), one max per point over its successors that
    reach j, and the first achiever in that order within the collar."""
    n = X.size
    tau, leq = X.tau.tolist(), X.leq.tolist()
    past = [sum(leq[a][b] for a in range(n)) for b in range(n)]
    order = None
    if X.coords is not None:
        order = sorted(range(n), key=lambda k: (float(X.coords[k, 0]), k))
        where = {k: p for p, k in enumerate(order)}
        if any(leq[a][b] and where[a] > where[b] for a in range(n) for b in range(n)):
            order = None
    if order is None:
        order = sorted(range(n), key=lambda k: (past[k], k))
    where = {k: p for p, k in enumerate(order)}
    between = order[where[i]:where[j] + 1]
    best = {j: 0.0}
    for r in reversed(between[:-1]):
        values = [tau[r][s] + best[s] for s in between if s != r and leq[r][s] and s in best]
        if values:
            best[r] = max(values)
    indices, params = [i], [0.0]
    while indices[-1] != j:
        r = indices[-1]
        s = next(s for s in order[where[r] + 1:] if leq[r][s] and s in best
                 and tau[r][s] + best[s] >= best[r] - cs.RECON_COLLAR)
        indices.append(s)
        params.append(params[-1] + tau[r][s])
    return cs.Chain(tuple(indices), tuple(params))


def random_dag_space(rng, n, closed, shuffled, timed):
    """Points at tied integer times, edges only forward in time, closed
    under transitivity or not; tau drawn from a few tied values, with
    null (0) and infinite entries."""
    t = np.sort(rng.integers(0, max(2, n // 2), size=n)).astype(float)
    leq = (t[:, None] < t[None, :]) & (rng.random((n, n)) < rng.uniform(0.2, 0.7))
    leq |= np.eye(n, dtype=bool)
    if closed:
        for k in range(n):
            leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    values = np.array([0.0, 0.5, 1.0, 1.0, 1.5, 2.0, np.inf])
    tau = np.where(leq, values[rng.integers(0, len(values), size=(n, n))], 0.0)
    np.fill_diagonal(tau, 0.0)
    perm = rng.permutation(n) if shuffled else np.arange(n)
    coords = np.column_stack([t, np.zeros(n)])[perm] if timed else None
    return cs.FiniteCausalSpace(
        tuple(f"q{k}" for k in range(n)), tau[np.ix_(perm, perm)], leq[np.ix_(perm, perm)], coords
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=14),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_longest_chain_does_not_depend_on_the_warm_cache(seed, n, closed, shuffled, timed):
    # without coords the past-size order is topological only on a
    # transitive relation, so an open relation keeps its times
    rng = np.random.default_rng(seed)
    X = random_dag_space(rng, n, closed or not timed, shuffled, timed)
    rel = np.argwhere(X.leq)
    pairs = [tuple(int(v) for v in rel[k]) for k in rng.integers(0, len(rel), size=3 * n)]
    for i, j in pairs:
        got = cs.longest_chain(X, i, j)
        cold = cs.FiniteCausalSpace(X.labels, X.tau, X.leq, X.coords)
        assert got == cs.longest_chain(cold, i, j), (i, j)
        assert got == python_longest_path(X, i, j), (i, j)


def test_longest_chain_refuses_a_relation_that_is_not_transitive():
    X = seeded_net_space(3, "cos")
    # two spacelike points, the earlier one declared above the later one
    a, b = X.index("c00@15"), X.index("c06@16")
    assert X.coords[a, 0] < X.coords[b, 0] and not X.leq[a, b] and not X.leq[b, a]
    leq = X.leq.copy()
    leq[b, a] = True
    Y = cs.FiniteCausalSpace(X.labels, X.tau, leq, X.coords)
    # the index orders the whole space, so intervals without both points
    # are refused as well
    apart = 0
    for i, j in sample_pairs(Y, np.random.default_rng(4), 80):
        with pytest.raises(CausalityError):
            cs.longest_chain(Y, i, j)
        nodes = np.nonzero(Y.leq[i] & Y.leq[:, j])[0]
        apart += not (a in nodes and b in nodes)
    assert apart >= 40
    notes = {v.note for v in cs.validate_space(Y, AXIOM_TOL).violations}
    assert "leq is not transitive" in notes


def test_chain_index_orders_by_past_size_when_time_breaks_leq():
    X = seeded_net_space(3, "cos")
    Y = cs.FiniteCausalSpace(X.labels, X.tau, X.leq, -X.coords)
    Z = cs.FiniteCausalSpace(X.labels, X.tau, X.leq)
    past_order = np.lexsort((np.arange(X.size), X.leq.sum(axis=0)))
    for S in (Y, Z):
        assert np.array_equal(S._chain_index[0][past_order], np.arange(X.size))
    for i, j in sample_pairs(X, np.random.default_rng(6), 200):
        assert cs.longest_chain(Y, i, j) == cs.longest_chain(Z, i, j), (i, j)


def test_validate_and_render_do_not_build_the_chain_index():
    X = shuffled_cos_space()
    cs.validate_space(X, AXIOM_TOL)
    cli.render_space(X)
    assert "_chain_index" not in X.__dict__
    cs.longest_chain(X, *sample_pairs(X, np.random.default_rng(0), 1)[0])
    assert "_chain_index" in X.__dict__


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
def test_longest_chain_value_ignores_coords(seed, n):
    X = random_model_space(np.random.default_rng(seed), n)
    Y = cs.FiniteCausalSpace(X.labels, X.tau, X.leq)
    for a, b in strict_pairs(X):
        assert cs.longest_chain(Y, int(a), int(b)).value == cs.longest_chain(X, int(a), int(b)).value


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


def tied_realizer_space():
    """Three points with tau(a, c) one ulp above tau(a, b) + tau(b, c)."""
    tau = np.array([[0.0, 0.1, math.nextafter(0.1 + 0.2, 1.0)], [0.0, 0.0, 0.2], [0.0] * 3])
    return cs.FiniteCausalSpace(("a", "b", "c"), tau, np.triu(np.ones((3, 3), dtype=bool)))


def test_stale_check_forgives_the_drift_of_the_chain_walk():
    # the chain through b ties the direct pair within the collar, and its
    # summed value lands one ulp below tau(a, c): maximal at eps 0
    X = tied_realizer_space()
    chain = cs.longest_chain(X, 0, 2)
    assert chain.indices == (0, 1, 2)
    assert chain.value < X.tau[0, 2]
    cs._stale_check(X, (chain,), ((0, 2),), 0.0)
    # each of the two hops may fall a collar short
    collared = cs.Chain((0, 1, 2), (0.0, 0.1, float(X.tau[0, 2]) - 1.5 * cs.RECON_COLLAR))
    cs._stale_check(X, (collared,), ((0, 2),), 0.0)


def test_stale_check_forgives_the_rounding_of_the_walk():
    # at this scale an ulp outgrows the collar: the walk sums x..z as
    # (a + b1) + b2, an ulp below tau(x, z) = a + (b1 + b2)
    a, b1, b2 = (v * 2.0**20 for v in (0.51, 0.85, 0.19))
    tau = np.array([[0, a, a + b1, a + (b1 + b2)], [0, 0, b1, b1 + b2], [0, 0, 0, b2], [0.0] * 4])
    X = cs.FiniteCausalSpace(("x", "y", "q", "z"), tau, np.triu(np.ones((4, 4), dtype=bool)))
    chain = cs.longest_chain(X, 0, 3)
    assert chain.indices == (0, 1, 2, 3)
    assert X.tau[0, 3] - chain.value > 3 * cs.RECON_COLLAR
    cs._stale_check(X, (chain,), ((0, 3),), 0.0)


def test_audits_clamp_a_long_side_that_drifted_at_zero_eps():
    # x, y, q, z on one realizer: the walk sums the long side as
    # (0.51 + 0.85) + 0.19, an ulp below 0.51 + (0.85 + 0.19) of the two
    # short sides, so the clamp must forgive that drift at eps 0
    a, b1, b2 = 0.51, 0.85, 0.19
    tau = np.array([[0, a, a + b1, (a + b1) + b2], [0, 0, b1, b1 + b2], [0, 0, 0, b2], [0.0] * 4])
    X = cs.FiniteCausalSpace(("x", "y", "q", "z"), tau, np.triu(np.ones((4, 4), dtype=bool)))
    chains = (cs.longest_chain(X, 0, 1), cs.longest_chain(X, 1, 3), cs.longest_chain(X, 0, 3))
    assert chains[2].indices == (0, 1, 2, 3)
    assert chains[2].value < chains[0].value + chains[1].value
    clamped = "long side clamped from 1.5499999999999998 to 1.55"
    audit = cs.triangle_audit(X, (0, 1, 3), chains, 0.0)
    report = cs.check_triangle_comparisons(X, [audit], 0.0)[0]
    assert clamped in report.notes
    report = cs.check_subdivision(X, (0, 1, 3), chains, 2, "across", tol=0.0, eps=0.0)
    assert clamped in report.notes


def test_stale_check_rejects_a_chain_short_beyond_its_drift():
    X = tied_realizer_space()
    short = cs.Chain((0, 1, 2), (0.0, 0.1, float(X.tau[0, 2]) - 3 * cs.RECON_COLLAR))
    with pytest.raises(ChainError) as err:
        cs._stale_check(X, (short,), ((0, 2),), 0.0)
    assert str(err.value).endswith("is stale against tau = 0.3000000000000001 (eps = 0.0)")


# ---------------------------------------------------------------- triangles


def test_triangle_comparison_is_equality_on_model_sample():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(7)
    for verts in triangle_vertices(X, rng, 25):
        audit = cs.triangle_audit(X, verts, cli._side_chains(X, verts), GRID_TOL)
        rep = cs.check_triangle_comparisons(X, [audit], GRID_TOL)[0]
        assert rep.verdict
        assert rep.max_deficit < GRID_TOL
        assert rep.max_excess < GRID_TOL


def test_triangle_comparison_passes_on_suspension():
    X = suspension_space()
    rng = np.random.default_rng(8)
    for verts in triangle_vertices(X, rng, 25):
        audit = cs.triangle_audit(X, verts, cli._side_chains(X, verts), GRID_TOL)
        rep = cs.check_triangle_comparisons(X, [audit], GRID_TOL)[0]
        assert rep.verdict, rep.violations[:1]


def test_triangle_comparison_fails_on_constant_strip():
    X = flat_strip_space()
    rng = np.random.default_rng(3)
    tris = triangle_vertices(X, rng, 60)
    failing = 0
    for verts in tris:
        audit = cs.triangle_audit(X, verts, cli._side_chains(X, verts), GRID_TOL)
        rep = cs.check_triangle_comparisons(X, [audit], GRID_TOL)[0]
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
    full = cli._side_chains(X, verts)
    truncated = cs.Chain(
        indices=(i, k),
        params=(0.0, float(X.tau[i, k]) - 0.5),
    )
    chains = (full[0], full[1], truncated)
    with pytest.raises(ChainError):
        cs.check_triangle_comparisons(X, [cs.triangle_audit(X, verts, chains, GRID_TOL)], GRID_TOL)


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
        cs.check_triangle_comparisons(
            X, [cs.triangle_audit(X, (a, b, c), chains, GRID_TOL)], GRID_TOL
        )


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
        rep = cs.check_monotonicities(X, [cs.fan_audit(v, ca, cb)], GRID_TOL)
        assert rep.verdict, rep.violations[:1]


def test_monotonicity_fails_somewhere_on_constant_strip():
    X = flat_strip_space()
    rng = np.random.default_rng(6)
    failures = 0
    for _ in range(40):
        v, ca, cb = chain_pair_from(X, rng)
        rep = cs.check_monotonicities(X, [cs.fan_audit(v, ca, cb)], GRID_TOL)
        if not rep.verdict:
            failures += 1
    assert failures > 0


def test_monotonicity_requires_chains_from_vertex():
    X, _ = diamond_space(2.0, 11)
    rng = np.random.default_rng(5)
    v, ca, cb = chain_pair_from(X, rng)
    with pytest.raises(ParameterError):
        cs.check_monotonicities(X, [cs.fan_audit(ca.indices[1], ca, cb)], GRID_TOL)


def test_monotonicity_rejects_oversized_chains():
    tau = np.array([[0.0, 3.2], [0.0, 0.0]])
    leq = np.array([[True, True], [False, True]])
    X = cs.FiniteCausalSpace(("a", "b"), tau, leq)
    ch = cs.make_chain(X, (0, 1))
    with pytest.raises(SizeBoundError):
        cs.check_monotonicities(X, [cs.fan_audit(0, ch, ch)], GRID_TOL)


# ---------------------------------------------------------------- angles


def nearest_signed_angles(X, v, ca, cb, count=4):
    """(signed angle, sign) at v over the first count defined pairs of
    chain points, taken in order of the parameter sum s + t."""
    pairs = sorted(
        (s + t, s, t, a, b)
        for a, s in zip(ca.indices[1:], ca.params[1:])
        for b, t in zip(cb.indices[1:], cb.params[1:])
        if a != b
    )
    found = []
    for *_, a, b in pairs:
        try:
            found.append(_signed_angle_at(X, a, v, b))
        except GeometryError:
            continue
        if len(found) == count:
            break
    return found


def test_angle_estimate_matches_embedded_tangents_on_model_sample():
    # near the vertex the comparison angle of a model sample is the angle
    # between the geodesics that the chains follow
    X, pts = diamond_space(2.0, 11)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        v, ca, cb = chain_pair_from(X, rng, min_tau=0.5)
        found = nearest_signed_angles(X, v, ca, cb)
        if not found:
            continue
        pv = pts[v]
        ga, la, _ = ms.geodesic_through(pv, pts[ca.indices[-1]])
        gb, lb, _ = ms.geodesic_through(pv, pts[cb.indices[-1]])
        exact = ms.hyperbolic_angle(
            pv, ms.geodesic_tangent(ga, la), ms.geodesic_tangent(gb, lb)
        )
        angles = [abs(signed) for signed, _ in found]
        assert abs(angles[0] - exact) < GRID_TOL
        assert max(angles) - min(angles) < GRID_TOL
        assert found[0][1] == -1
        checked += 1


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
        chains = cli._side_chains(X, verts)
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


def ordered_space(labels, tau):
    """Points in index order, each related to every later one, with the
    forward separations of the upper triangle of tau."""
    n = len(labels)
    return cs.FiniteCausalSpace(labels, np.triu(tau, 1), np.triu(np.ones((n, n), dtype=bool)))


# x << y << z whose long side undershoots the detour through y by 0.1
UNDERSHOT = ordered_space("xyz", [[0, 1.0, 1.9], [0, 0, 1.0], [0, 0, 0]])
# x << p << y << z with p null below z
NULL_PZ = ordered_space("xpyz", [[0, 0.5, 1.0, 2.5], [0, 0, 0.5, 0], [0, 0, 0, 1.0], [0] * 4])


def made_chains(X, *paths):
    return tuple(cs.make_chain(X, path) for path in paths)


@pytest.mark.parametrize("call, error, message", [
    (lambda: cs.longest_chain(UNDERSHOT, 0, 3), ParameterError, "j = 3 out of range for 3 points"),
    (lambda: cs.triangle_audit(UNDERSHOT, (0, 1, 2), made_chains(
        UNDERSHOT, [0, 1], [1, 2], [0, 2]), GRID_TOL), ChainError, "side 1.9 undershoots 2.0"),
    (lambda: cs.triangle_audit(UNDERSHOT, (0, 1, 2), made_chains(
        UNDERSHOT, [1, 2], [0, 1], [0, 2]), GRID_TOL), ParameterError,
     r"chain endpoints 1\.\.2 do not match vertices \(0, 1\)"),
    (lambda: cs.check_subdivision(NULL_PZ, (0, 2, 3), made_chains(
        NULL_PZ, [0, 1, 2], [2, 3], [0, 3]), 1, "future", GRID_TOL), ParameterError,
     "p = 1 is not timelike below the opposite vertex 3"),
], ids=["index-out-of-range", "long-side-undershoots", "chain-ends", "future-p-not-below-z"])
def test_chain_and_audit_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------- size bound


def test_myers_passes_on_suspension():
    X = suspension_space()
    rep = cs.myers_check(X, AXIOM_TOL)
    assert rep.verdict and rep.violation_count == 0


def test_myers_passes_on_model_sample():
    X, _ = diamond_space(2.0, 11)
    rep = cs.myers_check(X, AXIOM_TOL)
    assert rep.verdict


def test_myers_fails_on_tall_constant_strip():
    X = flat_strip_space()
    rep = cs.myers_check(X, AXIOM_TOL)
    assert not rep.verdict
    assert rep.max_deficit > 0.5
    assert rep.violation_count > 0
    assert all(v.lhs > math.pi for v in rep.violations)


# ------------------------------------------------------- reference checkers
# The checkers and the CLI's report merge as they were before every audit
# kept its books in one cs._Tally.  Each report field, the capped records
# in their order, and every raised error must stay the same.


def reference_check_triangle_comparison(X, verts, chains, tol, eps=None):
    i, j, k = cs._check_triangle_inputs(X, verts, chains)
    c12, c23, c13 = chains
    if eps is None:
        eps = tol
    cs._stale_check(X, chains, ((i, j), (j, k), (i, k)), eps)
    a12, a23 = c12.value, c23.value
    tri, a13, clamp_note = cs._realize_clamped(a12, a23, c13.value, eps)
    notes = [clamp_note] if clamp_note else []
    for name, chain in (("12", c12), ("23", c23), ("13", c13)):
        if any(b - a <= 0.0 for a, b in zip(chain.params, chain.params[1:])):
            notes.append(f"chain {name} contains a null step (suspect realizer)")

    scale13 = a13 / c13.value
    mapped = {}
    for side, chain, scale in (("12", c12, 1.0), ("23", c23, 1.0), ("13", c13, scale13)):
        for idx, s in zip(chain.indices, chain.params):
            if idx not in mapped:
                mapped[idx] = ms.comparison_point(tri, side, s * scale)
    items = sorted(mapped.items())

    records = []
    count = 0
    checked = 0
    max_deficit = 0.0
    max_excess = 0.0
    excess_count = 0
    for u, pu in items:
        for v, pv in items:
            if u == v:
                continue
            checked += 1
            lhs = float(X.tau[u, v])
            res = ms.ads_interval(pu, pv)
            rhs = res.tau if res.relation in (ms.TIMELIKE, ms.NULL) else 0.0
            deficit = lhs - rhs
            if deficit > max_deficit:
                max_deficit = deficit
            if deficit > tol:
                count += 1
                if len(records) < cs.VIOLATION_CAP:
                    records.append(
                        cs.Violation((u, v), lhs, rhs, deficit, "tau exceeds comparison tau")
                    )
            excess = rhs - lhs
            if excess > max_excess:
                max_excess = excess
            if excess > tol:
                excess_count += 1

    return cs.ComparisonReport(
        checked=checked,
        violations=tuple(records[: cs.VIOLATION_CAP]),
        violation_count=count,
        max_deficit=max_deficit,
        verdict=max_deficit <= tol,
        max_excess=max_excess,
        excess_count=excess_count,
        notes=tuple(notes),
    )


def _signed_angle_at(X, a: int, x: int, b: int):
    """Signed comparison angle at x of the triangle (a, x, b) from matrix
    taus; raises UndefinedAngleError when the domain is empty.  One grid
    cell of check_monotonicities in scalar form, as the reference audit
    of the tests computes it."""
    omega, sigma = ms.comparison_angle(
        float(X.tau[a, x]), float(X.tau[x, a]),
        float(X.tau[x, b]), float(X.tau[b, x]),
        float(X.tau[a, b]), float(X.tau[b, a]),
    )
    return sigma * omega, sigma


def reference_check_monotonicity(X, vertex, alpha, beta, tol):
    vertex = int(vertex)
    if alpha.indices[0] != vertex or beta.indices[0] != vertex:
        raise ParameterError("both chains must start at the vertex")
    for chain in (alpha, beta):
        if not chain.value < math.pi:
            raise SizeBoundError("chain length reaches the size bound pi")
    arows = alpha.indices[1:]
    brows = beta.indices[1:]
    grid = np.full((len(arows), len(brows)), np.nan)
    skipped = 0
    for ia, a in enumerate(arows):
        for ib, b in enumerate(brows):
            if a == b:
                skipped += 1
                continue
            try:
                grid[ia, ib] = _signed_angle_at(X, a, vertex, b)[0]
            except GeometryError:
                skipped += 1

    records = []
    count = 0
    checked = 0
    max_deficit = 0.0

    def sweep(values, tag, fixed):
        nonlocal count, checked, max_deficit
        defined = [(p, v) for p, v in enumerate(values) if not math.isnan(v)]
        for (p0, v0), (p1, v1) in zip(defined, defined[1:]):
            drop = v0 - v1
            checked += 1
            if drop > max_deficit:
                max_deficit = drop
            if drop > tol:
                count += 1
                if len(records) < cs.VIOLATION_CAP:
                    records.append(
                        cs.Violation(
                            (tag, fixed, p0, p1), v0, v1, drop,
                            "signed comparison angle decreases along the chain",
                        )
                    )

    for ia in range(len(arows)):
        sweep(grid[ia, :], "row", ia)
    for ib in range(len(brows)):
        sweep(grid[:, ib], "col", ib)

    return cs.ComparisonReport(
        checked=checked,
        violations=tuple(records[: cs.VIOLATION_CAP]),
        violation_count=count,
        max_deficit=max_deficit,
        verdict=max_deficit <= tol,
        skipped=skipped,
    )


def _realized_angles(tri) -> dict:
    """Unsigned hyperbolic angles of a realized triangle at its vertices."""
    spec = {
        1: (tri.x1, ("12", True), ("13", True)),
        2: (tri.x2, ("12", False), ("23", True)),
        3: (tri.x3, ("23", False), ("13", False)),
    }
    out = {}
    for vertex, (p, (sa, fa), (sb, fb)) in spec.items():
        out[vertex] = ms.hyperbolic_angle(
            p, _side_tangent(tri, sa, fa), _side_tangent(tri, sb, fb)
        )
    return out


def _side_tangent(tri, side: str, at_start: bool):
    g, la, lb = tri.sides[side]
    if at_start:
        return ms.geodesic_tangent(g, la)
    dt, dx = ms.geodesic_tangent(g, lb)
    return (-dt, -dx)


def _segment_angles(p: "ms.AdsPrimePoint", q: "ms.AdsPrimePoint"):
    """Directed tangents of the geodesic segment p -> q at both ends,
    oriented away from each endpoint; requires a timelike forward pair."""
    g, la, lb = ms.geodesic_through(p, q)
    u_p = ms.geodesic_tangent(g, la)
    dt, dx = ms.geodesic_tangent(g, lb)
    return u_p, (-dt, -dx)


def loc_angles(a12, a23, a13):
    """Angles at x1, x2, x3 of the model triangle x1 << x2 << x3 with
    sides a12, a23 and a13, from the timelike law of cosines: the
    ms.loc_angle calls of cs._angles, with the same arguments."""
    return {
        1: ms.loc_angle(a12, a13, a23, -1),
        2: ms.loc_angle(a12, a23, a13, 1),
        3: ms.loc_angle(a23, a13, a12, -1),
    }


def reference_check_subdivision(X, verts, chains, p, which, tol, eps=None):
    if which not in ("across", "future"):
        raise ParameterError(f'which must be "across" or "future", got {which!r}')
    i, j, k = cs._check_triangle_inputs(X, verts, chains)
    c12, c23, c13 = chains
    if eps is None:
        eps = tol
    cs._stale_check(X, chains, ((i, j), (j, k), (i, k)), eps)
    p = int(p)
    host = c13 if which == "across" else c12
    if p not in host.indices[1:-1]:
        raise ParameterError(
            f"p = {p} is not an interior point of the side chain {host.indices}"
        )
    s_p = host.params[host.indices.index(p)]

    records = []
    count = 0
    checked = 0
    skipped = 0
    max_deficit = 0.0
    notes = []

    def compare(label, lhs, rhs, kind):
        # kind "ge": expect lhs >= rhs - tol; "le": expect lhs <= rhs + tol
        nonlocal count, checked, max_deficit
        checked += 1
        deficit = (rhs - lhs) if kind == "ge" else (lhs - rhs)
        if deficit > max_deficit:
            max_deficit = deficit
        if deficit > tol:
            count += 1
            if len(records) < cs.VIOLATION_CAP:
                records.append(
                    cs.Violation(label, lhs, rhs, deficit, f"expected {kind} within tol")
                )

    whole, a13w, clamp_note = cs._realize_clamped(c12.value, c23.value, c13.value, eps)
    if clamp_note:
        notes.append(clamp_note)
    whole_angles = loc_angles(c12.value, c23.value, a13w)

    if which == "across":
        up = X.tau[p, j] > 0.0
        down = X.tau[j, p] > 0.0
        if not (up or down):
            raise ParameterError(
                f"p = {p} and the middle vertex {j} are not timelike related"
            )
        conn = cs.longest_chain(X, p, j) if up else cs.longest_chain(X, j, p)
        c_py = conn.value
        a_xp, a_pz = s_p, c13.value - s_p
        if up:
            _, a1, n1 = cs._realize_clamped(a_xp, c_py, c12.value, eps)
            _, a2, n2 = cs._realize_clamped(c_py, c23.value, a_pz, eps)
            ang1, ang2 = loc_angles(a_xp, c_py, a1), loc_angles(c_py, c23.value, a2)
            angle_p_xy, angle_p_yz = ang1[2], ang2[1]
            angle_y_sum = ang1[3] + ang2[2]
            sub1 = (("x", 1, ang1[1]), ("p", 2, ang1[2]), ("y", 3, ang1[3]))
            sub2 = (("p", 1, ang2[1]), ("y", 2, ang2[2]), ("z", 3, ang2[3]))
        else:
            _, a1, n1 = cs._realize_clamped(c12.value, c_py, a_xp, eps)
            _, a2, n2 = cs._realize_clamped(c_py, a_pz, c23.value, eps)
            ang1, ang2 = loc_angles(c12.value, c_py, a1), loc_angles(c_py, a_pz, a2)
            angle_p_xy, angle_p_yz = ang1[3], ang2[2]
            angle_y_sum = ang1[2] + ang2[1]
            sub1 = (("x", 1, ang1[1]), ("y", 2, ang1[2]), ("p", 3, ang1[3]))
            sub2 = (("y", 1, ang2[1]), ("p", 2, ang2[2]), ("z", 3, ang2[3]))
        for n in (n1, n2):
            if n:
                notes.append(n)

        u = s_p * (a13w / c13.value)
        # p_bar = (sin(a13w - u) x_bar + sin(u) z_bar) / sin(a13w) on the quadric
        arg = (math.sin(a13w - u) * math.cos(c12.value)
               + math.sin(u) * math.cos(c23.value)) / math.sin(a13w)
        res = ms._classify(arg, up == (u < c12.value))
        tau_py = float(X.tau[p, j] if up else X.tau[j, p])
        if res.relation != ms.TIMELIKE:
            notes.append("comparison segment p-y is degenerate; angle audit skipped")
            skipped += 1
            tau_bar = res.tau
            tilde = None
        else:
            tau_bar = res.tau
            # the pieces that the segment p-y cuts from the whole triangle
            if up:
                t1 = loc_angles(u, tau_bar, c12.value)
                t2 = loc_angles(tau_bar, c23.value, a13w - u)
                tilde = {
                    "sub1": {"x": t1[1], "p": t1[2], "y": t1[3]},
                    "sub2": {"p": t2[1], "y": t2[2], "z": t2[3]},
                }
            else:
                t1 = loc_angles(c12.value, tau_bar, u)
                t2 = loc_angles(tau_bar, a13w - u, c23.value)
                tilde = {
                    "sub1": {"x": t1[1], "y": t1[2], "p": t1[3]},
                    "sub2": {"y": t2[1], "p": t2[2], "z": t2[3]},
                }

        # When the opposite vertex lies below p, time reversal exchanges the
        # outer vertices, so the angle ordering that certifies convexity flips.
        diff_angle = (angle_p_xy - angle_p_yz) if up else (angle_p_yz - angle_p_xy)
        diff_tau = tau_bar - tau_py
        checked += 1
        if (diff_angle > tol and diff_tau < -tol) or (diff_angle < -tol and diff_tau > tol):
            gap = min(abs(diff_angle), abs(diff_tau))
            count += 1
            if gap > max_deficit:
                max_deficit = gap
            records.append(
                cs.Violation(("classification",), diff_angle, diff_tau, gap,
                          "angle ordering contradicts the tau comparison")
            )
        shape = "convex" if diff_tau >= -tol else "concave"
        if abs(diff_tau) <= tol and abs(diff_angle) <= tol:
            shape = "degenerate"
        notes.append(f"classified {shape} (angle gap {diff_angle!r}, tau gap {diff_tau!r})")

        if tilde is not None:
            kind = "ge" if diff_tau >= -tol else "le"
            for name, triple in (("sub1", sub1), ("sub2", sub2)):
                for label, _, bar_angle in triple:
                    compare(
                        ("angle", name, label), bar_angle, tilde[name][label], kind
                    )
            if shape == "degenerate":
                for name, triple in (("sub1", sub1), ("sub2", sub2)):
                    for label, _, bar_angle in triple:
                        compare(
                            ("angle-rev", name, label), bar_angle, tilde[name][label],
                            "le" if kind == "ge" else "ge",
                        )
        compare(("vertex", "y"), angle_y_sum, whole_angles[2], "ge")

    else:
        if not X.tau[p, k] > 0.0:
            raise ParameterError(
                f"p = {p} is not timelike below the opposite vertex {k}"
            )
        conn = cs.longest_chain(X, p, k)
        c_pz = conn.value
        a_xp, a_py = s_p, c12.value - s_p
        _, a1, n1 = cs._realize_clamped(a_xp, c_pz, c13.value, eps)
        _, a2, n2 = cs._realize_clamped(a_py, c23.value, c_pz, eps)
        for n in (n1, n2):
            if n:
                notes.append(n)
        ang1, ang2 = loc_angles(a_xp, c_pz, a1), loc_angles(a_py, c23.value, a2)
        angle_p_xz, angle_p_yz = ang1[2], ang2[1]
        angle_z_sum = ang1[3] + ang2[3]
        sub1 = (("x", 1, ang1[1]), ("p", 2, ang1[2]), ("z", 3, ang1[3]))
        sub2 = (("p", 1, ang2[1]), ("y", 2, ang2[2]), ("z", 3, ang2[3]))

        # p_bar = (sin(c12 - s_p) x_bar + sin(s_p) y_bar) / sin(c12) on the quadric
        arg = (math.sin(c12.value - s_p) * math.cos(a13w)
               + math.sin(s_p) * math.cos(c23.value)) / math.sin(c12.value)
        res = ms._classify(arg, s_p < a13w)
        tau_pz = float(X.tau[p, k])
        if res.relation != ms.TIMELIKE:
            notes.append("comparison segment p-z is degenerate; angle audit skipped")
            skipped += 1
            tau_bar = res.tau
            tilde = None
        else:
            tau_bar = res.tau
            # the pieces that the segment p-z cuts from the whole triangle
            t1, t2 = loc_angles(s_p, tau_bar, a13w), loc_angles(a_py, c23.value, tau_bar)
            tilde = {
                "sub1": {"x": t1[1], "p": t1[2], "z": t1[3]},
                "sub2": {"p": t2[1], "y": t2[2], "z": t2[3]},
            }

        diff_angle = angle_p_xz - angle_p_yz
        diff_tau = tau_bar - tau_pz
        checked += 1
        if (diff_angle > tol and diff_tau < -tol) or (diff_angle < -tol and diff_tau > tol):
            gap = min(abs(diff_angle), abs(diff_tau))
            count += 1
            if gap > max_deficit:
                max_deficit = gap
            records.append(
                cs.Violation(("classification",), diff_angle, diff_tau, gap,
                          "angle ordering contradicts the tau comparison")
            )
        shape = "convex" if diff_tau >= -tol else "concave"
        if abs(diff_tau) <= tol and abs(diff_angle) <= tol:
            shape = "degenerate"
        notes.append(f"classified {shape} (angle gap {diff_angle!r}, tau gap {diff_tau!r})")

        if tilde is not None:
            kind1 = "ge" if diff_tau >= -tol else "le"
            kind2 = "le" if kind1 == "ge" else "ge"
            for name, triple, kind in (("sub1", sub1, kind1), ("sub2", sub2, kind2)):
                for label, _, bar_angle in triple:
                    compare(("angle", name, label), bar_angle, tilde[name][label], kind)
            if shape == "degenerate":
                for name, triple, kind in (("sub1", sub1, kind2), ("sub2", sub2, kind1)):
                    for label, _, bar_angle in triple:
                        compare(("angle-rev", name, label), bar_angle, tilde[name][label], kind)
        compare(("vertex", "z"), angle_z_sum, whole_angles[3], "le")

    return cs.ComparisonReport(
        checked=checked,
        violations=tuple(records[: cs.VIOLATION_CAP]),
        violation_count=count,
        max_deficit=max_deficit,
        verdict=max_deficit <= tol,
        skipped=skipped,
        notes=tuple(notes),
    )


def reference_myers_check(X, tol=1e-9):
    tau = X.tau
    finite = np.isfinite(tau)
    listed = finite & (tau > math.pi - tol)
    records = []
    count = 0
    max_deficit = -math.inf
    for i, j in zip(*np.nonzero(listed)):
        value = float(tau[i, j])
        count += 1
        max_deficit = max(max_deficit, value - math.pi)
        if len(records) < cs.VIOLATION_CAP:
            records.append(
                cs.Violation((int(i), int(j)), value, math.pi, value - math.pi,
                          "finite time separation near or above the diameter bound")
            )
    if count == 0:
        max_deficit = float(np.max(tau[finite]) - math.pi) if finite.any() else -math.pi
        return cs.ComparisonReport(
            checked=int(finite.sum()), violations=(), violation_count=0,
            max_deficit=max_deficit, verdict=True,
        )
    return cs.ComparisonReport(
        checked=int(finite.sum()),
        violations=tuple(records[: cs.VIOLATION_CAP]),
        violation_count=count,
        max_deficit=max_deficit,
        verdict=max_deficit <= tol,
    )


def reference_merge_reports(reports):
    violations = []
    for rep in reports:
        if len(violations) < cs.VIOLATION_CAP:
            violations.extend(rep.violations[: cs.VIOLATION_CAP - len(violations)])
    return cs.ComparisonReport(
        checked=sum(r.checked for r in reports),
        violations=tuple(violations),
        violation_count=sum(r.violation_count for r in reports),
        max_deficit=max((r.max_deficit for r in reports), default=0.0),
        verdict=all(r.verdict for r in reports),
        max_excess=max((r.max_excess for r in reports), default=0.0),
        excess_count=sum(r.excess_count for r in reports),
        skipped=sum(r.skipped for r in reports),
    )


def outcome(check, *args):
    """The report of a check, or the type and message of what it raised."""
    try:
        return check(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


AUDIT_SPACES = {
    "model-diamond": lambda: diamond_space(2.0, 11)[0],
    "cos21": lambda: seeded_net_space(3, "cos"),
    "flat21": lambda: seeded_net_space(4, "flat"),
}


def audit_triangles(space, count=15):
    X = AUDIT_SPACES[space]()
    verts = triangle_vertices(X, np.random.default_rng(11), count, min_tau=0.6)
    if space == "flat21":
        # one fiber from the first level to the last: 3.9 is too long to realize
        verts.append((0, 120, 240))
    return X, [(v, cli._side_chains(X, v)) for v in verts]


def test_triangle_and_monotonicity_match_reference():
    # tol -1 makes nearly every comparison a violation, which runs the
    # record lists into the cap
    seen = set()
    for space in AUDIT_SPACES:
        X, cases = audit_triangles(space)
        for verts, chains in cases:
            for tol in (GRID_TOL, -1.0):
                new = outcome(lambda: cs.check_triangle_comparisons(
                    X, [cs.triangle_audit(X, verts, chains, GRID_TOL)], tol
                )[0])
                assert new == outcome(
                    reference_check_triangle_comparison, X, verts, chains, tol, GRID_TOL
                )
                fan = (verts[0], chains[0], chains[2])
                mono = outcome(lambda: cs.check_monotonicities(X, [cs.fan_audit(*fan)], tol))
                assert mono == outcome(reference_check_monotonicity, X, *fan, tol)
                for rep in (new, mono):
                    if isinstance(rep, cs.ComparisonReport):
                        seen.add("pass" if rep.verdict else "fail")
                        if len(rep.violations) == cs.VIOLATION_CAP < rep.violation_count:
                            seen.add("capped")
                    else:
                        seen.add("raise")
    assert seen == {"pass", "fail", "capped", "raise"}


def subdivision_shape(rep):
    if not isinstance(rep, cs.ComparisonReport):
        return {"raise"}
    shape = {"pass" if rep.verdict else "fail"}
    shape |= {word for word in ("degenerate;", "classified degenerate") if any(
        word in note for note in rep.notes)}
    return shape


def test_subdivision_matches_reference():
    seen = set()
    for space in AUDIT_SPACES:
        X, cases = audit_triangles(space)
        for verts, chains in cases:
            for which in ("across", "future"):
                host = chains[2] if which == "across" else chains[0]
                for p, tol in itertools.product(host.indices[1:-1], (GRID_TOL, 0.1)):
                    args = (X, verts, chains, p, which, tol)
                    rep = outcome(cs.check_subdivision, *args)
                    assert rep == outcome(reference_check_subdivision, *args)
                    if which == "across" and isinstance(rep, cs.ComparisonReport):
                        seen.add("p below y" if X.tau[p, verts[1]] > 0.0 else "y below p")
                    seen |= subdivision_shape(rep)
    assert seen == {
        "pass", "fail", "raise", "degenerate;", "classified degenerate",
        "p below y", "y below p",
    }


# hyperbolic_angle takes arcosh of the tangents' inner product, and
# loc_angle of the law of cosines' cosh(omega); the angles are compared
# as those two values, before arcosh near 1 halves the digits of a small
# angle.  Measured: at most 3.6e-12 relative on the realized triangles
# below, the largest where the long side nears pi, and 3.6e-13 on 30,000
# drawn as in the Hypothesis test, and 2.1e-12 on the angles of the
# pieces that subdivisions cut.  As angles: 1.5e-12 relative on the
# realized triangles, 4.5e-8 on drawn ones above 1e-3, where the law of
# cosines is within 7e-13 of a 50-digit evaluation, so the gap is the
# error of the tangents.
COSH_REL = 1e-11


def angles_agree(a, b):
    return abs(math.cosh(a) - math.cosh(b)) <= COSH_REL * math.cosh(a)


def assert_angles_match_tangents(sides, tri):
    for lc, tg in zip(cs._angles("123", *sides).values(), _realized_angles(tri).values()):
        assert angles_agree(lc, tg), (sides, lc, tg)


def test_subdivision_angles_match_the_tangent_oracle(monkeypatch):
    # every triangle that the subdivision audits of AUDIT_SPACES realize:
    # each whole comparison triangle and each sub-triangle of chain values
    realized = []
    realize = cs._realize_clamped

    def recorded(a12, a23, a13, budget):
        tri, a13, note = realize(a12, a23, a13, budget)
        realized.append(((a12, a23, a13), tri))
        return tri, a13, note

    cases = [
        (X, verts, chains, p, which)
        for X, triangles in map(audit_triangles, AUDIT_SPACES)
        for verts, chains in triangles
        for which in ("across", "future")
        for p in (chains[2] if which == "across" else chains[0]).indices[1:-1]
    ]
    with monkeypatch.context() as mp:
        mp.setattr(cs, "_realize_clamped", recorded)
        for case in cases:
            outcome(reference_check_subdivision, *case, GRID_TOL)
    assert len(realized) > 300
    for sides, tri in realized:
        assert_angles_match_tangents(sides, tri)
    # at tol -inf every comparison is a recorded violation, and the rhs of
    # each ("angle", piece, vertex) record is an angle of a piece
    cut = 0
    for case in cases:
        rep = outcome(cs.check_subdivision, *case, -math.inf, GRID_TOL)
        if isinstance(rep, cs.ComparisonReport) and not rep.skipped:
            pieces = {v.pair[1:]: v.rhs for v in rep.violations if v.pair[0] == "angle"}
            tangents = tangent_piece_angles(*case)
            assert pieces.keys() == tangents.keys()
            for key, angle in pieces.items():
                assert angles_agree(angle, tangents[key]), (case, key)
            # p lies on a geodesic side of the whole comparison triangle,
            # so the two pieces meet at p in one angle (measured: cosh
            # within 2.9e-15 relative)
            assert angles_agree(pieces["sub1", "p"], pieces["sub2", "p"]), case
            cut += 1
    assert cut > 80


def tangent_piece_angles(X, verts, chains, p, which):
    """{(piece, vertex): angle} of the two pieces that the comparison
    segment from p to q cuts from the whole comparison triangle, by the
    tangent oracle: at x and at the end e of the host side the angles of
    the whole triangle, at p and q those between the segment and the
    sides of the whole."""
    c12, c23, c13 = chains
    whole, a13w, _ = cs._realize_clamped(c12.value, c23.value, c13.value, GRID_TOL)
    at = _realized_angles(whole)
    if which == "across":
        host, host_side, scale, q_t = c13, "13", a13w / c13.value, whole.x2
        (q_name, e_name), e, up = "yz", 3, X.tau[p, verts[1]] > 0.0
        q_sides = (("12", False), ("23", True))
    else:
        host, host_side, scale, q_t = c12, "12", 1.0, whole.x3
        (q_name, e_name), e, up = "zy", 2, True
        q_sides = (("13", False), ("23", False))
    g, la, _ = whole.sides[host_side]
    lam = la + host.params[host.indices.index(p)] * scale
    p_t = ms.geodesic_point(g, lam)
    # fwd points away from p_t, bwd away from q_t
    fwd, bwd = _segment_angles(p_t, q_t) if up else _segment_angles(q_t, p_t)[::-1]
    at_p = ms.hyperbolic_angle(p_t, ms.geodesic_tangent(g, lam), fwd)
    at_q = [ms.hyperbolic_angle(q_t, _side_tangent(whole, *side), bwd) for side in q_sides]
    return {
        ("sub1", "x"): at[1], ("sub1", "p"): at_p, ("sub1", q_name): at_q[0],
        ("sub2", "p"): at_p, ("sub2", q_name): at_q[1], ("sub2", e_name): at[e],
    }


@settings(max_examples=200, deadline=None)
@given(
    a12=st.floats(0.05, 1.25),
    a23=st.floats(0.05, 1.25),
    extra=st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 0.5)),
)
def test_law_of_cosines_angles_match_the_tangent_oracle(a12, a23, extra):
    sides = (a12, a23, a12 + a23 + extra)
    assert_angles_match_tangents(sides, ms.realize_triangle(*sides))


# The comparison segment of a subdivision by the closed form of
# cs._cut_interval and by the realized whole triangle, with p at arc u
# along the host side and up taking the pair from p.  Measured: tau
# within 7.5e-16 on the 144 cuts of AUDIT_SPACES whose whole triangle
# realizes and 2.1e-12 on 200,000 drawn as in the Hypothesis test below;
# the relations differ on one cut, on the cone band (see cut_class).
CUT_TAU = 1e-11


def assert_cut_matches_realized(sides, which, u, up):
    a12, a23, a13 = sides
    whole = ms.realize_triangle(*sides)
    (side, q_t), host, d = ((("13", whole.x2), a13, a12) if which == "across"
                            else (("12", whole.x3), a12, a13))
    g, la, _ = whole.sides[side]
    p_t = ms.geodesic_point(g, la + u)
    realized = ms.ads_interval(p_t, q_t) if up else ms.ads_interval(q_t, p_t)
    closed = cs._cut_interval(host, u, d, a23, up)
    assert cut_class(closed) == cut_class(realized), (sides, which, u, up)
    assert abs(closed.tau - realized.tau) <= CUT_TAU, (sides, which, u, up)
    return cut_class(closed)


def cut_class(res):
    """The relation, with null and past-directed one class on the cone
    band: there both have tau 0 and the audit skips the cut, and p at the
    point q of a degenerate whole triangle takes its direction from the
    rounding of the realized times."""
    return "cone" if res.relation != ms.UNRELATED and res.tau == 0.0 else res.relation


def test_cut_interval_matches_the_realized_triangle(monkeypatch):
    cases = [
        (X, verts, chains, p, which)
        for X, triangles in map(audit_triangles, AUDIT_SPACES)
        for verts, chains in triangles
        for which in ("across", "future")
        for p in (chains[2] if which == "across" else chains[0]).indices[1:-1]
    ]

    def refuse(*args):
        raise AssertionError("check_subdivision realized geometry")

    # the audit itself reads side lengths only
    with monkeypatch.context() as mp:
        for module, name in ((ms, "realize_triangle"), (ms, "geodesic_point"),
                             (ms, "ads_interval"), (cs, "_realize_clamped")):
            mp.setattr(module, name, refuse)
        for case in cases:
            outcome(cs.check_subdivision, *case, GRID_TOL)
    seen = set()
    for X, (_, j, _), (c12, c23, c13), p, which in cases:
        try:
            a13w, _ = cs._clamp(c12.value, c23.value, c13.value, GRID_TOL + cs._drift(c13))
            sides = (c12.value, c23.value, a13w)
            ms.realize_triangle(*sides)
        except GeometryError:
            continue
        if which == "across":
            host, up = c13, X.tau[p, j] > 0.0
            u = host.params[host.indices.index(p)] * (a13w / c13.value)
        else:
            host, up = c12, True
            u = host.params[host.indices.index(p)]
        seen.add((which, bool(up), assert_cut_matches_realized(sides, which, u, up)))
    assert {("across", True, ms.TIMELIKE), ("across", False, ms.TIMELIKE),
            ("future", True, ms.TIMELIKE)} <= seen


@settings(max_examples=200, deadline=None)
@given(
    a12=st.floats(0.05, 1.25),
    a23=st.floats(0.05, 1.25),
    extra=st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 0.5)),
    at=st.floats(0.0, 1.0),
    which=st.sampled_from(["across", "future"]),
    up=st.booleans(),
)
def test_cut_interval_matches_the_realized_triangle_on_drawn_sides(a12, a23, extra, at, which, up):
    sides = (a12, a23, a12 + a23 + extra)
    host = sides[2] if which == "across" else a12
    assert_cut_matches_realized(sides, which, at * host, up)


def near_diameter_space():
    """Model sample with one entry just under pi and one just over it:
    the first is a watch record that passes, the second fails."""
    X, _ = diamond_space(2.0, 5)
    tau = X.tau.copy()
    a, b = strict_pairs(X)[:2]
    tau[tuple(a)] = math.pi - 1e-10
    tau[tuple(b)] = math.pi + 1e-3
    return cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords)


MYERS_SPACES = {
    **AUDIT_SPACES,
    "near-diameter": near_diameter_space,
    "tall-flat-strip": lambda: flat_strip_space(24, 41),
}


@pytest.mark.parametrize("space", MYERS_SPACES)
@pytest.mark.parametrize("tol", [1e-9, 0.0, 1e-2])
def test_myers_matches_reference(space, tol):
    X = MYERS_SPACES[space]()
    assert cs.myers_check(X, tol) == reference_myers_check(X, tol)


def test_myers_keeps_passing_watch_records():
    X = near_diameter_space()
    rep = cs.myers_check(X, tol=1e-9)
    assert rep.violation_count == 2 and not rep.verdict
    assert cs.myers_check(X, tol=1e-2).verdict
    assert cs.myers_check(flat_strip_space(24, 41), AXIOM_TOL).violation_count > cs.VIOLATION_CAP


def test_merge_reports_matches_reference():
    X, cases = audit_triangles("flat21", count=30)
    reports = []
    for verts, chains in cases:
        try:
            triangle = cs.triangle_audit(X, verts, chains, GRID_TOL)
            fan = cs.fan_audit(verts[0], chains[0], chains[2])
            reports.append(cs.check_triangle_comparisons(X, [triangle], GRID_TOL)[0])
            reports.append(cs.check_monotonicities(X, [fan], GRID_TOL))
        except GeometryError:
            continue
    assert sum(r.violation_count for r in reports) > cs.VIOLATION_CAP
    assert not all(r.verdict for r in reports)
    for part in ([], reports[:1], reports[:5], reports):
        assert cs.merge_reports(part) == reference_merge_reports(part)


# ---------------------------------------------------------- batched audits
# curvature runs every check that can raise sample by sample, then the
# comparisons of a block of triangles in one batch; the report of a block
# must be the merge of the one-item reports of its triangles, and the
# error raised that of a sweep of one-item audits.


def merged(reports):
    """cs.merge_reports of one-item reports with their notes kept in
    order: the report of one block of their triangles."""
    reports = list(reports)
    notes = tuple(itertools.chain.from_iterable(r.notes for r in reports))
    return dataclasses.replace(cs.merge_reports(reports), notes=notes)


def test_batched_audits_match_one_item_calls():
    for space in AUDIT_SPACES:
        X, cases = audit_triangles(space)
        for tol in (GRID_TOL, -1.0):
            triangles, fans, expected = [], [], []
            for verts, chains in cases:
                try:
                    triangles.append(cs.triangle_audit(X, verts, chains, GRID_TOL))
                except GeometryError:
                    continue
                fans.append(cs.fan_audit(verts[0], chains[0], chains[2]))
                expected.append((
                    cs.check_triangle_comparisons(X, triangles[-1:], tol)[0],
                    cs.check_monotonicities(X, fans[-1:], tol),
                ))
            assert cs.check_triangle_comparisons(X, triangles, tol) == (
                merged(e[0] for e in expected),
                sum(e[0].violation_count > 0 for e in expected),
            )
            assert cs.check_monotonicities(X, fans, tol) == merged(e[1] for e in expected)


def test_batched_audits_accept_an_empty_block():
    X = AUDIT_SPACES["cos21"]()
    report, violated = cs.check_triangle_comparisons(X, [], GRID_TOL)
    for report in (report, cs.check_monotonicities(X, [], GRID_TOL)):
        assert report.verdict is True
        assert report.checked == report.violation_count == report.skipped == 0
    assert violated == 0


def test_batched_monotonicity_skips_the_cells_of_a_fan_without_angles():
    X, cases = audit_triangles("cos21")
    fans = [cs.fan_audit(v[0], c[0], c[2]) for v, c in cases]
    others = merged(cs.check_monotonicities(X, [f], GRID_TOL) for f in fans)
    assert others.checked > 0
    # two grids without an angle: one hop twice (a == b), and from point
    # 19 the chain 30 -> 41 against point 31, spacelike to both
    vertex, chain, lone = 19, (30, 41), 31
    assert not (X.leq[chain, lone] | X.leq[lone, chain]).any()
    hop = cs.make_chain(X, (vertex, lone))
    empties = [
        cs.fan_audit(vertex, hop, hop),
        cs.fan_audit(vertex, cs.make_chain(X, (vertex, *chain)), hop),
    ]
    for empty in empties:
        assert cs.check_monotonicities(X, [empty], GRID_TOL) == cs.ComparisonReport(
            checked=0, violations=(), violation_count=0, max_deficit=0.0, verdict=True,
            skipped=empty.cells,
        )
        for at in (0, 7, len(fans)):
            report = cs.check_monotonicities(X, fans[:at] + [empty] + fans[at:], GRID_TOL)
            assert report == dataclasses.replace(others, skipped=others.skipped + empty.cells)


SWEEP_SPACES = ("ads_diamond_81.json", "suspension_circle12.json", "flat_strip.json", "cos41")

SPOILS = ("plain", "stale", "long", "undefined", "vertex")


@functools.lru_cache(maxsize=None)
def sweep_space(name):
    """A fixture space as curvature materializes it, or a 492-point cos space."""
    if name == "cos41":
        return seeded_net_space(3, "cos", 41)
    raw = (Path(__file__).resolve().parents[1] / "fixtures" / name).read_bytes()
    options = cli._build_parser().parse_args(["curvature", "--in", name])
    return cli._materialize(cli.parse_space_file(raw), options)


def spoiled_chains(X, verts, spoil):
    """(triangle chains, fan chains) of a drawn triangle.  "stale" cuts the
    first side's value to a tenth (ChainError), "long" stretches the long
    side to 3.5 (SizeBoundError, or ChainError when the other two sides are
    longer), "undefined" gives the fan one hop to the middle vertex twice
    (a grid without an angle, whose cell is skipped), and "vertex" a fan
    from the middle vertex (ParameterError)."""
    c12, c23, c13 = cli._side_chains(X, verts)
    if spoil == "stale":
        c12 = cs.Chain(c12.indices, tuple(0.1 * s for s in c12.params))
    elif spoil == "long":
        c13 = cs.Chain(c13.indices, tuple(3.5 / c13.value * s for s in c13.params))
    fan = (c12, c13)
    if spoil == "undefined":
        hop = cs.make_chain(X, verts[:2])
        fan = (hop, hop)
    elif spoil == "vertex":
        fan = (c23, c13)
    return (c12, c23, c13), fan


def scripted_sample(spoils):
    """cli._curvature_sample with the chains spoiled as spoils[k] says for
    the k-th sample."""
    index = itertools.count()

    def sample(X, rng, tol):
        spoil = spoils.get(next(index), "plain")
        verts = cli._draw_triangle(X, rng, tol)
        if verts is None:
            return None
        chains, fan = spoiled_chains(X, verts, spoil)
        triangle = cs.triangle_audit(X, verts, chains, tol)
        fan = cs.fan_audit(verts[0], *fan)
        return triangle.cells + fan.cells, (triangle, fan)

    return sample


# one triangle's audits as blocks of one, with eps = tol
ONE_ITEM = (
    lambda X, verts, chains, tol: cs.check_triangle_comparisons(
        X, [cs.triangle_audit(X, verts, chains, tol)], tol
    )[0],
    lambda X, vertex, alpha, beta, tol: cs.check_monotonicities(
        X, [cs.fan_audit(vertex, alpha, beta)], tol
    ),
)


def reference_sweep(X, options, spoils, check_triangle, check_fan):
    """The curvature sweep of one-item audits, sample by sample, on the
    Philox stream built from each sample's key."""
    tol = cli._effective_tol_disc(options, X)
    results = []
    counts = {"unrealizable": 0, "undrawn": 0}
    for k in range(options.samples):
        key = np.array([options.seed & (2**63 - 1), k], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        verts = cli._draw_triangle(X, rng, tol)
        if verts is None:
            counts["undrawn"] += 1
            continue
        chains, fan = spoiled_chains(X, verts, spoils.get(k, "plain"))
        try:
            results.append((
                check_triangle(X, verts, chains, tol), check_fan(X, verts[0], *fan, tol)
            ))
        except SizeBoundError:
            counts["unrealizable"] += 1
    return tol, results, counts


def assert_blocks_merge(batched, reference):
    """A batched sweep's outcome against reference_sweep's: the same
    error, or the same tol and counts, with the triangles of each block
    in turn, its reports the merges of their one-item reports, and its
    count of violated triangles theirs."""
    if len(reference) == 2:
        assert batched == reference
        return
    tol, blocks, counts = batched
    assert (tol, counts) == (reference[0], reference[2])
    items = reference[1]
    assert sum(block[0] for block in blocks) == len(items)
    for size, triangle, violated, monotone in blocks:
        part, items = items[:size], items[size:]
        assert triangle == merged(t for t, _ in part)
        assert violated == sum(t.violation_count > 0 for t, _ in part)
        assert monotone == merged(m for _, m in part)


@settings(max_examples=40, deadline=None)
@given(
    space=st.sampled_from(SWEEP_SPACES),
    seed=st.integers(0, 2**63 - 1),
    samples=st.integers(1, 24),
    spoils=st.dictionaries(st.integers(0, 23), st.sampled_from(SPOILS), max_size=4),
    tol=st.sampled_from([None, 1e-6, 0.05]),
    cells=st.sampled_from([1, 200, 1 << 16]),
)
def test_batched_sweep_matches_one_item_sweeps(space, seed, samples, spoils, tol, cells):
    X = sweep_space(space)
    options = cli._build_parser().parse_args(
        ["curvature", "--in", space, "--seed", str(seed), "--samples", str(samples)]
    )
    options.tol_disc = tol
    with pytest.MonkeyPatch.context() as mp:
        # a small budget audits the samples in many blocks
        mp.setattr(cli, "_AUDIT_CELLS", cells)
        if not spoils:
            batched = outcome(cli._sweep, X, options, cli._curvature_sample, cli._curvature_audits)
        else:
            batched = outcome(
                cli._sweep, X, options, scripted_sample(spoils), cli._curvature_audits
            )
    assert_blocks_merge(batched, outcome(reference_sweep, X, options, spoils, *ONE_ITEM))
    assert_blocks_merge(batched, outcome(
        reference_sweep, X, options, spoils,
        reference_check_triangle_comparison, reference_check_monotonicity,
    ))


@pytest.mark.parametrize("cells", [1, 1 << 16])
def test_batched_sweep_raises_the_first_failing_samples_error(cells, monkeypatch):
    # a fan without an angle stops nothing: the stale chain of sample 5
    # does, whether or not sample 2 comes before it
    X = sweep_space("suspension_circle12.json")
    options = cli._build_parser().parse_args(["curvature", "--in", "x", "--samples", "8"])
    monkeypatch.setattr(cli, "_AUDIT_CELLS", cells)
    for spoils, error in (
        ({2: "undefined", 5: "stale"}, ChainError),
        ({2: "stale", 5: "undefined"}, ChainError),
        ({2: "vertex", 5: "undefined"}, ParameterError),
    ):
        with pytest.raises(error):
            cli._sweep(X, options, scripted_sample(spoils), cli._curvature_audits)
        with pytest.raises(error):
            reference_sweep(X, options, spoils, *ONE_ITEM)
    # alone, it completes the sweep, its grid cell counted as skipped
    spoils = {2: "undefined"}
    swept = cli._sweep(X, options, scripted_sample(spoils), cli._curvature_audits)
    assert sum(block[0] for block in swept[1]) == 8
    for oracles in (ONE_ITEM, (reference_check_triangle_comparison, reference_check_monotonicity)):
        assert_blocks_merge(swept, reference_sweep(X, options, spoils, *oracles))
    # a triangle too long for the strip only counts as unrealizable
    _, results, counts = cli._sweep(X, options, scripted_sample({3: "long"}),
                                    cli._curvature_audits)
    assert counts == {"unrealizable": 1, "undrawn": 0}
    assert sum(block[0] for block in results) == 7


@pytest.mark.parametrize("cells", [1, 200, 1 << 16])
def test_block_report_is_the_merge_when_one_triangle_fills_the_cap(cells, monkeypatch):
    # at tol -1 every comparison is a violation, and a triangle of long
    # chains alone holds more than VIOLATION_CAP of them; at 200 cells
    # the short first triangle shares its block with the first long one
    X = sweep_space("cos41")
    tol = -1.0
    vertices = ((12, 241, 470), (5, 185, 365), (0, 240, 480))
    cases = [(v, cli._side_chains(X, v)) for v in vertices]
    items = []
    for verts, chains in cases:
        triangle = cs.triangle_audit(X, verts, chains, GRID_TOL)
        fan = cs.fan_audit(verts[0], chains[0], chains[2])
        items.append((triangle.cells + fan.cells, (triangle, fan)))
    one_item = [(
        cs.check_triangle_comparisons(X, [triangle], tol)[0],
        cs.check_monotonicities(X, [fan], tol),
    ) for _, (triangle, fan) in items]
    assert one_item[0][0].violation_count < cs.VIOLATION_CAP
    for report in one_item[1]:
        assert report.violation_count > cs.VIOLATION_CAP

    options = cli._build_parser().parse_args(
        ["curvature", "--in", "x", "--samples", str(len(items))]
    )
    monkeypatch.setattr(cli, "_AUDIT_CELLS", cells)
    sample = iter(items).__next__
    swept = cli._sweep(
        X, options, lambda X, rng, _: sample(),
        lambda X, block, _: cli._curvature_audits(X, block, tol),
    )
    assert_blocks_merge(swept, (swept[0], one_item, {"unrealizable": 0, "undrawn": 0}))
    blocks = swept[1]
    assert len(blocks) == {1: 3, 200: 2, 1 << 16: 1}[cells]
    # every block but the short triangle's own holds a long triangle
    capped = blocks[1:] if cells == 1 else blocks
    assert all(len(block[1].violations) == cs.VIOLATION_CAP for block in capped)
    assert all(len(block[3].violations) == cs.VIOLATION_CAP for block in capped)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([0, 2**63 - 1, -1, 2**64 + 5])),
    first=st.integers(0, 64),
    n=st.integers(1, 5000),
)
def test_sample_streams_are_the_keyed_philox_streams(seed, first, n):
    streams = cli._sample_streams(seed, first + 3)
    for _ in range(first):
        next(streams)
    for k, rng in zip(range(first, first + 3), streams):
        key = np.array([seed & (2**63 - 1), k], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        for _ in range(3):
            assert rng.integers(0, n, size=3).tolist() == ref.integers(0, n, size=3).tolist()
        assert rng.integers(0, 2) == ref.integers(0, 2)
        assert rng.random() == ref.random()


# ------------------------------------------------------------ time reversal


def with_lifted_tau(X, rng):
    """tau moved to within 0.2 of pi on a few related pairs, on both sides
    of the diameter bound."""
    rel = strict_pairs(X)
    hit = rel[rng.choice(len(rel), 12, replace=False)]
    tau = X.tau.copy()
    tau[hit[:, 0], hit[:, 1]] = math.pi + rng.uniform(-0.2, 0.2, size=len(hit))
    return cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords)


def time_reversed(X):
    return cs.FiniteCausalSpace(
        X.labels, X.tau.T, X.leq.T, X.coords * np.array([-1.0, 1.0])
    )


def summary(rep):
    return rep.checked, rep.violation_count, rep.max_deficit, rep.verdict


@pytest.mark.parametrize("seed", range(10))
def test_validate_and_myers_survive_time_reversal(seed):
    # Reversal swaps the roles of past and future, so a triple i <= k <= j
    # becomes j <= k <= i with the same two summands in the other order.
    rng = np.random.default_rng(seed)
    X = ads81_space()
    variants = (
        with_dropped_leq(X, rng),
        with_inflated_tau(X, rng),
        with_lifted_tau(with_inflated_tau(with_dropped_leq(X, rng), rng), rng),
    )
    for V in variants:
        R = time_reversed(V)
        for check in (cs.validate_space, cs.myers_check):
            assert summary(check(R, AXIOM_TOL)) == summary(check(V, AXIOM_TOL))
        assert not cs.validate_space(V, AXIOM_TOL).verdict

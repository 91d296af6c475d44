"""Finite causal spaces and their curvature audits.

A finite causal space is a labelled point set with a time separation
matrix tau and a causal relation matrix leq.  This module validates the
defining axioms (reflexivity, transitivity, timelikeness, the reverse
triangle inequality), extracts longest chains as discrete stand-ins for
distance realizers, and runs the comparison checkers: triangle
comparison against the model strip, angle monotonicity, subdivision
(Alexandrov lemma) audits, and the diameter bound.  Every audit keeps
its books in one private accumulator, _Tally, which counts comparisons
and violations, takes the worst deficit, keeps the first VIOLATION_CAP
records in scan order and builds the ComparisonReport; merge_reports
joins several reports under the same cap.

Triangle comparison and angle monotonicity run only in blocks, as a
curvature sweep runs them: triangle_audit and fan_audit make every
check of one triangle that can raise, and check_triangle_comparisons
and check_monotonicities, which cannot raise, compare a block of
triangles in one array pass, keeping the block's books in one _Tally
sweep.  One triangle is a block of one.

Conventions: tau(i, j) is the forward time separation and is 0 whenever
i is not below j; leq is reflexive; coords, when present, store a time
coordinate in column 0 that is isotone for the relation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import model_space as ms
from .errors import (
    CausalityError,
    ChainError,
    ParameterError,
    SizeBoundError,
    StructuralError,
)

# Reports keep at most this many violation records; counts stay exact.
VIOLATION_CAP = 200

# Chain-reconstruction tie collar.  The staleness check forgives it once
# per hop, so collared chains still count as maximizing at eps 0.
RECON_COLLAR = 1e-12

# The chain index works in row blocks of about this many cells, so its
# only n x n float64 array is W itself.
_INDEX_CELLS = 1 << 16


@dataclass(frozen=True)
class Violation:
    """One failed comparison: lhs exceeded rhs by deficit at the given
    point tuple."""

    pair: tuple
    lhs: float
    rhs: float
    deficit: float
    note: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one audit sweep.

    checked counts performed comparisons, skipped the ones whose domain
    was undefined (null pairs, degenerate angles).  The audit's _Tally
    owns the cap: violations holds at most VIOLATION_CAP records in the
    order the audit recorded them, which is its documented scan order,
    while violation_count is exact.  The excess fields tally the
    reversed inequality so curvature-above can be read off the same
    report.
    """

    checked: int
    violations: tuple
    violation_count: int
    max_deficit: float
    verdict: bool
    max_excess: float = 0.0
    excess_count: int = 0
    skipped: int = 0
    notes: tuple = ()


@dataclass(frozen=True)
class Chain:
    """Causal chain with cumulative time-separation parameters.

    indices lists the points in causal order; params starts at 0 and
    increases by tau of each consecutive pair, so params[-1] is the
    chain value used as a side length downstream.
    """

    indices: tuple
    params: tuple

    def __post_init__(self):
        if len(self.indices) != len(self.params):
            raise ChainError("indices and params must have equal length")
        if len(self.indices) == 0:
            raise ChainError("a chain needs at least one point")
        if self.params[0] != 0.0:
            raise ChainError("chain params must start at 0")
        if any(b < a for a, b in zip(self.params, self.params[1:])):
            raise ChainError("chain params must be nondecreasing")

    @property
    def value(self) -> float:
        return self.params[-1]


@dataclass(frozen=True, eq=False)
class FiniteCausalSpace:
    """Labelled finite point set with tau and leq matrices.

    tau holds forward time separations (np.inf is the +infinity
    encoding); leq is the reflexive causal relation.  coords is optional
    per-point provenance, column 0 being a time coordinate; when it
    respects leq it orders the chain index, and otherwise the size of
    each point's causal past does.
    """

    labels: tuple
    tau: np.ndarray
    leq: np.ndarray
    coords: np.ndarray = None

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        n = len(labels)
        if n == 0:
            raise StructuralError("a space needs at least one point")
        if len(set(labels)) != n:
            raise StructuralError("labels must be unique")
        tau = np.array(self.tau, dtype=float)
        leq = np.array(self.leq, dtype=bool)
        if tau.shape != (n, n):
            raise StructuralError(f"tau shape {tau.shape} does not match {n} labels")
        if leq.shape != (n, n):
            raise StructuralError(f"leq shape {leq.shape} does not match {n} labels")
        low = tau.min()  # NaN when any entry is
        if np.isnan(low):
            raise StructuralError("tau contains NaN entries")
        if low < 0.0:
            raise StructuralError("tau entries must be nonnegative")
        if (np.diag(tau) != 0.0).any():
            raise StructuralError("tau diagonal must be zero")
        if not np.diag(leq).all():
            raise StructuralError("leq must be reflexive")
        coords = self.coords
        if coords is not None:
            coords = np.array(coords, dtype=float)
            if coords.ndim != 2 or coords.shape[0] != n:
                raise StructuralError(f"coords shape {coords.shape} does not match {n} labels")
            if coords.shape[1] == 0:
                raise StructuralError("coords need a time column")
            coords.setflags(write=False)
        tau.setflags(write=False)
        leq.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "coords", coords)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ParameterError(f"unknown point label {label!r}") from None

    @cached_property
    def _chain_index(self):
        """Topological order of the whole space for longest_chain.

        Returns (rank, byrank, W, heads, ends).  rank[k] is the place of
        point k when the points are sorted by time if coords exist and
        that order respects leq, else by the size of their causal past,
        ties by index; byrank is its inverse, the stored index of the
        point at each place.  The past grows strictly along every strict
        relation of a partial order, so a past-size order that breaks
        leq means a cycle or a relation that is not transitive, and
        raises CausalityError.

        W is tau in rank order, -inf off leq and on the diagonal, so
        every row's successors lie to its right.  Every point order fills
        it the same way, in row blocks of about _INDEX_CELLS cells: the
        block's rows of tau are gathered, their columns permuted into
        rank order straight into W (mode="clip" takes without a buffer;
        byrank is in range) and masked there, so the build holds W and
        one gathered float block; the same pass reads each row's first
        successor.  heads holds, for each place, the first place of its
        antichain run of the whole order.  The runs are found walking
        down from the top: a run grows while its next row has no
        successor inside it, so no row of a run depends on another.

        ends caches the dynamic program of longest_chain: for an end
        place e, [done, best] with best[r] the longest value of a path of
        leq hops from place r to e, -inf where there is none, filled for
        done <= r <= e.  It holds at most one float array of e + 1
        entries per distinct end, n (n + 1) / 2 floats when every point
        ends a chain, half of W.  Built on the first chain and kept with
        the space; split drops it with the index once find_line returns.
        """
        n = self.size

        def keys():
            if self.coords is not None:
                yield self.coords[:, 0]
            yield self.leq.sum(axis=0)

        for key in keys():
            byrank = np.lexsort((np.arange(n), key))
            rank = np.empty(n, dtype=int)
            rank[byrank] = np.arange(n)
            if not (self.leq & (rank[:, None] > rank[None, :])).any():
                break
        else:
            raise CausalityError("leq has a cycle among distinct points or is not transitive")
        step = max(1, _INDEX_CELLS // n)
        W = np.empty((n, n))
        first = np.empty(n, dtype=int)  # first successor of each row, n for none
        for lo in range(0, n, step):
            rows = byrank[lo:lo + step]
            block = W[lo:lo + step]
            np.take(self.tau[rows], byrank, axis=1, out=block, mode="clip")
            np.copyto(block, -np.inf, where=~self.leq[rows][:, byrank])
            np.fill_diagonal(block[:, lo:], -np.inf)
            related = block > -np.inf
            first[lo:lo + step] = np.where(related.any(axis=1), related.argmax(axis=1), n)
        W.setflags(write=False)
        first = first.tolist()
        heads = [0] * n
        hi = n
        while hi > 0:
            lo = hi - 1
            while lo > 0 and first[lo - 1] >= hi:
                lo -= 1
            heads[lo:hi] = [lo] * (hi - lo)
            hi = lo
        return rank, byrank, W, heads, {}


def sample_model_points(points) -> FiniteCausalSpace:
    """Finite causal space of model-strip points with closed-form tau.

    Pairs are classified by ms.ads_separation with numpy's trigonometry:
    the classes agree with ads_interval's, but tau can differ from
    ads_interval's in the last places (by up to about 3e-14).
    """
    pts = list(points)
    if not pts:
        raise ParameterError("need at least one point")
    t = np.array([p.t for p in pts])
    x = np.array([p.x for p in pts])
    order = t[:, None] <= t[None, :]
    leq, _, tau = ms.ads_separation(t[:, None], t, x[None, :] - x[:, None], order)
    width = len(str(len(pts) - 1))
    labels = tuple(f"p{k:0{width}d}" for k in range(len(pts)))
    return FiniteCausalSpace(labels, tau, leq, np.column_stack([t, x]))


class _Tally:
    """Books of one audit: comparisons checked, violations counted
    exactly, the worst deficit, and the first VIOLATION_CAP violation
    records in the order they were recorded, which is the audit's scan
    order.  pairs are a (k, slots) integer array, a sequence of tuples
    or a function from a position to its tuple; lhs, rhs and deficit
    broadcast against them, and note is one string or one per entry.
    """

    def __init__(self, tol: float, worst: float = 0.0):
        self.tol = tol
        self.checked = 0
        self.count = 0
        self.worst = worst
        self.records = []

    def sweep(self, pairs, lhs, rhs, deficit, note) -> np.ndarray:
        """Record comparisons: each one is checked, the worst deficit is
        taken over all of them, and a deficit above tol is a violation.
        Returns the positions of the violations."""
        deficit = np.asarray(deficit, dtype=float)
        self.checked += deficit.size
        top = np.fmax.reduce(deficit, initial=-np.inf)  # a NaN is never the worst
        if top > self.worst:
            self.worst = float(top)
        if not top > self.tol:
            return np.empty(0, dtype=int)
        hit = np.flatnonzero(deficit > self.tol)
        self.count += hit.size
        self.keep(_records(hit, pairs, lhs, rhs, deficit, note))
        return hit

    def found(self, pairs, lhs, rhs, deficit, note) -> None:
        """Record violations the caller found itself; the worst deficit
        covers them, whatever their size against tol."""
        deficit = np.broadcast_to(np.asarray(deficit, dtype=float), (len(pairs),))
        if deficit.size:
            self.count += deficit.size
            self.worst = max(self.worst, float(deficit.max()))
            self.keep(_records(range(deficit.size), pairs, lhs, rhs, deficit, note))

    def keep(self, records) -> None:
        """Append violation records while the cap has room."""
        self.records.extend(itertools.islice(records, VIOLATION_CAP - len(self.records)))

    def report(self, verdict: bool = None, **fields) -> ComparisonReport:
        """The report of the books; the verdict defaults to the worst
        deficit staying within tol."""
        return ComparisonReport(
            checked=self.checked,
            violations=tuple(self.records),
            violation_count=self.count,
            max_deficit=self.worst,
            verdict=self.worst <= self.tol if verdict is None else verdict,
            **fields,
        )


def _records(hit, pairs, lhs, rhs, deficit, note):
    """Violation records at the positions hit, built only when taken."""
    lhs, rhs = (np.broadcast_to(np.asarray(v, dtype=float), deficit.shape) for v in (lhs, rhs))
    for r in hit:
        pair = pairs(r) if callable(pairs) else pairs[r]
        yield Violation(
            tuple(pair.tolist()) if isinstance(pair, np.ndarray) else pair,
            float(lhs[r]), float(rhs[r]), float(deficit[r]),
            note if isinstance(note, str) else note[r],
        )


def merge_reports(reports) -> ComparisonReport:
    """One report over several audits: counts add up, maxima are taken
    and the violations are the first VIOLATION_CAP records in report
    order.  Notes are dropped."""
    reports = list(reports)
    books = _Tally(0.0, max((r.max_deficit for r in reports), default=0.0))
    for r in reports:
        books.checked += r.checked
        books.count += r.violation_count
        books.keep(r.violations)
    return books.report(
        verdict=all(r.verdict for r in reports),
        max_excess=max((r.max_excess for r in reports), default=0.0),
        excess_count=sum(r.excess_count for r in reports),
        skipped=sum(r.skipped for r in reports),
    )


def _composed(rel: np.ndarray) -> np.ndarray:
    """Boolean relation product rel @ rel as one float32 BLAS product.

    Exact: every entry of the float product counts at most n paths, and
    float32 represents every integer up to 2**24, far beyond any size
    whose n-by-n matrices fit in memory.
    """
    a = rel.astype(np.float32)
    return (a @ a) > 0.0


def validate_space(X: FiniteCausalSpace, tol: float) -> ComparisonReport:
    """Exhaustive audit of the causal-space axioms.

    Checks timelikeness (tau > 0 implies leq), transitivity of leq, its
    antisymmetry (each pair i < j with i <= j <= i is reported once),
    transitivity of the chronological relation tau > 0, and the reverse
    triangle inequality tau(i, j) >= tau(i, k) + tau(k, j) over every
    causal triple i <= k <= j, that is over the diamond J-(k) x J+(k) of
    each middle point k, where the inequality is defined.  All checks are
    vectorized.  The report lists the first VIOLATION_CAP offenders in
    scan order: stage by stage in the order above, within the reverse
    triangle stage by k, and within each stage or k by (i, j) in
    row-major order.

    Each k whose future is dense in its index span lo:hi (hi - lo <=
    4 |J+(k)|, a property of the point order) is screened first: past
    row i is flagged when the minimum over J+(k) of fl(tau(i, j) -
    tau(k, j)), read from one row slice, falls below fl(tau(i, k) +
    fl(margin - tol)), and only a flagged k is compared cell by cell.
    With u = eps / 2 and M = max tau, a violation fl(tau(i, j) + tol) <
    fl(tau(i, k) + tau(k, j)) has tau(i, j) - tau(k, j) < tau(i, k) - tol
    + u (3M + tol); the screen's difference and threshold round by at
    most uM and u (M + 2 tol + 3 margin), so margin = 8 eps (M + tol) =
    16u (M + tol) flags its row, and reports are those of the exact
    comparison.  The screen runs only when margin < tol: an infinite tau
    (inf - inf would hide a row as NaN) turns it off, and so does a tol
    below the margin, where the row i = k would flag every k.
    """
    tau, leq = X.tau, X.leq
    n = X.size
    books = _Tally(tol)
    bad = np.nonzero((tau > 0.0) & ~leq)
    books.found(np.column_stack(bad), tau[bad], 0.0, tau[bad], "timelike pair is not leq-related")
    books.found(np.argwhere(_composed(leq) & ~leq), 1.0, 0.0, 1.0, "leq is not transitive")
    books.found(np.argwhere(np.triu(leq & leq.T, 1)), 1.0, 0.0, 1.0, "leq is not antisymmetric")
    ll = tau > 0.0
    books.found(np.argwhere(_composed(ll) & ~ll), 1.0, 0.0, 1.0,
                "chronological relation is not transitive")

    books.checked = 3 * n * n
    margin = 8.0 * np.finfo(float).eps * (tau.max() + tol)
    for k in range(n):
        past = np.nonzero(leq[:, k])[0]
        fut = np.nonzero(leq[k, :])[0]
        books.checked += len(past) * len(fut)
        lo, hi = fut[0], fut[-1] + 1
        if margin < tol and hi - lo <= 4 * len(fut):
            screen = tau[past, lo:hi]
            screen -= np.where(leq[k, lo:hi], tau[k, lo:hi], -np.inf)
            if not (screen.min(axis=1) < tau[past, k] + (margin - tol)).any():
                continue
        direct = tau[np.ix_(past, fut)]
        sums = tau[past, k][:, None] + tau[k, fut][None, :]
        bad = direct + tol < sums
        if not bad.any():
            continue
        a, b = np.nonzero(bad)
        books.found(np.column_stack((past[a], np.full(len(a), k), fut[b])),
                    direct[a, b], sums[a, b], sums[a, b] - direct[a, b],
                    "reverse triangle inequality fails through the middle point")
    # an axiom failure fails the space whatever its size against tol
    return books.report(verdict=books.count == 0)


def longest_chain(X: FiniteCausalSpace, i: int, j: int) -> Chain:
    """Chain from i to j maximizing the summed time separation.

    Dynamic programming over the space's chain index
    (FiniteCausalSpace._chain_index), built on the first chain: one
    topological order of the whole space, by time or else by past size,
    with W, tau on the strictly related pairs and -inf elsewhere, built
    in that order from any stored order.  best[r] is the value of the
    longest path of leq hops from place r to the place of j.  It is
    filled from the top down one antichain run of the index at a time,
    each run in one reduction over contiguous rows of W against the
    places already done, and cached per end point: a later chain to j
    that starts further down extends the same array through the runs in
    between, finishing a run that an earlier start cut.  Every candidate
    is the single sum tau(r, s) + best[s] and max is exact, so the values
    do not depend on how the rows are blocked or which chains warmed the
    cache.

    The walk from i takes, at each place r, the first place s in the
    order with tau(r, s) + best[s] within a rounding collar of best[r]
    (floating sums along a realizer drift by an ulp per hop), never the
    first by input index, so the chain walks through every point lying
    on a realizer whatever the point labelling.  The value never exceeds
    tau(i, j) on a space satisfying the reverse triangle inequality, up
    to the same collar.

    On a transitive relation every path from i to j stays in the
    interval i <= k <= j, so the chain is the longest chain of that
    interval.  On a relation that is not transitive, which validate_space
    reports, it is the longest path of leq hops, which may leave the
    interval.  When neither order of the index respects leq, which takes
    a cycle or a relation that is not transitive, the index raises
    CausalityError.  The index costs one n-by-n float64 matrix
    per space that takes chains, and its cache at most half as much
    again: curvature and subdivide keep both, and split drops them once
    find_line, its only chain, returns.
    """
    n = X.size
    for name, v in (("i", i), ("j", j)):
        if not 0 <= v < n:
            raise ParameterError(f"{name} = {v!r} out of range for {n} points")
    if not X.leq[i, j]:
        raise ChainError(f"points {i} and {j} are not causally related")
    if i == j:
        return Chain((i,), (0.0,))
    rank, byrank, W, heads, ends = X._chain_index
    r, e = int(rank[i]), int(rank[j])
    entry = ends.get(e)
    if entry is None:
        best = np.empty(e + 1)
        best[e] = 0.0
        entry = ends[e] = [e, best]
    done, best = entry
    indices, params = [int(i)], [0.0]
    # -inf + inf is NaN on an unrelated pair in front of an infinite best:
    # fmax skips it, every row keeps the -inf, finite or inf candidate of
    # place e itself, and the walk never takes it
    with np.errstate(invalid="ignore"):
        hi = done
        while hi > r:
            lo = max(heads[hi - 1], r)
            np.fmax.reduce(W[lo:hi, hi:e + 1] + best[hi:], axis=1, out=best[lo:hi])
            hi = lo
        entry[0] = min(done, r)
        while r != e:
            ahead = W[r, r + 1:e + 1] + best[r + 1:]
            s = r + 1 + int(np.argmax(ahead >= best[r] - RECON_COLLAR))
            params.append(params[-1] + float(W[r, s]))
            indices.append(int(byrank[s]))
            r = s
    return Chain(tuple(indices), tuple(params))


def make_chain(X: FiniteCausalSpace, indices) -> Chain:
    """Chain through the given indices, with params accumulated from tau.

    Consecutive pairs must be leq-related.
    """
    idx = [int(k) for k in indices]
    for a, b in zip(idx, idx[1:]):
        if not X.leq[a, b]:
            raise ChainError(f"consecutive points {a}, {b} are not causally related")
    params = [0.0]
    for a, b in zip(idx, idx[1:]):
        params.append(params[-1] + float(X.tau[a, b]))
    return Chain(tuple(idx), tuple(params))


def _clamp(a12: float, a23: float, a13: float, budget: float):
    """(a13, note): a13 clamped up to a12 + a23 when within budget.

    Chain values can undershoot the reverse triangle inequality by the
    discretization budget eps plus the drift of the chains (_drift); the
    clamp restores feasibility and is reported via the returned note.
    """
    if not a13 < a12 + a23:
        return a13, ""
    if a13 + budget < a12 + a23:
        raise ChainError(
            f"side {a13!r} undershoots {a12 + a23!r} beyond the budget {budget!r}"
        )
    return a12 + a23, f"long side clamped from {a13!r} to {a12 + a23!r}"


def _realize_clamped(a12: float, a23: float, a13: float, budget: float):
    """(triangle, a13, note): the sides realized after _clamp."""
    a13, note = _clamp(a12, a23, a13, budget)
    return ms.realize_triangle(a12, a23, a13), a13, note


def _angles(names: str, a12: float, a23: float, a13: float) -> dict:
    """Hyperbolic angles, keyed by vertex name, of the model triangle
    names[0] << names[1] << names[2] with sides a12, a23 and a13, from
    the timelike law of cosines: sigma is -1 at the two time endpoints
    and +1 at the middle vertex.  The middle angle is taken first, so
    that a bad side raises as in realize_triangle."""
    middle = ms.loc_angle(a12, a23, a13, 1)
    ends = ms.loc_angle(a12, a13, a23, -1), ms.loc_angle(a23, a13, a12, -1)
    return dict(zip(names, (ends[0], middle, ends[1])))


def _check_triangle_inputs(X, verts, chains):
    i, j, k = (int(v) for v in verts)
    c12, c23, c13 = chains
    expected = ((c12, i, j), (c23, j, k), (c13, i, k))
    for chain, a, b in expected:
        if chain.indices[0] != a or chain.indices[-1] != b:
            raise ParameterError(
                f"chain endpoints {chain.indices[0]}..{chain.indices[-1]} "
                f"do not match vertices ({a}, {b})"
            )
    for a, b in ((i, j), (j, k), (i, k)):
        if not X.tau[a, b] > 0.0:
            raise ParameterError(f"vertex pair ({a}, {b}) is not timelike related")
    return i, j, k


def _drift(chain: Chain) -> float:
    """How far longest_chain may leave a chain's value below the longest
    one: its walk lets each hop fall RECON_COLLAR short, and its sums
    round by an ulp or two per hop."""
    return (len(chain.indices) - 1) * (RECON_COLLAR + 2.0 * math.ulp(chain.value))


def _stale_check(X, chains, pairs, eps):
    """Raise ChainError on a chain whose value falls short of tau over its
    ends by more than eps plus its drift."""
    for chain, (a, b) in zip(chains, pairs):
        tau = float(X.tau[a, b])
        if chain.value < tau - eps - _drift(chain):
            raise ChainError(
                f"chain {a}..{b} value {float(chain.value)!r} is stale against "
                f"tau = {tau!r} (eps = {float(eps)!r})"
            )


class TriangleAudit(NamedTuple):
    """A chained triangle mapped into its comparison triangle, as
    triangle_audit leaves it for check_triangle_comparisons: the chain
    points in index order, the coordinates t and x of their comparison
    points, and the notes of the report."""

    keys: list
    t: list
    x: list
    notes: tuple

    @property
    def cells(self) -> int:
        return len(self.keys) ** 2


class FanAudit(NamedTuple):
    """Two future chains from a common vertex, as fan_audit leaves them
    for check_monotonicities: the vertex and the points of each chain
    after it."""

    vertex: int
    alpha: tuple
    beta: tuple

    @property
    def cells(self) -> int:
        return len(self.alpha) * len(self.beta)


def triangle_audit(X: FiniteCausalSpace, verts, chains, eps: float) -> TriangleAudit:
    """Every check of triangle comparison that can raise, and the map of
    a chained timelike triangle into the model: chain ends, timelike
    vertex pairs, chains eps-maximizing against tau, the comparison
    triangle of the chain values and each chain point's comparison point
    by cumulative parameter."""
    i, j, k = _check_triangle_inputs(X, verts, chains)
    c12, c23, c13 = chains
    _stale_check(X, chains, ((i, j), (j, k), (i, k)), eps)
    a12, a23 = c12.value, c23.value
    tri, a13, clamp_note = _realize_clamped(a12, a23, c13.value, eps + _drift(c13))
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
    keys = sorted(mapped)
    points = [mapped[u] for u in keys]
    return TriangleAudit(keys, [p.t for p in points], [p.x for p in points], tuple(notes))


def check_triangle_comparisons(X: FiniteCausalSpace, triangles, tol: float) -> tuple:
    """(report, violated) of triangle comparison over a block of
    TriangleAudits: one report for the whole block, and how many of its
    triangles hold a violation.

    Every ordered pair (u, v) of distinct mapped points of a triangle
    must keep the curvature bound tau(u, v) <= tau_bar(u_bar, v_bar) +
    tol; the reversed inequality is tallied in the excess fields.  The
    pairs, triangle by triangle and each in row-major order, are
    compared in one _Tally sweep: tau(u, v) from one gather, the
    comparison tau from one ms.ads_separation call on the pairs that run
    forward in time, with math's trigonometry so that it is
    ads_interval's tau bit for bit; it is 0 for a pair running back in
    time and for a forward pair that is not timelike.  The notes are
    those of the triangles, in order.
    """
    sizes = np.array([len(a.keys) for a in triangles], dtype=int)
    keys = list(itertools.chain.from_iterable(a.keys for a in triangles))
    first, second, owner = _ordered_pairs(sizes)
    index = np.array(keys, dtype=int)
    lhs = X.tau[index[first], index[second]]
    t = np.fromiter(itertools.chain.from_iterable(a.t for a in triangles), float)
    x = np.fromiter(itertools.chain.from_iterable(a.x for a in triangles), float)
    fwd = np.flatnonzero(t[first] <= t[second])
    p, q = first[fwd], second[fwd]
    rhs = np.zeros(len(first))
    rhs[fwd] = ms.ads_separation(t[p], t[q], x[q] - x[p], True, ms.MATH_TRIG)[2]
    books = _Tally(tol)
    hit = books.sweep(
        lambda r: (keys[first[r]], keys[second[r]]), lhs, rhs, lhs - rhs,
        "tau exceeds comparison tau",
    )
    excess = rhs - lhs
    report = books.report(
        max_excess=max(0.0, float(np.fmax.reduce(excess, initial=-np.inf))),
        excess_count=int(np.count_nonzero(excess > tol)),
        notes=tuple(itertools.chain.from_iterable(a.notes for a in triangles)),
    )
    return report, len(np.unique(owner[hit]))


def _ordered_pairs(sizes: np.ndarray):
    """(first, second, owner) of the ordered pairs of distinct entries
    within each group of a concatenation of groups of the given sizes,
    group by group and each in row-major order; owner is the group."""
    points = int(sizes.sum())
    local = np.arange(points) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row = np.repeat(sizes - 1, sizes)
    first = np.repeat(np.arange(points), row)
    r = np.arange(len(first)) - np.repeat(np.cumsum(row) - row, row)
    a = local[first]
    second = first - a + r + (r >= a)
    owner = np.repeat(np.repeat(np.arange(len(sizes)), sizes), row)
    return first, second, owner


def fan_audit(vertex: int, alpha: Chain, beta: Chain) -> FanAudit:
    """Every check of angle monotonicity that can raise: both chains must
    start at the vertex and stay shorter than pi."""
    vertex = int(vertex)
    if alpha.indices[0] != vertex or beta.indices[0] != vertex:
        raise ParameterError("both chains must start at the vertex")
    for chain in (alpha, beta):
        if not chain.value < math.pi:
            raise SizeBoundError("chain length reaches the size bound pi")
    return FanAudit(vertex, alpha.indices[1:], beta.indices[1:])


def check_monotonicities(X: FiniteCausalSpace, fans, tol: float) -> ComparisonReport:
    """Angle-monotonicity report of a block of FanAudits.

    The grid of a fan pairs each point a of alpha with each point b of
    beta, in row-major order, and holds the signed comparison angle at
    the vertex of (a, vertex, b); a cell with a == b or outside the
    angle's domain is skipped, so a fan whose grid holds no angle counts
    all its cells as skipped.  The cells of every fan go through one
    ms.comparison_angles call.  Then, fan by fan, consecutive angles
    along every row of a grid, then along every column, skipping the
    undefined cells, are compared in one _Tally sweep: an angle that
    falls by more than tol is a violation recorded as ("row", row, col0,
    col1) or ("col", col, row0, row1).
    """
    rows = np.array([len(f.alpha) for f in fans], dtype=int)
    cols = np.array([len(f.beta) for f in fans], dtype=int)
    owner = np.repeat(np.arange(len(fans)), rows * cols)
    cell = np.arange(len(owner)) - np.repeat(np.cumsum(rows * cols) - rows * cols, rows * cols)
    ia, ib = cell // cols[owner], cell % cols[owner]
    # the row and the column of each cell among those of all fans
    row = (np.cumsum(rows) - rows)[owner] + ia
    col = (np.cumsum(cols) - cols)[owner] + ib
    a = np.array(list(itertools.chain.from_iterable(f.alpha for f in fans)), dtype=int)[row]
    b = np.array(list(itertools.chain.from_iterable(f.beta for f in fans)), dtype=int)[col]
    x = np.array([f.vertex for f in fans], dtype=int)[owner]
    tau = X.tau
    angle, defined = ms.comparison_angles(
        tau[a, x], tau[x, a], tau[x, b], tau[b, x], tau[a, b], tau[b, a]
    )
    defined &= (a != b) & ~np.isnan(angle)
    value = np.flatnonzero(defined)

    def steps(order, line):
        """Each cell of order followed in order by the next of its line."""
        same = np.flatnonzero(line[order[:-1]] == line[order[1:]])
        return order[same], order[same + 1]

    # consecutive cells with a value along each row, then along each
    # column, fan by fan
    by_row = steps(value, row)
    by_col = steps(value[np.lexsort((ia[value], ib[value], owner[value]))], col)
    first = np.concatenate([by_row[0], by_col[0]])
    second = np.concatenate([by_row[1], by_col[1]])
    along_col = np.repeat([False, True], [len(by_row[0]), len(by_col[0])])
    scan = np.argsort(owner[first], kind="stable")
    first, second, along_col = first[scan], second[scan], along_col[scan]

    def pair(r):
        u, v = first[r], second[r]
        if along_col[r]:
            return ("col", int(ib[u]), int(ia[u]), int(ia[v]))
        return ("row", int(ia[u]), int(ib[u]), int(ib[v]))

    books = _Tally(tol)
    books.sweep(pair, angle[first], angle[second], angle[first] - angle[second],
                "signed comparison angle decreases along the chain")
    return books.report(skipped=int(np.count_nonzero(~defined)))


def check_subdivision(
    X: FiniteCausalSpace, verts, chains, p: int, which: str, tol: float,
    eps: float = None,
) -> ComparisonReport:
    """Alexandrov-lemma audit for a subdivided timelike triangle.

    which = "across": p lies on the long side (between the first and
    last vertex) and is connected to the middle vertex; the situation is
    classified convex or concave by comparing tau with the comparison
    separation, and the implied angle dominances between the glued
    sub-comparison-triangles and the subdivided whole-triangle
    comparison are verified, together with the unconditional vertex
    inequality at the middle vertex.

    which = "future": p lies on the first side and is connected to the
    last vertex, with the inequality pattern of the future version.

    Every angle comes from the timelike law of cosines on side lengths
    (_angles): those of the whole comparison triangle, of the two
    sub-triangles whose sides are chain values, and of the two pieces
    that the comparison segment from p to q cuts from the whole
    comparison triangle.  Only that segment's separation is read from
    the realized whole triangle.
    """
    if which not in ("across", "future"):
        raise ParameterError(f'which must be "across" or "future", got {which!r}')
    i, j, k = _check_triangle_inputs(X, verts, chains)
    c12, c23, c13 = chains
    if eps is None:
        eps = tol
    _stale_check(X, chains, ((i, j), (j, k), (i, k)), eps)
    p = int(p)
    host = c13 if which == "across" else c12
    if p not in host.indices[1:-1]:
        raise ParameterError(
            f"p = {p} is not an interior point of the side chain {host.indices}"
        )
    s_p = host.params[host.indices.index(p)]

    whole, a13w, clamp_note = _realize_clamped(c12.value, c23.value, c13.value, eps + _drift(c13))
    notes = [clamp_note] if clamp_note else []

    # Set-up: q is the vertex p connects to, the host side runs from x to
    # its end vertex e, and up says p lies below q.  The two
    # sub-triangles are named by their vertices in causal order, and
    # flips reverse a sub-triangle's angle inequality.
    if which == "across":
        q, q_name, e_name = j, "y", "z"
        up = X.tau[p, j] > 0.0
        if not (up or X.tau[j, p] > 0.0):
            raise ParameterError(
                f"p = {p} and the middle vertex {j} are not timelike related"
            )
        pq = longest_chain(X, p, j) if up else longest_chain(X, j, p)
        subs = ("xpy", "pyz") if up else ("xyp", "ypz")
        host_side, whole_host, scale, q_t = "13", a13w, a13w / c13.value, whole.x2
        flips, vertex_ge = (False, False), True
    else:
        q, q_name, e_name, up = k, "z", "y", True
        if not X.tau[p, k] > 0.0:
            raise ParameterError(
                f"p = {p} is not timelike below the opposite vertex {k}"
            )
        pq = longest_chain(X, p, k)
        subs = ("xpz", "pyz")
        host_side, whole_host, scale, q_t = "12", c12.value, 1.0, whole.x3
        flips, vertex_ge = (False, True), False
    pq_name = "p" + q_name if up else q_name + "p"

    def sides(names, xp, pe, pq_len, xz):
        """(a12, a23, a13) of the sub-triangle names, each side named by
        its vertices in causal order: the host side is cut at p into xp
        and pe, pq joins p to q, and the others are sides of the whole."""
        length = {"xy": c12.value, "yz": c23.value, "xz": xz, "xp": xp,
                  "p" + e_name: pe, pq_name: pq_len}
        a, b, c = names
        return length[a + b], length[b + c], length[a + c]

    # each long side is one of the four chains or a part of c13
    budget = eps + max(_drift(c) for c in (c12, c23, c13, pq))
    bar = []
    for names in subs:
        a12, a23, a13 = sides(names, s_p, host.value - s_p, pq.value, c13.value)
        a13, note = _clamp(a12, a23, a13, budget)
        notes += [note] if note else []
        bar.append(_angles(names, a12, a23, a13))
    whole_q = _angles("xyz", c12.value, c23.value, a13w)[q_name]

    g, la, _ = whole.sides[host_side]
    u = s_p * scale
    p_t = ms.geodesic_point(g, la + u)
    res = ms.ads_interval(p_t, q_t) if up else ms.ads_interval(q_t, p_t)
    tau_pq = float(X.tau[p, q] if up else X.tau[q, p])
    skipped = 0
    tilde = None
    if res.relation != ms.TIMELIKE:
        notes.append(f"comparison segment p-{q_name} is degenerate; angle audit skipped")
        skipped = 1
    else:
        tilde = [_angles(names, *sides(names, u, whole_host - u, res.tau, a13w)) for names in subs]

    # When q lies below p, time reversal exchanges the outer vertices, so
    # the angle ordering that certifies convexity flips.
    diff_angle = bar[0]["p"] - bar[1]["p"] if up else bar[1]["p"] - bar[0]["p"]
    diff_tau = res.tau - tau_pq
    books = _Tally(tol)
    books.checked += 1
    if (diff_angle > tol and diff_tau < -tol) or (diff_angle < -tol and diff_tau > tol):
        books.found([("classification",)], diff_angle, diff_tau,
                    min(abs(diff_angle), abs(diff_tau)),
                    "angle ordering contradicts the tau comparison")
    shape = "convex" if diff_tau >= -tol else "concave"
    if abs(diff_tau) <= tol and abs(diff_angle) <= tol:
        shape = "degenerate"
    notes.append(f"classified {shape} (angle gap {diff_angle!r}, tau gap {diff_tau!r})")

    # (label, lhs, rhs, expect lhs >= rhs - tol rather than lhs <= rhs + tol)
    checks = []
    if tilde is not None:
        ge = diff_tau >= -tol
        rounds = [("angle", ge)]
        if shape == "degenerate":
            rounds.append(("angle-rev", not ge))
        for tag, base in rounds:
            for name, angles, tilde_angles, flip in zip(("sub1", "sub2"), bar, tilde, flips):
                for label, angle in angles.items():
                    checks.append(((tag, name, label), angle, tilde_angles[label], base != flip))
    checks.append((("vertex", q_name), bar[0][q_name] + bar[1][q_name], whole_q, vertex_ge))
    labels, lhs, rhs, ges = zip(*checks)
    books.sweep(
        labels, lhs, rhs, [r - l if ge else l - r for _, l, r, ge in checks],
        [f"expected {'ge' if ge else 'le'} within tol" for ge in ges],
    )
    return books.report(skipped=skipped, notes=tuple(notes))


def myers_check(X: FiniteCausalSpace, tol: float) -> ComparisonReport:
    """Diameter audit: finite time separations may not exceed pi.

    Lists every finite entry above pi - tol as a watch record with
    deficit tau - pi; the verdict fails only when some entry exceeds
    pi + tol.
    """
    tau = X.tau
    finite = np.isfinite(tau)  # never empty: the diagonal is zero
    books = _Tally(tol, float(np.max(tau, where=finite, initial=-np.inf) - math.pi))
    books.checked = int(finite.sum())
    listed = np.argwhere(finite & (tau > math.pi - tol))
    value = tau[listed[:, 0], listed[:, 1]]
    books.found(listed, value, math.pi, value - math.pi,
                "finite time separation near or above the diameter bound")
    return books.report()

"""Splitting pipeline: lines, fibers, parallelism, slices.

Given a finite causal space containing a near-maximal timelike line,
the operations here recover warped-product structure: a two-row fit
against the line gives each point a time coordinate, the closed-form
fiber distance of the cos warped product groups points into fibers,
the c-functions metrize the fiber space, and the assembled map is
audited entry by entry against the cosine warped product over the
recovered base.  Everything is deterministic; no operation mutates its
input space.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import causal_space as cs
from . import model_space as ms
from . import warped_product as wp
from .errors import (
    ChainError,
    ExtractionError,
    InfeasibleError,
    ParameterError,
    SizeBoundError,
    StructuralError,
)

# table entries this close to the strip edge leave the verdict (1/cos blowup)
EDGE_COS = 0.05

# Two points share a fiber when their closed-form fiber distance is at
# most FIBER_H.  On bench nets 0, 3 and 5 at 7 to 81 levels, the nearest
# same-fiber partner of a point reads at most 2.3e-7 on the closed form
# (arcosh rounding near 1), 5.2e-5 on 257-knot cos tables and 3.0e-3 on
# 33-knot ones, which 1e-3 would split from 21 levels on; distinct fibers
# sit at least 0.166 apart there and 0.333 on the circle fixture.
FIBER_H = 1e-2

# line params must reproduce the sampled time separations this closely
LINE_TOL = 1e-6

# a longest chain shorter than this is no usable line
MIN_VALUE = 2.0

# The fiber search and the splitting audit work on blocks of about this
# many point pairs, so each float64 temporary stays within 512 KB.
_BLOCK_CELLS = 1 << 16


class Fiber(NamedTuple):
    """Points in time order at their strip times: a fiber, or the line
    (see line_from_chain); _c_entries reads indices and params."""

    indices: tuple
    params: tuple


@dataclass(frozen=True)
class SplittingResult:
    """Audit of the reconstructed warped product against the space.

    samples lists (slice label, time param, space index) triples, one
    per point of the line's timelike domain, at its time on its fiber
    (see extract_slice); residual is the largest difference between
    sampled and reconstructed signed time separations over all sample
    pairs; mismatches counts pairs whose causal class disagrees beyond
    the near-cone collar, forgiven the ones inside it.  diagnostics holds
    what the slice extraction saw (see extract_slice); the split report
    does not carry it.
    """

    slice_space: wp.FiniteMetricSpace
    samples: tuple
    residual: float
    mismatches: int
    forgiven: int
    tol: float
    collar: float
    verdict: bool
    diagnostics: dict = field(default_factory=dict)


def line_from_chain(X: cs.FiniteCausalSpace, chain: cs.Chain) -> Fiber:
    """The line a timelike chain gives, placed in the strip.

    This is the one check of a line: at least two points, indices in
    range, a value below pi (a longer chain cannot fit inside the
    strip), no null step, and steps that reproduce the sampled time
    separations within LINE_TOL.  The params are centered, running
    from -value / 2 to value / 2.
    """
    n = X.size
    if len(chain.indices) < 2:
        raise ParameterError("a line sample needs at least two points")
    for k in chain.indices:
        if not 0 <= k < n:
            raise ParameterError(f"chain index {k} out of range for {n} points")
    value = chain.value
    if not value < math.pi:
        raise SizeBoundError(f"chain value {value!r} reaches the size bound pi")
    half = value / 2.0
    line = Fiber(tuple(int(k) for k in chain.indices), tuple(q - half for q in chain.params))
    steps = list(zip(line.indices, line.indices[1:], line.params, line.params[1:]))
    if any(qb - qa <= 0.0 for _, _, qa, qb in steps):
        raise ChainError("chain contains a null step and cannot be a line sample")
    for a, b, qa, qb in steps:
        if abs(float(X.tau[a, b]) - (qb - qa)) > LINE_TOL:
            raise ParameterError(
                f"chain params do not match the sampled time separations at pair ({a}, {b})"
            )
    return line


def find_line(X: cs.FiniteCausalSpace) -> cs.Chain:
    """Longest chain in the space, the line split starts from.

    Starts from the pair maximizing tau (first flat index on ties, so
    the result is deterministic) and walks the longest chain between
    them; a value below MIN_VALUE means the space has no usable line.
    """
    # np.argmax copies a read-only array in full; the first maximum
    # found through one n x n bool gives the same flat index
    flat = int(np.flatnonzero(X.tau == X.tau.max())[0])
    i, j = np.unravel_index(flat, X.tau.shape)
    if X.tau[i, j] <= 0.0:
        raise InfeasibleError("the space has no timelike related pair")
    chain = cs.longest_chain(X, int(i), int(j))
    if chain.value < MIN_VALUE:
        raise InfeasibleError(
            f"longest chain value {chain.value!r} is below min_value {MIN_VALUE!r}"
        )
    return chain


def _median_step(line: Fiber) -> float:
    return float(np.median(np.diff(line.params)))


def _model_times(X: cs.FiniteCausalSpace, g_idx: np.ndarray, g_par: np.ndarray):
    """Per-point time coordinates fitted against the line.

    Solves cos tau = sin t sin T + cos t cos T cosh d for sin t from the
    last visible future row and the first visible past row of the line;
    two rows determine sin t without knowing the fiber distance d.  The
    rows straddle the point in time, so their parameter gap stays inside
    (0, pi) and the solve never degenerates.  Points lacking a strictly
    timelike row on either side are outside the line's timelike domain
    and get in_dom False.
    """
    n = X.size
    m = len(g_idx)
    txg = X.tau[:, g_idx]
    tgx = X.tau[g_idx, :].T
    fut = txg > 0.0
    pst = tgx > 0.0
    in_dom = fut.any(axis=1) & pst.any(axis=1)
    kf = m - 1 - np.argmax(fut[:, ::-1], axis=1)
    jp = np.argmax(pst, axis=1)
    rows = np.arange(n)
    t1 = g_par[kf]
    c1 = np.cos(txg[rows, kf])
    t2 = g_par[jp]
    c2 = np.cos(tgx[rows, jp])
    # u of the fit cos tau = u sin t + v cos t through the two rows
    with np.errstate(invalid="ignore", divide="ignore"):
        u = (c1 * np.cos(t2) - c2 * np.cos(t1)) / np.sin(t1 - t2)
    th = np.where(in_dom, np.arcsin(np.clip(u, -1.0, 1.0)), np.nan)
    return th, in_dom


def _c_entries(X: cs.FiniteCausalSpace, alpha: Fiber, beta: Fiber):
    """Every c-function entry of a pair of lines or fibers, as arrays.

    In the cos warped product two points at times s and t on fibers c
    apart satisfy cos tau = sin s sin t + cos s cos t cosh c whenever
    they are strictly timelike related, so every such pair of the two
    lines, in either direction, reads c itself.  Returns s, t, table
    (0 ab, 1 ba), value and edge, the entries within EDGE_COS of the
    strip edge, which _c_constant leaves out.  Entries run over the pairs
    row-major in (s, t), each ab entry before its ba entry.
    extract_slice reads only value and edge.
    """
    a, b = np.array(alpha.indices), np.array(beta.indices)
    # axis 2 puts the ab and ba entries of one parameter pair side by
    # side, so nonzero walks the pairs row-major with ab before ba
    pair_tau = np.stack([X.tau[np.ix_(a, b)], X.tau[np.ix_(b, a)].T], axis=2)
    i, j, table = (pair_tau > 0.0).nonzero()
    if len(table) == 0:
        raise ExtractionError("the lines share no timelike related parameter pairs")
    s = np.array(alpha.params)[i]
    t = np.array(beta.params)[j]
    # math.acosh, not np.arccosh: the two can differ in the last place,
    # and these values reach the reports
    value = ms._mapped(math.acosh, ms.ads_fiber_cosh(pair_tau[i, j, table], s, t))
    edge = np.minimum(np.cos(s), np.cos(t)) < EDGE_COS
    return s, t, table, value, edge


def _c_constant(value: np.ndarray, edge: np.ndarray):
    """Median of the kept entries and their largest distance from it."""
    kept = value[~edge]
    if len(kept):
        constant = float(np.median(kept))
        return constant, float(np.max(np.abs(kept - constant)))
    return float(np.median(value)), math.inf


def _floyd_warshall(dist: np.ndarray) -> np.ndarray:
    closed = dist.copy()
    for k in range(closed.shape[0]):
        closed = np.minimum(closed, closed[:, k][:, None] + closed[k, :][None, :])
    return closed


def _roots(parent: np.ndarray) -> np.ndarray:
    """Point every entry of the forest parent at its root, in place."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent[:] = up


def _join(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the trees of a[k] and b[k] for every k in the forest parent.

    Each round hooks the larger root of every pair still apart under the
    smaller one, so parent[x] <= x throughout and a root is the smallest
    member of its tree, whichever hook a round keeps.
    """
    while len(a):
        _roots(parent)
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        a, b = a[apart], b[apart]
        parent[np.maximum(ra, rb)[apart]] = np.minimum(ra, rb)[apart]


def _fiber_roots(X: cs.FiniteCausalSpace, th: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Smallest position in points of the fiber of each of points.

    The fibers are the connected components of the timelike pairs of
    points whose closed-form fiber distance, arcosh of ads_fiber_cosh at
    the fitted times th, is at most FIBER_H.  The pairs go through in
    blocks of rows, each against the points from its first row on, as in
    _audit, so neither a points x points matrix nor a list of every close
    pair is held at once.
    """
    m = len(points)
    parent = np.arange(m)
    bound = math.cosh(FIBER_H)
    block = max(1, _BLOCK_CELLS // m)
    for lo in range(0, m, block):
        rows, cols = points[lo:lo + block], points[lo:]
        ahead = X.tau[np.ix_(rows, cols)]
        behind = X.tau[np.ix_(cols, rows)].T
        fwd = ahead > 0.0
        # an infinite tau reads NaN, which is never close
        with np.errstate(invalid="ignore"):
            cosh = ms.ads_fiber_cosh(np.where(fwd, ahead, behind), th[rows][:, None], th[cols])
        r, c = np.nonzero((fwd | (behind > 0.0)) & (cosh <= bound))
        _join(parent, r + lo, c + lo)
    return _roots(parent)


def extract_slice(X: cs.FiniteCausalSpace, line: Fiber, diagnostics: dict = None):
    """The slice of fibers over a line and its parallel-distance metric.

    line is the Fiber that line_from_chain makes of the line's chain.
    Fits every point's time against the line and takes the fibers of the
    line's timelike domain by the closed-form fiber distance (see
    _fiber_roots).  Along a fiber tau is the elapsed time, so each fiber
    keeps the fitted time of its point nearest time zero, which labels
    it, and its other points read their times off tau to that point; a
    point unrelated to it keeps its own fitted time.  Each pair of
    fibers is metrized by the median of its c-function entries over
    both fibers at those times, and the fibers run by their smallest
    point.  Triangle violations are repaired by shortest paths up to
    metric_slack, twice the median line step or twice the worst c-table
    deviation observed, whichever is larger: distances are only as
    trustworthy as the tables they came from.  Larger violations fail
    the extraction, and so do two points at one time on one fiber, which
    the splitting map cannot tell apart.

    A diagnostics dict, when given, receives what the extraction saw,
    also when the metric fails: worst_dev, the largest c-table
    deviation; metric_slack as used; and slack, the largest triangle
    violation the repair found.

    Returns the slice and one Fiber per slice point, together holding
    every point of the line's timelike domain once.
    """
    g_idx, g_par = np.array(line.indices, dtype=int), np.array(line.params, dtype=float)
    th, in_dom = _model_times(X, g_idx, g_par)
    points = np.nonzero(in_dom)[0]
    if not len(points):
        raise ExtractionError("no point lies in the line's timelike domain")

    roots = _fiber_roots(X, th, points)
    fibers, labels = [], []
    for root in np.unique(roots):
        idx = points[roots == root]
        par = th[idx]
        anchor = idx[int(np.argmin(np.abs(par)))]
        fwd, bwd = X.tau[anchor, idx], X.tau[idx, anchor]
        par = np.where(fwd > 0.0, th[anchor] + fwd, np.where(bwd > 0.0, th[anchor] - bwd, par))
        order = np.lexsort((idx, par))
        idx, par = idx[order], par[order]
        same = np.flatnonzero(par[1:] == par[:-1])
        if len(same):
            p, q = (X.labels[k] for k in idx[same[0]:same[0] + 2])
            raise ExtractionError(
                f"points {p!r} and {q!r} lie on one fiber at one time {float(par[same[0]])!r}"
            )
        fibers.append(Fiber(tuple(idx.tolist()), tuple(par.tolist())))
        labels.append(X.labels[anchor])

    m = len(fibers)
    dist = np.zeros((m, m))
    worst_dev = 0.0
    for a in range(m):
        for b in range(a + 1, m):
            entries = _c_entries(X, fibers[a], fibers[b])
            constant, deviation = _c_constant(*entries[3:])
            dist[a, b] = dist[b, a] = constant
            if math.isfinite(deviation):
                worst_dev = max(worst_dev, deviation)
    metric_slack = max(2.0 * _median_step(line), 2.0 * worst_dev)
    if diagnostics is not None:
        diagnostics.update(worst_dev=worst_dev, metric_slack=float(metric_slack))

    repaired = _floyd_warshall(dist)
    slack = float(np.max(dist - repaired))
    if diagnostics is not None:
        diagnostics["slack"] = slack
    if slack > metric_slack:
        raise ExtractionError(
            f"parallel distances violate the triangle inequality by {slack!r}"
        )
    try:
        slice_space = wp.FiniteMetricSpace(tuple(labels), repaired)
    except StructuralError as exc:
        raise ExtractionError(f"parallel distances do not form a metric: {exc}")
    return slice_space, tuple(fibers)


def _audit(X: cs.FiniteCausalSpace, dist, xidx, bidx, svals, collar: float):
    """(residual, mismatches, forgiven) of the samples against the model.

    Sample k is space point xidx[k] on slice point bidx[k] at time
    svals[k], and dist is the slice metric.  Each pair of samples k < l
    is audited once, from both of its orientations: the residual is the
    largest |(tau(k, l) - tau(l, k)) - (w(k, l) - w(l, k))| with w the model
    separation, and the pair is a mismatch when the causal class of
    either orientation differs between space and model, forgiven when
    the model pair sits within collar of its null cone.

    The pairs go through in blocks of rows, each against the columns
    from its first row on, so every temporary holds at most about
    _BLOCK_CELLS cells.  An orientation reads the same entries, and the
    model the same operands, whatever the block, so the figures do not
    depend on it.
    """
    m = len(xidx)
    lam = np.log(np.tan(svals / 2.0 + math.pi / 4.0))
    block = max(1, _BLOCK_CELLS // m)
    worst = [0.0]
    mismatches = forgiven = 0
    for lo in range(0, m, block):
        rows, cols = slice(lo, lo + block), slice(lo, m)
        s, t = svals[rows], svals[cols]
        xr, xc = xidx[rows], xidx[cols]
        br, bc = bidx[rows], bidx[cols]
        at = np.arange(m - lo)
        pairs = at[None, :] > at[:len(s), None]
        later = t[None, :] > s[:, None]
        earlier = t[None, :] < s[:, None]
        # either orientation of the model pair reads d: the slice metric, a
        # Floyd-Warshall closure of a symmetric matrix, is exactly symmetric
        d = dist[np.ix_(br, bc)]
        leq_w, timelike_w, w = ms.ads_separation(s[:, None], t, d, later | earlier)
        cls_w = np.where(timelike_w, 2, leq_w.astype(np.int8))
        fwd = X.tau[np.ix_(xr, xc)]
        bwd = X.tau[np.ix_(xc, xr)].T
        gap = fwd - bwd
        gap -= np.where(later, w, -w)
        np.abs(gap, out=gap)
        worst.append(np.max(gap, initial=0.0, where=pairs))
        bad = np.zeros_like(pairs)
        for tau, leq, model in (
            (fwd, X.leq[np.ix_(xr, xc)], later),
            (bwd, X.leq[np.ix_(xc, xr)].T, earlier),
        ):
            cls_x = np.where(tau > 0.0, 2, leq.astype(np.int8))
            bad |= cls_x != np.where(model, cls_w, 0)
        bad &= pairs
        near_cone = np.abs(d - np.abs(lam[cols][None, :] - lam[rows][:, None])) <= collar
        hits = int(np.count_nonzero(bad & near_cone))
        forgiven += hits
        mismatches += int(np.count_nonzero(bad)) - hits
    return float(np.max(worst)), mismatches, forgiven


def build_splitting(
    X: cs.FiniteCausalSpace,
    gamma: cs.Chain,
    tol: float = None,
) -> SplittingResult:
    """Reconstruct the warped product over the line gamma and audit it.

    Every point of the line's timelike domain is a sample of the map
    (time param, slice point) -> space point, at its time on its fiber
    as extract_slice reads it.  The residual is the largest difference
    of signed time separations between the space and the cosine warped
    product over the recovered metric; causal-class disagreements are
    mismatches unless the pair sits within collar of the reconstructed
    null cone, where grid quantization decides the class, not geometry.
    The collar, and tol by default, are twice the median line step,
    read at the strip times line_from_chain gives the chain.
    """
    line = line_from_chain(X, gamma)
    step = _median_step(line)
    if tol is None:
        tol = 2.0 * step
    collar = 2.0 * step
    diagnostics = {}
    slice_space, fibers = extract_slice(X, line, diagnostics=diagnostics)
    samples = sorted(
        (label, q, idx)
        for label, fiber in zip(slice_space.labels, fibers)
        for q, idx in zip(fiber.params, fiber.indices)
    )
    svals = np.array([rec[1] for rec in samples])
    bidx = np.array([slice_space.index(rec[0]) for rec in samples])
    xidx = np.array([rec[2] for rec in samples])
    residual, mismatches, forgiven = _audit(X, slice_space.dist, xidx, bidx, svals, collar)

    return SplittingResult(
        slice_space=slice_space,
        samples=tuple(samples),
        residual=residual,
        mismatches=mismatches,
        forgiven=forgiven,
        tol=float(tol),
        collar=float(collar),
        verdict=(residual <= tol) and mismatches == 0,
        diagnostics=diagnostics,
    )

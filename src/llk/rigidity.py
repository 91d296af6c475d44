"""Splitting pipeline: lines, asymptotes, parallelism, slices.

Given a finite causal space containing a near-maximal timelike line,
the operations here recover warped-product structure: a two-row fit
against the line gives each point a time coordinate, asymptote
extraction groups points into fibers, the c-functions metrize the
fiber space, and the assembled map is audited entry by entry against
the cosine warped product over the recovered base.  Everything is
deterministic; no operation mutates its input space.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import causal_space as cs
from . import model_space as ms
from . import warped_product as wp
from .errors import (
    ChainError,
    ConvergenceError,
    ExtractionError,
    InfeasibleError,
    ParameterError,
    SizeBoundError,
    StructuralError,
)

# table entries this close to the strip edge leave the verdict (1/cos blowup)
EDGE_COS = 0.05

# fiber-membership defect below this is attributed to rounding, not geometry
MEMBER_FLOOR = 1e-6

# line params must reproduce the sampled time separations this closely
LINE_TOL = 1e-6

# parallel distances at or below this are treated as zero when grouping
ZERO_C = 1e-9

# a longest chain shorter than this is no usable line
MIN_VALUE = 2.0

# The splitting audit works on blocks of about this many sample pairs, so
# each float64 temporary stays within 512 KB.
_AUDIT_CELLS = 1 << 16

# Asymptote membership works on at most this many (point, point) cells
# at a time, which bounds each of its temporaries to 256 KB; blocks of
# 1 MB raise the peak memory of a 252-point split.
_MEMBER_CELLS = 1 << 15


@dataclass(frozen=True)
class LineSample:
    """Sampled timelike line of near-maximal length.

    indices lists the sample points in time order; params holds their
    time coordinates, strictly increasing with increments equal to the
    pairwise time separations, all inside (-pi/2, pi/2).
    """

    indices: tuple
    params: tuple

    def __post_init__(self):
        indices = tuple(int(k) for k in self.indices)
        params = tuple(float(q) for q in self.params)
        if len(indices) != len(params):
            raise ParameterError("indices and params must have equal length")
        if len(indices) < 2:
            raise ParameterError("a line sample needs at least two points")
        if len(set(indices)) != len(indices):
            raise ParameterError("line sample points must be distinct")
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ParameterError("line params must be strictly increasing")
        if not (-ms.HALF_PI < params[0] and params[-1] < ms.HALF_PI):
            raise ParameterError("line params must lie inside (-pi/2, pi/2)")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "params", params)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def value(self) -> float:
        return self.params[-1] - self.params[0]


@dataclass(frozen=True)
class SplittingResult:
    """Audit of the reconstructed warped product against the space.

    samples lists (slice label, time param, space index) triples, one
    per point of the line's timelike domain, plus one for each point on
    the representative asymptote of a fiber other than its own; residual
    is the largest difference between sampled and reconstructed signed
    time separations over all sample pairs; mismatches counts pairs
    whose causal class disagrees beyond the near-cone collar, forgiven
    the ones inside it.  diagnostics holds
    what the slice extraction saw (see extract_slice); the split report
    does not carry it.
    """

    slice_space: wp.FiniteMetricSpace
    asymptotes: tuple
    samples: tuple
    residual: float
    mismatches: int
    forgiven: int
    tol: float
    collar: float
    verdict: bool
    diagnostics: dict = field(default_factory=dict)


def line_from_chain(X: cs.FiniteCausalSpace, chain: cs.Chain) -> LineSample:
    """Line sample from a timelike chain, centered so params are symmetric.

    The params run from -value / 2 to value / 2; a chain at least pi
    long cannot fit inside the strip.
    """
    value = chain.value
    if not value < math.pi:
        raise SizeBoundError(f"chain value {value!r} reaches the size bound pi")
    if any(b - a <= 0.0 for a, b in zip(chain.params, chain.params[1:])):
        raise ChainError("chain contains a null step and cannot be a line sample")
    half = value / 2.0
    line = LineSample(chain.indices, tuple(q - half for q in chain.params))
    _require_line(X, line, "chain")
    return line


def find_line(X: cs.FiniteCausalSpace) -> LineSample:
    """Longest chain in the space, as a line sample.

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
    return line_from_chain(X, chain)


def _require_line(X: cs.FiniteCausalSpace, line: LineSample, name: str) -> None:
    n = X.size
    for k in line.indices:
        if not 0 <= k < n:
            raise ParameterError(f"{name} index {k} out of range for {n} points")
    for (a, b), (qa, qb) in zip(
        zip(line.indices, line.indices[1:]), zip(line.params, line.params[1:])
    ):
        if abs(float(X.tau[a, b]) - (qb - qa)) > LINE_TOL:
            raise ParameterError(
                f"{name} params do not match the sampled time separations "
                f"at pair ({a}, {b})"
            )


def _median_step(line: LineSample) -> float:
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


def _member_levels(g_par: np.ndarray, th: np.ndarray, in_dom: np.ndarray):
    """Nearest line level per point; valid within half the smallest step."""
    lev = np.abs(g_par[None, :] - th[:, None]).argmin(axis=1)
    half = float(np.min(np.diff(g_par))) / 2.0
    with np.errstate(invalid="ignore"):
        ok = in_dom & (np.abs(g_par[lev] - th) <= half)
    return lev, ok


def _membership_defect(X: cs.FiniteCausalSpace, th: np.ndarray, points) -> np.ndarray:
    """Comparison-plane distance between each of points and every point.

    For a timelike pair at times s, t the quantity
    arcosh((cos tau - sin s sin t) / (cos s cos t)) is the spacelike
    separation of the pair's fibers in a two-fiber comparison strip;
    points on the asymptote through p make it vanish.  Row r holds the
    defects of points[r]; pairs without a timelike relation get +inf.
    """
    ahead = X.tau[points]
    behind = X.tau[:, points].T
    fwd = ahead > 0.0
    rev = behind > 0.0
    tau_px = np.where(fwd, ahead, behind)
    # the closed form _c_entries reads c from, but through np.arccosh, not
    # its math.acosh: the two differ in the last place on about a quarter
    # of these defects, which only rank the candidates, and a scalar loop
    # over the 0.87 M defects of a 972-point split takes about 0.15 s,
    # twice the whole batched selection
    with np.errstate(invalid="ignore", divide="ignore"):
        h = np.arccosh(ms.ads_fiber_cosh(tau_px, th[points][:, None], th))
    return np.where(fwd | rev, h, np.inf)


def _member_sets(
    X: cs.FiniteCausalSpace,
    th: np.ndarray,
    lev: np.ndarray,
    ok: np.ndarray,
    points: np.ndarray,
) -> list:
    """Asymptote membership through each of points, in time order.

    For a point p: keeps at most one point per line level (the smallest
    defect, ties toward the smaller index), always including p itself,
    drops levels whose defect exceeds three times the median (floored so
    rounding noise never splits a fiber), and finally prunes to the
    longest timelike-chained subsequence through p, so noisy near-ties
    cannot leave an unchainable selection behind.

    The points go through in blocks of rows against all candidates at
    once.  When every pair of a selection is timelike related in time
    order, the longest chain into position k has all k + 1 positions and
    only position k - 1 reaches that length, so the chain through p is
    the whole selection; only selections failing that test run the DP.
    Returns one member tuple per point.
    """
    n = X.size
    # candidates run by (level, index), so the first achiever of a level's
    # smallest defect is its smallest index
    cols = np.nonzero(ok)[0]
    cols = cols[np.argsort(lev[cols], kind="stable")]
    starts = np.flatnonzero(np.diff(lev[cols], prepend=-1))
    widths = np.diff(starts, append=len(cols))
    levels = lev[cols[starts]]
    at = np.arange(len(cols))
    # pad entries are index n, at time +inf, so they sort last
    th_pad = np.append(th, np.inf)
    # whether every pair of a selection is timelike related in time order;
    # the many points on one fiber share one selection, tested once
    chained = {}
    out = []
    block = max(1, _MEMBER_CELLS // n)
    for first in range(0, len(points), block):
        rows = points[first:first + block]
        size = len(rows)
        h = _membership_defect(X, th, rows)[:, cols]
        h[~np.isfinite(h)] = np.inf  # NaN defects never win a level
        low = np.minimum.reduceat(h, starts, axis=1)
        achiever = np.where(h == np.repeat(low, widths, axis=1), at, len(cols))
        best = cols[np.minimum.reduceat(achiever, starts, axis=1)]
        # p owns its level and joins with defect 0
        valid = np.isfinite(low) & (levels[None, :] != lev[rows][:, None])
        defects = np.where(valid, low, np.inf)
        defects = np.concatenate([defects, np.zeros((size, 1))], axis=1)
        members = np.where(valid, best, n)
        members = np.concatenate([members, rows[:, None]], axis=1)
        # the +inf of the empty levels sorts last, past the median
        count = valid.sum(axis=1) + 1
        median = np.sort(defects, axis=1)[np.arange(size), count // 2]
        cutoff = np.maximum(3.0 * median, MEMBER_FLOOR)
        keep = defects <= cutoff[:, None]
        members = np.where(keep, members, n)
        order = np.lexsort((members, th_pad[members]))
        members = np.take_along_axis(members, order, axis=1)
        defects = np.take_along_axis(defects, order, axis=1)
        for p, sel, dfs, k in zip(
            rows.tolist(), members.tolist(), defects.tolist(), keep.sum(axis=1).tolist()
        ):
            sel = tuple(sel[:k])
            if sel not in chained:
                linked = X.tau[np.ix_(sel, sel)] > 0.0
                chained[sel] = bool(linked[np.triu_indices(k, 1)].all())
            if chained[sel]:
                out.append(sel)
            else:
                out.append(tuple(_chained_through(X, list(zip(sel, dfs[:k])), p)))
    return out


def _chained_through(X: cs.FiniteCausalSpace, picked, p: int):
    """Longest timelike-chained subsequence passing through p.

    picked holds (index, defect) pairs in time order including p.  Two
    independent passes find the best chain ending at p from the left
    and starting at p to the right; candidates compare by length first,
    then by smaller summed defect, then by earlier position, so the
    result is deterministic.
    """
    order = [x for x, _ in picked]
    defect = np.array([v for _, v in picked], dtype=float)
    n = len(order)
    linked = X.tau[np.ix_(order, order)] > 0.0
    ip = order.index(p)
    left = _chain_positions(linked[: ip + 1, : ip + 1], defect[: ip + 1])
    right = _chain_positions(linked[ip:, ip:][::-1, ::-1].T, defect[ip:][::-1])
    return [order[k] for k in left[:-1]] + [order[n - 1 - k] for k in right[::-1]]


def _chain_positions(linked: np.ndarray, defect: np.ndarray) -> list:
    """Best chain ending at the last position, as positions in order.

    linked[y, x] says position y may precede position x.  Each position
    takes, over its linked predecessors, the largest length, then the
    smallest summed defect, then the earliest position.
    """
    k = len(defect)
    length = np.ones(k, dtype=int)
    total = defect.copy()
    prev = np.full(k, -1)
    for x in range(1, k):
        ys = np.nonzero(linked[:x, x])[0]
        if len(ys) == 0:
            continue
        ys = ys[length[ys] == length[ys].max()]
        sums = total[ys] + defect[x]
        at = int(np.argmin(sums))
        length[x] = length[ys[at]] + 1
        total[x] = sums[at]
        prev[x] = ys[at]
    out = []
    x = k - 1
    while x >= 0:
        out.append(x)
        x = int(prev[x])
    return out[::-1]


def _chain_into_line(X: cs.FiniteCausalSpace, members, th) -> LineSample:
    """Members parametrized by cumulative tau.

    members are a timelike-chained selection in (time, index) order, as
    _member_sets gives them.  The anchor is the member nearest time zero;
    its fitted time is kept exactly and the rest accumulate sampled
    separations outward, so the params reproduce tau along the line.
    """
    idx = np.array(members)
    steps = X.tau[idx[:-1], idx[1:]]
    a = min(range(len(members)), key=lambda i: (abs(th[members[i]]), i))
    par = np.zeros(len(members))
    par[a + 1:] = np.cumsum(steps[a:])
    par[:a] = -np.cumsum(steps[:a][::-1])[::-1]
    params = th[members[a]] + par
    span = float(params[-1] - params[0])
    if not span < math.pi:
        raise ConvergenceError(f"selected points span {span!r}, at least pi")
    return LineSample(members, params)


def _c_entries(X: cs.FiniteCausalSpace, alpha: LineSample, beta: LineSample, edge_cos):
    """Every c-function entry of a line pair, as arrays.

    In the cos warped product two points at times s and t on fibers c
    apart satisfy cos tau = sin s sin t + cos s cos t cosh c whenever
    they are strictly timelike related, so every such pair of the two
    lines, in either direction, reads c itself.  Returns s, t, table
    (0 ab, 1 ba), value and edge, the entries within edge_cos of the
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
    args = ms.ads_fiber_cosh(pair_tau[i, j, table], s, t).tolist()
    value = np.fromiter(map(math.acosh, args), float, len(args))
    edge = np.minimum(np.cos(s), np.cos(t)) < edge_cos
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


def _components(m: int, joined) -> list:
    """Groups of range(m) connected by the pairs a < b with joined(a, b).

    Each group lists its members in increasing order, and the groups come
    ordered by their smallest member.
    """
    parent = list(range(m))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(m):
        for b in range(a + 1, m):
            if joined(a, b):
                parent[root(b)] = root(a)
    groups = {}
    for a in range(m):
        groups.setdefault(root(a), []).append(a)
    return sorted(groups.values(), key=min)


def extract_slice(
    X: cs.FiniteCausalSpace,
    gamma: LineSample,
    metric_slack: float = None,
    diagnostics: dict = None,
):
    """The slice of fibers over gamma and its parallel-distance metric.

    Constructs the asymptote through every point of the line's timelike
    domain, groups points whose asymptotes share the same member set,
    merges groups at parallel distance zero (at most ZERO_C), and
    metrizes the result by pairwise parallel distance.
    Labels come from each group's member nearest time zero.  Triangle
    violations are repaired by shortest paths up to metric_slack, which
    defaults to twice the median line step or twice the worst c-table
    deviation observed, whichever is larger: distances are only as
    trustworthy as the tables they came from.  Larger violations fail
    the extraction.

    A diagnostics dict, when given, receives what the extraction saw,
    also when the metric fails: worst_dev, the largest c-table
    deviation; metric_slack as used; asymptote_keys, the distinct member
    sets; merged_variants, the keys merged into another family's head;
    and slack, the largest triangle violation the repair found.

    Returns the slice, the representative line of each slice point, and
    one (slice index, point, fitted time) triple per point of the line's
    timelike domain, in index order.
    """
    _require_line(X, gamma, "gamma")
    g_idx, g_par = np.array(gamma.indices, dtype=int), np.array(gamma.params, dtype=float)
    th, in_dom = _model_times(X, g_idx, g_par)
    lev, ok = _member_levels(g_par, th, in_dom)

    # asymptotes through many points share one member tuple, which is
    # also the indices of its line
    points = np.nonzero(in_dom)[0]
    point_keys = _member_sets(X, th, lev, ok, points)
    for p, members in zip(points.tolist(), point_keys):
        if len(members) < 3:
            raise ConvergenceError(
                f"asymptote through point {p} keeps only {len(members)} stable members"
            )
    counts = Counter(point_keys)
    keys = sorted(counts, key=lambda k: (min(k), k))

    # asymptotes through a shared point coincide in the limit, so key
    # variants sharing a majority of members are the same fiber read
    # through noise; merge them before any distance is trusted
    sets = [set(k) for k in keys]

    def variants(a, b):
        return len(sets[a] & sets[b]) > min(len(sets[a]), len(sets[b])) / 2.0

    # each family speaks through the key produced by the most points:
    # the majority reading of the fiber, not whichever variant happened
    # to contain the smallest index
    families = _components(len(keys), variants)
    heads = [min(ks, key=lambda a: (-counts[keys[a]], keys[a])) for ks in families]
    head_lines = [_chain_into_line(X, keys[h], th) for h in heads]

    m = len(heads)
    dist = np.zeros((m, m))
    worst_dev = 0.0
    for a in range(m):
        for b in range(a + 1, m):
            entries = _c_entries(X, head_lines[a], head_lines[b], EDGE_COS)
            constant, deviation = _c_constant(*entries[3:])
            dist[a, b] = dist[b, a] = constant
            if math.isfinite(deviation):
                worst_dev = max(worst_dev, deviation)
    if metric_slack is None:
        metric_slack = max(2.0 * _median_step(gamma), 2.0 * worst_dev)
    if diagnostics is not None:
        diagnostics.update(
            worst_dev=worst_dev,
            metric_slack=float(metric_slack),
            asymptote_keys=len(keys),
            merged_variants=len(keys) - m,
        )

    # Only zero distances merge: a threshold of half the smallest distance
    # above ZERO_C, floored at ZERO_C, would merge the same pairs, because
    # every distance above ZERO_C is at least that smallest one.
    groups = _components(m, lambda a, b: dist[a, b] <= ZERO_C)
    reps = [group[0] for group in groups]
    rep_lines = [head_lines[r] for r in reps]

    labels = []
    seen = set()
    for line in rep_lines:
        at = min(range(line.size), key=lambda i: (abs(line.params[i]), i))
        label = X.labels[line.indices[at]]
        while label in seen:
            label += "'"
        seen.add(label)
        labels.append(label)

    k = len(reps)
    if not k:
        raise ExtractionError("no point lies in the line's timelike domain")
    d_s = dist[np.ix_(reps, reps)]
    repaired = _floyd_warshall(d_s)
    slack = float(np.max(d_s - repaired))
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
    # a point's slice point is the zero-distance group of its key's family
    slot = {keys[a]: b for b, group in enumerate(groups) for f in group for a in families[f]}
    fibers = tuple((slot[k], p, float(th[p])) for p, k in zip(points.tolist(), point_keys))
    return slice_space, tuple(rep_lines), fibers


def _audit(X: cs.FiniteCausalSpace, dist, xidx, bidx, svals, collar: float):
    """(residual, mismatches, forgiven) of the samples against the model.

    Sample k is space point xidx[k] on slice point bidx[k] at time
    svals[k], and dist is the slice metric.  Each pair of samples k < l
    at distinct space points is audited once, from both of its
    orientations: the residual is the largest
    |(tau(k, l) - tau(l, k)) - (w(k, l) - w(l, k))| with w the model
    separation, and the pair is a mismatch when the causal class of
    either orientation differs between space and model, forgiven when
    the model pair sits within collar of its null cone.

    The pairs go through in blocks of rows, each against the columns
    from its first row on, so every temporary holds at most about
    _AUDIT_CELLS cells.  An orientation reads the same entries, and the
    model the same operands, whatever the block, so the figures do not
    depend on it.
    """
    m = len(xidx)
    lam = np.log(np.tan(svals / 2.0 + math.pi / 4.0))
    block = max(1, _AUDIT_CELLS // m)
    worst = [0.0]
    mismatches = forgiven = 0
    for lo in range(0, m, block):
        rows, cols = slice(lo, lo + block), slice(lo, m)
        s, t = svals[rows], svals[cols]
        xr, xc = xidx[rows], xidx[cols]
        br, bc = bidx[rows], bidx[cols]
        at = np.arange(m - lo)
        pairs = (at[None, :] > at[:len(s), None]) & (xr[:, None] != xc[None, :])
        later = t[None, :] > s[:, None]
        earlier = t[None, :] < s[:, None]
        # either orientation of the model pair reads d: the slice metric, a
        # Floyd-Warshall closure of a symmetric matrix, is exactly symmetric
        d = dist[np.ix_(br, bc)]
        leq_w, timelike_w, w = ms.ads_separation(s, t, d, later | earlier)
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
    gamma: LineSample,
    tol: float = None,
) -> SplittingResult:
    """Reconstruct the warped product over the slice and audit it.

    Every point of the line's timelike domain is a sample of the map
    (time param, slice point) -> space point: the points of the
    representative asymptotes at their line params, every other point
    at its fitted time on its own fiber.  The residual is the largest
    difference of signed time separations between the space and the
    cosine warped product over the recovered metric; causal-class
    disagreements are mismatches unless the pair sits within collar of
    the reconstructed null cone, where grid quantization decides the
    class, not geometry.
    The collar, and tol by default, are twice the median line step.
    """
    step = _median_step(gamma)
    if tol is None:
        tol = 2.0 * step
    collar = 2.0 * step
    diagnostics = {}
    slice_space, asymptotes, fibers = extract_slice(X, gamma, diagnostics=diagnostics)

    samples = []
    for b, line in enumerate(asymptotes):
        for q, idx in zip(line.params, line.indices):
            samples.append((slice_space.labels[b], float(q), int(idx)))
    # a fiber read through a merged variant key has no line of its own,
    # so its points join at their fitted times rather than escape the audit
    on_line = {(b, idx) for b, line in enumerate(asymptotes) for idx in line.indices}
    samples.extend(
        (slice_space.labels[b], t, p) for b, p, t in fibers if (b, p) not in on_line
    )
    samples.sort(key=lambda rec: (rec[0], rec[1]))
    svals = np.array([rec[1] for rec in samples])
    bidx = np.array([slice_space.index(rec[0]) for rec in samples])
    xidx = np.array([rec[2] for rec in samples])
    residual, mismatches, forgiven = _audit(X, slice_space.dist, xidx, bidx, svals, collar)

    return SplittingResult(
        slice_space=slice_space,
        asymptotes=asymptotes,
        samples=tuple(samples),
        residual=residual,
        mismatches=mismatches,
        forgiven=forgiven,
        tol=float(tol),
        collar=float(collar),
        verdict=(residual <= tol) and mismatches == 0,
        diagnostics=diagnostics,
    )

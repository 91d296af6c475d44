"""Lorentzian warped products over finite metric spaces.

A warped product I x_f Y carries the line element -dt^2 + f(t)^2 d_Y^2
over an open interval I with positive warping f.  Time separation and
causal classification of two points reduce to the two-dimensional
comparison strip: only the base distance enters.  The cos warping on
(-pi/2, pi/2) reproduces the model strip exactly; constant warpings are
Minkowski strips; tabulated warpings are piecewise linear, and along a
geodesic with conserved quantity p = f(t)^2 x' every integral over a
linear piece is elementary, so they are summed exactly per piece.

Sampling a finite metric space against a time grid yields a finite
causal space; one fill serves every kind, computing each separation once
per pair of time levels and distinct base distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import model_space as ms
from .causal_space import FiniteCausalSpace
from .errors import (
    ConvergenceError,
    DomainError,
    ParameterError,
    StructuralError,
)

COS = "cos"
CONSTANT = "constant"
TABLE = "table"

# Matching the model-space convention: base displacements within this
# band of the null offset classify as null.
NULL_BAND = 1e-9

# Metric axioms are audited with this slack.
METRIC_TOL = 1e-9

# Cap on the Newton steps of the table separation solver.
_MAX_STEPS = 200

# The table solver works on at most this many (displacement, piece)
# cells at a time, which bounds its temporaries to a few MB.
_SOLVE_CELLS = 1 << 18


@dataclass(frozen=True)
class WarpingSpec:
    """Warping function over an open interval.

    kind "cos" fixes the interval to (-pi/2, pi/2); kind "constant"
    carries a positive value; kind "table" interpolates linearly between
    strictly increasing knots spanning the interval, with all values
    positive.
    """

    kind: str
    interval: tuple
    value: float = None
    knots: tuple = None
    values: tuple = None

    def __post_init__(self):
        if self.kind not in (COS, CONSTANT, TABLE):
            raise StructuralError(f"unknown warping kind {self.kind!r}")
        a, b = (float(v) for v in self.interval)
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise StructuralError(f"interval {self.interval!r} is not a finite open interval")
        object.__setattr__(self, "interval", (a, b))
        if self.kind == COS:
            if abs(a + ms.HALF_PI) > 1e-12 or abs(b - ms.HALF_PI) > 1e-12:
                raise StructuralError("cos warping lives on (-pi/2, pi/2)")
            if self.value is not None or self.knots is not None or self.values is not None:
                raise StructuralError("cos warping takes no extra parameters")
        elif self.kind == CONSTANT:
            if self.value is None or not (math.isfinite(self.value) and self.value > 0.0):
                raise StructuralError(f"constant warping needs a positive value, got {self.value!r}")
            if self.knots is not None or self.values is not None:
                raise StructuralError("constant warping takes no knots")
        else:
            if self.value is not None:
                raise StructuralError("table warping takes no constant value")
            if self.knots is None or self.values is None:
                raise StructuralError("table warping needs knots and values")
            knots = tuple(float(v) for v in self.knots)
            values = tuple(float(v) for v in self.values)
            if len(knots) < 2 or len(knots) != len(values):
                raise StructuralError("table needs equally many knots and values, at least two")
            if any(u >= v for u, v in zip(knots, knots[1:])):
                raise StructuralError("table knots must be strictly increasing")
            if any(not (math.isfinite(v) and v > 0.0) for v in values):
                raise StructuralError("table values must be positive and finite")
            if knots[0] > a + 1e-12 or knots[-1] < b - 1e-12:
                raise StructuralError("table knots must span the interval")
            object.__setattr__(self, "knots", knots)
            object.__setattr__(self, "values", values)

    @cached_property
    def table(self):
        """Knots and values of a table as read-only float arrays."""
        arrays = np.array(self.knots), np.array(self.values)
        for a in arrays:
            a.setflags(write=False)
        return arrays


def cos_warping() -> WarpingSpec:
    return WarpingSpec(COS, (-ms.HALF_PI, ms.HALF_PI))


def constant_warping(value: float, interval) -> WarpingSpec:
    return WarpingSpec(CONSTANT, tuple(interval), value=float(value))


def table_warping(knots, values) -> WarpingSpec:
    knots = tuple(float(v) for v in knots)
    # the interval is read off the end knots
    if len(knots) < 2 or len(knots) != len(values):
        raise StructuralError("table needs equally many knots and values, at least two")
    return WarpingSpec(TABLE, (knots[0], knots[-1]), knots=knots, values=tuple(values))


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labelled finite metric space with a validated distance matrix."""

    labels: tuple
    dist: np.ndarray

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        n = len(labels)
        if n == 0:
            raise StructuralError("a metric space needs at least one point")
        if len(set(labels)) != n:
            raise StructuralError("labels must be unique")
        dist = np.array(self.dist, dtype=float)
        if dist.shape != (n, n):
            raise StructuralError(f"dist shape {dist.shape} does not match {n} labels")
        if not np.isfinite(dist).all():
            raise StructuralError("distances must be finite")
        if (np.diag(dist) != 0.0).any():
            raise StructuralError("dist diagonal must be zero")
        if np.abs(dist - dist.T).max() > 1e-12:
            raise StructuralError("dist must be symmetric")
        off = ~np.eye(n, dtype=bool)
        if n > 1 and not (dist[off] > 0.0).all():
            raise StructuralError("off-diagonal distances must be positive")
        for k in range(n):
            slack = dist - (dist[:, k][:, None] + dist[k, :][None, :])
            if slack.max() > METRIC_TOL:
                i, j = np.unravel_index(np.argmax(slack), slack.shape)
                raise StructuralError(
                    f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
                )
        dist.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", dist)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ParameterError(f"unknown base point label {label!r}") from None


def _check_inside(f: WarpingSpec, name: str, t: float) -> None:
    a, b = f.interval
    if not (a < t < b):
        raise DomainError(f"{name} = {t!r} outside the open interval ({a!r}, {b!r})")


def _table_pieces(f: WarpingSpec, lo: float, hi: float):
    """Width and end values (w, f0, f1) of each linear piece of the
    table on [lo, hi], which is split at the interior knots."""
    knots, values = f.table
    inner = knots[(knots > lo) & (knots < hi)]
    edges = np.concatenate(([lo], inner, [hi]))
    vals = np.interp(edges, knots, values)
    return np.diff(edges), vals[:-1], vals[1:]


def null_offset(f: WarpingSpec, t0: float, t1: float) -> float:
    """Maximal base displacement causally reachable from time t0 to t1.

    This is the integral of 1/f: closed form for cos and constant
    warpings, and for tables the sum over the linear pieces of
    log(f1/f0)/b = (w/f0) log1p(u)/u with slope b and u = (f1 - f0)/f0.
    """
    _check_inside(f, "t0", t0)
    _check_inside(f, "t1", t1)
    if t0 > t1:
        raise ParameterError(f"need t0 <= t1, got {t0!r} > {t1!r}")
    if t0 == t1:
        return 0.0
    if f.kind == COS:
        return ms.conformal_time(t1) - ms.conformal_time(t0)
    if f.kind == CONSTANT:
        return (t1 - t0) / f.value
    return _table_reach(_table_pieces(f, t0, t1))


def _table_reach(pieces) -> float:
    """Null offset across the linear pieces (w, f0, f1) of a table.

    A piece rising from a value so small that u = (f1 - f0)/f0
    overflows takes its w log(f1/f0)/(f1 - f0) from the two logs, where
    log1p(u)/u would be inf/inf.  Past the float range the reach is inf.
    """
    w, f0, f1 = pieces
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = (f1 - f0) / f0
        reach = w / f0 * np.where(u == 0.0, 1.0, np.log1p(u) / u)
        steep = u == math.inf
        reach[steep] = (w * (np.log(f1) - np.log(f0)) / (f1 - f0))[steep]
        return float(np.sum(reach))


def _table_tau(pieces, elapsed: float, dx: np.ndarray, reach: float) -> np.ndarray:
    """Time separations over a table warping, one per base displacement
    in dx, from the geodesic whose conserved quantity p = f^2 x' carries
    it across that displacement.  pieces are the (w, f0, f1) of the table
    from time lo to hi = lo + elapsed, reach is the null offset across
    them, and every dx must lie short of it.

    On a linear piece of width w from f0 to f1, with r = sqrt(f^2 + p^2)
    and q = p / (f0 f1 (r0 + r1)), the integrals along the geodesic are
    elementary: the base displacement, the integral of p/(f r), is
    z arsinh(v)/v with z = q w (f0 + f1) and v = q (f1^2 - f0^2); its
    derivative in p is w (f0 + f1) / (r0 r1 (r0 + r1)); the proper time,
    the integral of f/r, is w (f0 + f1) / (r0 + r1).  The displacement
    increases in p toward exactly the null offset, and is concave, so
    from above the root one Newton step lands at or below it, and from
    there the steps climb to it without overshooting; a bracket with
    bisection guards them against rounding.

    Each lane starts at the root for the constant warping with the same
    null offset, fbar = (hi - lo) / reach: there x' = dx / (hi - lo) is
    p / (fbar r), so p0 = fbar rho / sqrt(1 - rho^2) with rho = dx / reach
    (rho < 1 short of the cone), the exact root when f is constant.  One
    sample of a bench table takes 42 radius evaluations when it is flat,
    143 at 33 and at 2,049 knots.

    The solve runs in units scaled by one power of two c that puts the
    largest value of f in [1/2, 1): t -> c t, f -> c f, p -> c p maps
    the strip onto itself with every time separation scaled by c, so each
    intermediate is that of the unscaled solve, bit for bit, wherever the
    latter neither overflows nor underflows, and tables of any magnitude
    solve alike.  The radii r = sqrt(f^2 + p^2) take one sqrt per knot
    over squares of f computed once per solve; the two pieces that meet
    at a knot share its radius, copied into contiguous r0 and r1.
    Separations agree with a 50-digit solve to within the conditioning
    of the problem, about 2e-10 relative at dx = (1 - 1e-6) reach.

    A lane whose start p0 squares to 0 takes tau = elapsed without a
    solve: at dx = 0, past an infinite reach, and where tiny values make
    the reach dwarf dx, so that the radii of the knots whose f^2
    underflows would be 0.  The displacement is at least
    p reach / (max f + p), so the root is at most max(f) rho / (1 - rho);
    and elapsed - tau < p dx, as 1 - f/r = p f / (r + f) is below p times
    p / (f r).  In scaled units, with p0^2 below 2^-1074, that is below
    half an ulp of elapsed wherever fbar is above 2^-340.

    Every displacement is one lane of (lanes, pieces) arrays with its
    own bracket, and leaves the active set once its own stopping rule
    holds.  Each lane's sums run along a contiguous row, so a lane's
    result does not depend on which other lanes share the solve.
    """
    tau = np.full(len(dx), elapsed)
    if not tau.size:  # no lane, and perhaps a zero reach
        return tau
    w, f0, f1 = pieces
    # capped so that a table of subnormal values still has a finite scale
    scale = math.ldexp(1.0, min(-math.frexp(max(f0.max(), f1.max()))[1], 1022))
    fbar = elapsed * scale / reach
    rho = dx / reach
    start = fbar * rho / np.sqrt((1.0 - rho) * (1.0 + rho))
    lanes = np.flatnonzero(start * start > 0.0)
    if not lanes.size:
        return tau
    w, f0, f1 = w * scale, f0 * scale, f1 * scale
    prod, rise, total = f0 * f1, f1 - f0, f0 + f1
    span = w * total
    ends = np.append(f0, f1[-1])
    squares = ends * ends
    block = max(1, _SOLVE_CELLS // len(w))

    def radii(p):
        """Contiguous (r0, r1) at the two ends of every piece, one row per p."""
        r = np.sqrt(squares + (p * p)[:, None])
        return r[:, :-1].copy(), r[:, 1:].copy()

    for first in range(0, lanes.size, block):
        idx = lanes[first:first + block]
        target = dx[idx]
        p = start[idx]
        p_lo = np.zeros(idx.size)
        p_hi = np.full(idx.size, math.inf)
        for _ in range(_MAX_STEPS):
            r0, r1 = radii(p)
            s = r0 + r1
            q = p[:, None] / (prod * s)
            v = q * rise
            v *= total
            shrink = np.arcsinh(v)
            if not v.all():
                flat = v == 0.0
                v[flat] = shrink[flat] = 1.0
            shrink /= v
            q *= span
            q *= shrink
            gap = np.sum(q, axis=1) - target
            v = r0 * r1
            v *= s
            slope = np.sum(span / v, axis=1)
            hit = gap == 0.0
            below = gap < 0.0
            p_lo = np.where(below, p, p_lo)
            p_hi = np.where(below, p_hi, p)
            step = p - gap / slope
            nxt = np.where((p_lo < step) & (step < p_hi), step, 0.5 * (p_lo + p_hi))
            # after a Newton step this small the next one is below rounding;
            # near the cone, where the gap is flat in p, rounding noise can
            # instead keep the steps larger until the bracket collapses
            done = hit | (np.abs(nxt - p) <= 1e-12 * p) | (p_hi - p_lo <= 4e-16 * p_lo)
            p = np.where(hit, p, nxt)
            if done.any():
                r0, r1 = radii(p[done])
                tau[idx[done]] = np.sum(span / (r0 + r1), axis=1) / scale
                keep = ~done
                idx, target, p, p_lo, p_hi = idx[keep], target[keep], p[keep], p_lo[keep], p_hi[keep]
                if not idx.size:
                    break
        else:
            raise ConvergenceError(
                f"geodesic to displacement {float(dx[idx[0]])!r} did not converge"
            )
    return tau


def sample_warped_product(f: WarpingSpec, S: FiniteMetricSpace, t_grid) -> FiniteCausalSpace:
    """Finite causal space sampling I x_f S on a time grid.

    Points are ordered time-major: index = grid_index * |S| + base_index
    with labels "<base>@<grid_index>".  An entry depends only on its two
    time levels and its base distance, so _separations gives each (level
    pair, distinct distance) entry once, and the matrices are filled one
    level's rows at a time through the inverse map of the distances.
    """
    grid = _checked_grid(f.interval, t_grid)
    nb, levels = S.size, len(grid)
    n = nb * levels
    labels = tuple(f"{S.labels[b]}@{g}" for g in range(levels) for b in range(nb))
    coords = np.column_stack([np.repeat(grid, nb), np.tile(np.arange(nb), levels).astype(float)])
    dists, inv = np.unique(S.dist, return_inverse=True)
    inv = inv.reshape(nb, nb)
    tau = np.empty((n, n))
    leq = np.empty((n, n), dtype=bool)
    for a in range(levels):
        rows = slice(a * nb, (a + 1) * nb)
        for out, sep in zip((leq, tau), _separations(f, grid, a, dists)):
            # block (a, b) of the rows is sep[b] read through the distances
            out[rows].reshape(nb, levels, nb).transpose(1, 0, 2)[...] = sep[:, inv]
    return FiniteCausalSpace(labels, tau, leq, coords)


def _separations(f: WarpingSpec, grid, a: int, dists: np.ndarray):
    """(leq, tau) from time level a to every level b at each distinct base
    distance, as (levels, distances) arrays; pairs with b < a are unrelated.
    Cos classifies as the model strip, apart from pairs within one level,
    the others within NULL_BAND."""
    g = np.asarray(grid)
    if f.kind == COS:
        # the cos strip is symmetric in the two times: only the order
        # mask directs the pair from level a to level b
        leq, _, tau = ms.ads_separation(g[:, None], g[a:a + 1], dists, (g[a] <= g)[:, None])
        # within one level the cone test reads 1 + (cosh d - 1) cos^2 t,
        # which sinks into ARG_SLACK near the strip edge: two points of
        # one level are related only at base distance 0
        leq[a] = dists == 0.0
        return leq, tau
    if f.kind == CONSTANT:
        dt = (g - g[a])[:, None]
        order = dt >= 0.0
        # a tiny value overflows the reach to +inf, which every distance is within
        with np.errstate(over="ignore"):
            reach = np.where(order, dt, 0.0) / f.value
        leq = order & (dists <= reach + NULL_BAND)
        timelike = order & (dists < reach - NULL_BAND)
        with np.errstate(over="ignore", invalid="ignore"):
            rad = np.maximum(dt * dt - (f.value * dists) ** 2, 0.0)
        tau = np.where(timelike, np.sqrt(rad), 0.0)
        if not np.isfinite(tau).all():
            raise ParameterError(
                f"time separations from t = {grid[a]!r} overflow: the squared "
                "elapsed time is beyond the float range"
            )
        return leq, tau
    leq = np.zeros((len(g), len(dists)), dtype=bool)
    tau = np.zeros((len(g), len(dists)))
    for b in range(a, len(g)):
        # one set of pieces per time pair serves the reach and the solve
        pieces = _table_pieces(f, grid[a], grid[b])
        reach = _table_reach(pieces)
        leq[b] = dists <= reach + NULL_BAND
        timelike = dists < reach - NULL_BAND
        tau[b, timelike] = _table_tau(pieces, grid[b] - grid[a], dists[timelike], reach)
    return leq, tau


def _checked_grid(interval, t_grid):
    grid = [float(v) for v in t_grid]
    if not grid:
        raise ParameterError("t_grid must be nonempty")
    if any(u >= v for u, v in zip(grid, grid[1:])):
        raise ParameterError("t_grid must be strictly increasing")
    a, b = interval
    for v in grid:
        if not a < v < b:
            raise DomainError(f"grid time {v!r} outside the open interval ({a!r}, {b!r})")
    return grid


def sample_suspension(S: FiniteMetricSpace, t_grid) -> FiniteCausalSpace:
    """The cos case of sample_warped_product: classified as in the model
    strip, with the points of one level related only at base distance 0,
    the sample validates by construction up to the strip edge."""
    return sample_warped_product(cos_warping(), S, t_grid)

"""Closed-form geometry of the anti-de Sitter model strip.

The model space is the strip (-pi/2, pi/2) x R carrying the Lorentzian
metric -dt^2 + cos(t)^2 dx^2.  It embeds as a single causal patch of the
quadric {b(P, P) = -1} in R^{1,2}, where b has signature (-, -, +), via

    (t, x)  |->  (sin t, cos t cosh x, cos t sinh x),

and the time separation of causally related points is arccos of minus the
ambient inner product.  All operations here are exact closed forms: time
separation and causal classification, the timelike law of cosines with its
configuration sign, comparison-triangle realization, and unit-speed
geodesics together with their conformal-time bookkeeping.

Array kernels: ads_separation, the one array form of ads_interval, takes
broadcast pairs and a trig set, NUMPY_TRIG or MATH_TRIG (math entry by
entry, for ads_interval's bits in the curvature audits); ads_fiber_cosh
inverts it for the fiber distance, and comparison_angles gives
comparison_angle's signed angle over arrays, bit for bit.

llk fixes the curvature at K = -1 throughout and no caller rescales;
other K < 0 are ROADMAP item 8.
Inverse-trig arguments are clamped into their legal domain when within
ARG_SLACK of it and rejected otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InfeasibleError,
    ParameterError,
    ReverseTriangleError,
    SizeBoundError,
    UndefinedAngleError,
)

HALF_PI = math.pi / 2.0

# Slack for clamping arccos/arcosh arguments produced by float noise.
ARG_SLACK = 1e-9

# Quadric membership tolerance for ambient points.
QUADRIC_TOL = 1e-8

# Timelike sides must stay strictly below the model diameter pi.
MAX_SIDE = math.pi - 1e-6

TIMELIKE = "timelike"
NULL = "null"
UNRELATED = "unrelated"
PAST_DIRECTED = "past-directed"


def _clamp_unit(v: float) -> float:
    return -1.0 if v < -1.0 else (1.0 if v > 1.0 else v)


@dataclass(frozen=True)
class AdsPrimePoint:
    """Point (t, x) of the model strip, |t| < pi/2."""

    t: float
    x: float

    def __post_init__(self):
        if not abs(self.t) < HALF_PI:
            raise DomainError(f"t = {self.t!r} outside the open strip (-pi/2, pi/2)")
        if not math.isfinite(self.x):
            raise DomainError(f"x = {self.x!r} is not finite")


@dataclass(frozen=True)
class AmbientPoint:
    """Point of the quadric b(P, P) = -1 in R^{1,2}, b = diag(-1, -1, +1)."""

    s1: float
    s2: float
    z: float

    def __post_init__(self):
        norm = -self.s1 * self.s1 - self.s2 * self.s2 + self.z * self.z
        if not abs(norm + 1.0) <= QUADRIC_TOL:
            raise DomainError(f"b(P, P) = {norm!r}, expected -1 within {QUADRIC_TOL}")


@dataclass(frozen=True)
class IntervalResult:
    """Causal classification of an ordered pair plus its time separation.

    relation is one of "timelike", "null", "unrelated", "past-directed";
    tau is the forward time separation, so tau > 0 iff the pair is timelike
    in some order, and a past-directed result carries tau of the reversed
    pair.
    """

    relation: str
    tau: float


@dataclass(frozen=True)
class GeodesicParams:
    """Unit-speed timelike geodesic through (0, c) with rapidity omega.

    alpha(lam) = (arcsin(sin lam cosh w),
                  arsinh(sin lam sinh w / sqrt(1 - sin^2 lam cosh^2 w)) + c)

    defined for lam in the open domain (-lam_max, lam_max) below; an
    omega whose cosh is beyond the float range has no domain.
    """

    omega: float
    c: float

    def __post_init__(self):
        try:
            math.cosh(self.omega)
        except OverflowError:
            raise ParameterError(f"cosh({self.omega!r}) is beyond the float range") from None

    @property
    def domain(self) -> tuple[float, float]:
        if self.omega == 0.0:
            return (-HALF_PI, HALF_PI)
        lam = math.asin(1.0 / math.cosh(self.omega))
        return (-lam, lam)


@dataclass(frozen=True)
class TriangleRealization:
    """Comparison triangle in the model strip.

    The long side x1 -> x3 is vertical and centered on t = 0; sides maps
    "12", "23", "13" to (GeodesicParams, lam_start, lam_end) so that the
    side is traced future-directed at unit speed from lam_start.
    """

    x1: AdsPrimePoint
    x2: AdsPrimePoint
    x3: AdsPrimePoint
    sides: dict


def _tau_argument(p: AdsPrimePoint, q: AdsPrimePoint) -> float:
    return math.sin(p.t) * math.sin(q.t) + math.cos(p.t) * math.cos(q.t) * math.cosh(q.x - p.x)


def _classify(arg: float, ordered: bool) -> IntervalResult:
    """Shared classification: pairs with |arg - 1| <= ARG_SLACK sit on the
    cone within float noise and classify as null with tau = 0."""
    if arg > 1.0 + ARG_SLACK:
        return IntervalResult(UNRELATED, 0.0)
    if arg >= 1.0 - ARG_SLACK:
        return IntervalResult(NULL if ordered else PAST_DIRECTED, 0.0)
    tau = math.acos(_clamp_unit(arg))
    return IntervalResult(TIMELIKE if ordered else PAST_DIRECTED, tau)


def ads_interval(p: AdsPrimePoint, q: AdsPrimePoint) -> IntervalResult:
    """Causal relation and time separation of the ordered pair (p, q).

    p <= q iff the arccos argument is at most 1 and p.t <= q.t; then
    tau = arccos(sin t1 sin t2 + cos t1 cos t2 cosh(x2 - x1)).  A pair
    related the other way reports "past-directed" with the forward tau.
    Arguments within ARG_SLACK of 1 classify as null with tau = 0, so
    float noise at the cone cannot flip a classification.
    """
    return _classify(_tau_argument(p, q), p.t <= q.t)


def _mapped(f, values) -> np.ndarray:
    """f of math over an array, one call per entry: numpy's cosh, arccos
    and trigonometry differ from math's in the last place on some inputs,
    and the array kernels must give the scalar functions' bits."""
    values = np.asarray(values, dtype=float)
    return np.fromiter(map(f, values.ravel().tolist()), float, values.size).reshape(values.shape)


# (sin, cos, cosh, arccos) for ads_separation: numpy's ufuncs, or math's
# functions entry by entry, which give ads_interval's tau bit for bit
NUMPY_TRIG = (np.sin, np.cos, np.cosh, np.arccos)
MATH_TRIG = tuple(functools.partial(_mapped, f) for f in (math.sin, math.cos, math.cosh, math.acos))


def ads_separation(s, t, dx, order, trig=NUMPY_TRIG):
    """(leq, timelike, tau) of the pairs (s, t) at fiber distance dx.

    The inputs broadcast: pass s[:, None] for the outer product of two
    time vectors.  order says whether the pair may be future directed;
    the cone band and tau = arccos(arg), 0 off timelike pairs, are as in
    _classify, except that a NaN argument is unrelated.  With MATH_TRIG
    the classes and tau are ads_interval's bit for bit; with NUMPY_TRIG
    tau can differ from it in the last places (by up to about 3e-14).
    """
    sin, cos, cosh, arccos = trig
    arg = cosh(dx) * (cos(s) * cos(t)) + sin(s) * sin(t)
    leq = order & (arg <= 1.0 + ARG_SLACK)
    timelike = leq & (arg < 1.0 - ARG_SLACK)
    tau = arccos(np.clip(arg, -1.0, 1.0, out=arg))
    tau[~timelike] = 0.0
    return leq, timelike, tau


def ads_fiber_cosh(tau, s, t):
    """cosh of the fiber distance of a pair at times s, t and separation
    tau, inverting ads_separation; rounding below 1 is clamped to 1."""
    arg = (np.cos(tau) - np.sin(s) * np.sin(t)) / (np.cos(s) * np.cos(t))
    return np.maximum(arg, 1.0)


def _embed(p: AdsPrimePoint) -> tuple[float, float, float]:
    """(s1, s2, z) of embed_ads(p), without the quadric check: the
    rounding of b(P, P) grows like cosh(x)^2 and outruns QUADRIC_TOL on
    points that a valid long triangle side reaches."""
    return (
        math.sin(p.t),
        math.cos(p.t) * math.cosh(p.x),
        math.cos(p.t) * math.sinh(p.x),
    )


def embed_ads(p: AdsPrimePoint) -> AmbientPoint:
    """Isometric embedding of the strip into the quadric patch s2 > 0."""
    return AmbientPoint(*_embed(p))


def ambient_tau(P: AmbientPoint, Q: AmbientPoint) -> IntervalResult:
    """Interval of two quadric-patch points from the ambient inner product.

    tau = arccos(-b(P, Q)) when the argument lies in [-1, 1] (within
    ARG_SLACK) and the patch time coordinate s1 is ordered; arguments
    beyond the slack classify as unrelated.
    """
    if not (P.s2 > 0.0 and Q.s2 > 0.0):
        raise DomainError("ambient points must lie on the chart patch s2 > 0")
    arg = P.s1 * Q.s1 + P.s2 * Q.s2 - P.z * Q.z
    if arg < -1.0 - ARG_SLACK:
        return IntervalResult(UNRELATED, 0.0)
    return _classify(arg, P.s1 <= Q.s1)


def _check_side(name: str, a: float) -> None:
    if not a > 0.0:
        raise InfeasibleError(f"side {name} = {a!r} is degenerate (must be > 0)")
    if not a < MAX_SIDE:
        raise SizeBoundError(f"side {name} = {a!r} reaches the size bound pi")


def _check_sigma(sigma: int) -> None:
    if sigma not in (1, -1):
        raise ParameterError(f"sigma must be +1 or -1, got {sigma!r}")


def loc_side(a12: float, a23: float, omega: float, sigma: int) -> float:
    """Third side a13 from the timelike law of cosines.

    cos(a13) = cos(a12) cos(a23) - sigma sin(a12) sin(a23) cosh(omega).
    Increasing in omega for sigma = +1, decreasing for sigma = -1.
    """
    _check_sigma(sigma)
    _check_side("a12", a12)
    _check_side("a23", a23)
    rhs = math.cos(a12) * math.cos(a23) - sigma * math.sin(a12) * math.sin(a23) * math.cosh(omega)
    if abs(rhs) > 1.0 + ARG_SLACK:
        raise InfeasibleError(
            f"law of cosines gives cos(a13) = {rhs!r}; no such triangle in the model"
        )
    return math.acos(_clamp_unit(rhs))


def _check_rti(a12: float, a23: float, a13: float, sigma: int) -> None:
    if sigma == 1:
        if a13 + ARG_SLACK < a12 + a23:
            raise ReverseTriangleError(
                f"sigma=+1 needs a13 >= a12 + a23, got {a13!r} < {a12 + a23!r}"
            )
    else:
        if a13 > abs(a12 - a23) + ARG_SLACK:
            raise ReverseTriangleError(
                f"sigma=-1 needs a13 <= |a12 - a23|, got {a13!r} > {abs(a12 - a23)!r}"
            )


def loc_angle(a12: float, a23: float, a13: float, sigma: int) -> float:
    """Hyperbolic angle at x2 inverting the law of cosines.

    cosh(omega) = (cos a12 cos a23 - cos a13) / (sigma sin a12 sin a23).
    Sides inconsistent with the reverse triangle inequality for the given
    configuration are rejected.
    """
    _check_sigma(sigma)
    _check_side("a12", a12)
    _check_side("a23", a23)
    _check_side("a13", a13)
    _check_rti(a12, a23, a13, sigma)
    val = (math.cos(a12) * math.cos(a23) - math.cos(a13)) / (
        sigma * math.sin(a12) * math.sin(a23)
    )
    if val < 1.0 - ARG_SLACK:
        raise ReverseTriangleError(
            f"cosh(omega) = {val!r} < 1; sides violate the reverse triangle inequality"
        )
    return math.acosh(max(val, 1.0))


def comparison_angle(
    tau_12: float,
    tau_21: float,
    tau_23: float,
    tau_32: float,
    tau_13: float,
    tau_31: float,
) -> tuple[float, int]:
    """Comparison angle at x2 of a timelike triangle given directed taus.

    Each pair must be timelike related in exactly one direction; the side
    lengths are a_ij = max(tau_ij, tau_ji) and sigma = +1 iff x2 is not a
    time endpoint of the triangle.  Returns (omega, sigma).
    """
    pairs = {"12": (tau_12, tau_21), "23": (tau_23, tau_32), "13": (tau_13, tau_31)}
    direction = {}
    for name, (fwd, rev) in pairs.items():
        if (fwd > 0.0) == (rev > 0.0):
            raise UndefinedAngleError(
                f"pair {name} is not timelike related in exactly one direction"
            )
        direction[name] = 1 if fwd > 0.0 else -1
    a12 = max(tau_12, tau_21)
    a23 = max(tau_23, tau_32)
    a13 = max(tau_13, tau_31)
    sigma = 1 if direction["12"] == direction["23"] else -1
    if sigma == 1 and direction["13"] != direction["12"]:
        raise UndefinedAngleError("directed taus describe an inconsistent configuration")
    for name, a in (("a12", a12), ("a23", a23), ("a13", a13)):
        if not a < MAX_SIDE:
            raise SizeBoundError(f"side {name} = {a!r} reaches the size bound pi")
    return loc_angle(a12, a23, a13, sigma), sigma


def comparison_angles(tau_12, tau_21, tau_23, tau_32, tau_13, tau_31):
    """comparison_angle over arrays of directed taus: (angle, defined).

    defined is False exactly where comparison_angle raises: a pair not
    timelike related in exactly one direction, an inconsistent
    configuration, a side not in (0, MAX_SIDE), sides against the
    reverse triangle inequality, or cosh(omega) below 1 - ARG_SLACK.
    Elsewhere angle is sigma * omega with the bits of comparison_angle,
    its cosines, sines and arcosh taken with math; it is NaN where
    defined is False.
    """
    taus = [np.asarray(v, dtype=float) for v in (tau_12, tau_21, tau_23, tau_32, tau_13, tau_31)]
    fwd = [v > 0.0 for v in taus[0::2]]
    rev = [v > 0.0 for v in taus[1::2]]
    d12, d23, d13 = fwd
    ordered = d12 == d23  # sigma = +1
    defined = (fwd[0] != rev[0]) & (fwd[1] != rev[1]) & (fwd[2] != rev[2])
    defined &= ~ordered | (d13 == d12)
    # max(a, b) as Python takes it: b only when b > a
    a12, a23, a13 = (np.where(b > a, b, a) for a, b in zip(taus[0::2], taus[1::2]))
    for a in (a12, a23, a13):
        defined &= (a > 0.0) & (a < MAX_SIDE)
    with np.errstate(invalid="ignore"):
        defined &= np.where(
            ordered, ~(a13 + ARG_SLACK < a12 + a23), ~(a13 > np.abs(a12 - a23) + ARG_SLACK)
        )
    at = np.flatnonzero(defined)
    sigma = np.where(ordered[at], 1.0, -1.0)
    s12, s23 = a12[at], a23[at]
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (_mapped(math.cos, s12) * _mapped(math.cos, s23) - _mapped(math.cos, a13[at])) / (
            sigma * _mapped(math.sin, s12) * _mapped(math.sin, s23)
        )
    kept = ~(val < 1.0 - ARG_SLACK)
    defined[at[~kept]] = False
    angle = np.full(defined.shape, np.nan)
    val = val[kept]
    angle[at[kept]] = sigma[kept] * _mapped(math.acosh, np.where(1.0 > val, 1.0, val))
    return angle, defined


def geodesic_point(g: GeodesicParams, lam: float) -> AdsPrimePoint:
    """Point of the unit-speed geodesic g at parameter lam."""
    s = math.sin(lam) * math.cosh(g.omega)
    if not (abs(lam) < HALF_PI and abs(s) < 1.0):
        raise DomainError(f"lam = {lam!r} outside the open geodesic domain")
    t = math.asin(s)
    x = math.asinh(math.sin(lam) * math.sinh(g.omega) / math.sqrt(1.0 - s * s)) + g.c
    return AdsPrimePoint(t, x)


def geodesic_tangent(g: GeodesicParams, lam: float) -> tuple[float, float]:
    """Future-directed unit tangent (dt, dx) of g at parameter lam.

    dt = cos(lam) cosh(omega) / cos(t) and dx = sinh(omega) / cos(t)^2,
    the Clairaut form of the velocity; -dt^2 + cos(t)^2 dx^2 = -1.
    """
    p = geodesic_point(g, lam)
    ct = math.cos(p.t)
    return (math.cos(lam) * math.cosh(g.omega) / ct, math.sinh(g.omega) / (ct * ct))


def hyperbolic_angle(
    p: AdsPrimePoint, u: tuple[float, float], v: tuple[float, float]
) -> float:
    """Unsigned hyperbolic angle between timelike tangents u, v at p.

    Vectors are normalized internally; the angle is arcosh of the absolute
    normalized inner product, so it ignores time orientation.
    """
    c2 = math.cos(p.t) ** 2

    def unit(w: tuple[float, float]) -> tuple[float, float]:
        norm = -w[0] * w[0] + c2 * w[1] * w[1]
        if not norm < 0.0:
            raise UndefinedAngleError(f"tangent {w!r} is not timelike at t = {p.t!r}")
        s = math.sqrt(-norm)
        return (w[0] / s, w[1] / s)

    ut, ux = unit(u)
    vt, vx = unit(v)
    inner = -ut * vt + c2 * ux * vx
    if abs(inner) < 1.0 - ARG_SLACK:
        raise UndefinedAngleError(f"inner product {inner!r} inconsistent with timelike tangents")
    return math.acosh(max(abs(inner), 1.0))


def geodesic_through(
    p: AdsPrimePoint, q: AdsPrimePoint
) -> tuple[GeodesicParams, float, float]:
    """Canonical geodesic through a timelike pair p << q.

    Returns (params, lam_p, lam_q) with geodesic_point(params, lam_p) = p,
    geodesic_point(params, lam_q) = q and lam_q - lam_p = tau(p, q).
    """
    res = ads_interval(p, q)
    if res.relation != TIMELIKE:
        raise InfeasibleError(
            f"geodesic parametrization needs p << q, got relation {res.relation!r}"
        )
    tau = res.tau
    p1, p2, p3 = _embed(p)
    q1, q2, q3 = _embed(q)
    ct, st = math.cos(tau), math.sin(tau)
    # V is the unit tangent at P toward Q; its s1 component is positive
    # for a future-directed timelike pair.
    v1 = (q1 - ct * p1) / st
    v2 = (q2 - ct * p2) / st
    v3 = (q3 - ct * p3) / st
    lam_p = math.atan(p1 / v1)
    cl, sl = math.cos(lam_p), math.sin(lam_p)
    e1, e2, e3 = cl * p1 - sl * v1, cl * p2 - sl * v2, cl * p3 - sl * v3
    w1, w2, w3 = sl * p1 + cl * v1, sl * p2 + cl * v2, sl * p3 + cl * v3
    # e = (0, cosh c, sinh c) is the waist point, w the tangent there.
    c = math.asinh(e3)
    sinh_omega = w3 * e2 - w2 * e3
    g = GeodesicParams(math.asinh(sinh_omega), c)
    return g, lam_p, lam_p + tau


def realize_triangle(a12: float, a23: float, a13: float) -> TriangleRealization:
    """Realize the timelike triangle x1 << x2 << x3 with sides a12, a23
    and a13 in the model strip.

    The long side is placed vertically, x1 = (-a13/2, 0) and
    x3 = (a13/2, 0), and x2 at x >= 0 so that the pairwise time
    separations reproduce the given sides.
    """
    _check_side("a12", a12)
    _check_side("a23", a23)
    _check_side("a13", a13)
    _check_rti(a12, a23, a13, 1)
    h = a13 / 2.0
    x1 = AdsPrimePoint(-h, 0.0)
    x3 = AdsPrimePoint(h, 0.0)
    # Solving the two embedding equations for x2 = (t, x):
    #   -<X1, X2> = cos a12 and -<X2, X3> = cos a23.
    sin_t = (math.cos(a23) - math.cos(a12)) / (2.0 * math.sin(h))
    if abs(sin_t) > 1.0 + ARG_SLACK:
        raise InfeasibleError("sides do not close up to a triangle in the model")
    t2 = math.asin(_clamp_unit(sin_t))
    cosh_x = (math.cos(a12) + math.cos(a23)) / (
        2.0 * math.cos(h) * math.cos(t2)
    )
    if cosh_x < 1.0 - ARG_SLACK:
        raise InfeasibleError("sides do not close up to a triangle in the model")
    x2 = AdsPrimePoint(t2, math.acosh(max(cosh_x, 1.0)))
    side_map = {}
    for name, a, b in (("12", x1, x2), ("23", x2, x3), ("13", x1, x3)):
        g, la, lb = geodesic_through(a, b)
        side_map[name] = (g, la, lb)
    return TriangleRealization(x1, x2, x3, side_map)


def comparison_point(tri: TriangleRealization, side: str, s: float) -> AdsPrimePoint:
    """Point at arc parameter s from the past endpoint of the given side."""
    if side not in tri.sides:
        raise ParameterError(f"side must be one of {sorted(tri.sides)}, got {side!r}")
    g, la, lb = tri.sides[side]
    if s < -ARG_SLACK or s > (lb - la) + ARG_SLACK:
        raise ParameterError(
            f"arc parameter {s!r} outside the side range [0, {lb - la!r}]"
        )
    s = min(max(s, 0.0), lb - la)
    return geodesic_point(g, la + s)


def conformal_time(t: float) -> float:
    """Conformal time eta(t) = log tan(t/2 + pi/4) on (-pi/2, pi/2)."""
    if not abs(t) < HALF_PI:
        raise DomainError(f"t = {t!r} outside the open strip (-pi/2, pi/2)")
    return math.log(math.tan(t / 2.0 + math.pi / 4.0))

"""Tests for the closed-form model-space operations.

Derived expected values are either frozen from an independent oracle
computed inside the test (bisection inversions, second differences) or
checked against exact identities of the embedding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llk import causal_space as cs
from llk import model_space as ms
from llk import rigidity as rg
from llk import warped_product as wp
from llk.errors import (
    DomainError,
    InfeasibleError,
    ParameterError,
    ReverseTriangleError,
    SizeBoundError,
    UndefinedAngleError,
)

EXACT = 1e-12
ROUND_TRIP = 1e-10

strip_t = st.floats(min_value=-1.5, max_value=1.5)
strip_x = st.floats(min_value=-3.0, max_value=3.0)


# ---------------------------------------------------------------- intervals


def test_vertical_pair_is_timelike_with_exact_tau():
    r = ms.ads_interval(ms.AdsPrimePoint(-math.pi / 4, 0.0), ms.AdsPrimePoint(math.pi / 4, 0.0))
    assert r.relation == "timelike"
    assert abs(r.tau - math.pi / 2) < EXACT


def test_conformal_offset_pair_is_null():
    # cosh(log(1 + sqrt 2)) = sqrt 2, so the argument is exactly 1
    q = ms.AdsPrimePoint(math.pi / 4, math.log(1.0 + math.sqrt(2.0)))
    r = ms.ads_interval(ms.AdsPrimePoint(0.0, 0.0), q)
    assert r.relation == "null"
    assert r.tau == 0.0


def test_far_fiber_pair_is_unrelated():
    r = ms.ads_interval(ms.AdsPrimePoint(0.0, 0.0), ms.AdsPrimePoint(0.1, 10.0))
    assert r.relation == "unrelated"
    assert r.tau == 0.0


def test_reversed_pair_reports_past_directed_with_forward_tau():
    p, q = ms.AdsPrimePoint(-0.4, 0.1), ms.AdsPrimePoint(0.8, 0.3)
    fwd = ms.ads_interval(p, q)
    rev = ms.ads_interval(q, p)
    assert fwd.relation == "timelike"
    assert rev.relation == "past-directed"
    assert rev.tau == fwd.tau


def test_coincident_points_are_null_with_zero_tau():
    p = ms.AdsPrimePoint(0.3, -0.7)
    r = ms.ads_interval(p, p)
    assert r.relation == "null"
    assert r.tau == 0.0


@given(t1=strip_t, x1=strip_x, t2=strip_t, x2=strip_x)
@settings(max_examples=200)
def test_interval_classification_is_order_consistent(t1, x1, t2, x2):
    p, q = ms.AdsPrimePoint(t1, x1), ms.AdsPrimePoint(t2, x2)
    fwd, rev = ms.ads_interval(p, q), ms.ads_interval(q, p)
    assert fwd.tau >= 0.0
    if fwd.relation == "timelike":
        assert fwd.tau > 0.0
        assert rev.relation == "past-directed"
        assert rev.tau == fwd.tau
    if fwd.relation == "unrelated":
        assert fwd.tau == 0.0
        assert rev.relation == "unrelated"


def test_strip_point_outside_domain_rejected():
    with pytest.raises(DomainError):
        ms.AdsPrimePoint(math.pi / 2, 0.0)
    with pytest.raises(DomainError):
        ms.AdsPrimePoint(0.0, math.inf)


def test_reverse_triangle_inequality_along_vertical_chain():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t1, t2, t3 = np.sort(rng.uniform(-1.5, 1.5, size=3))
        x = rng.uniform(-1.0, 1.0)
        p, q, r = (ms.AdsPrimePoint(float(t), float(x)) for t in (t1, t2, t3))
        t13 = ms.ads_interval(p, r).tau
        t12 = ms.ads_interval(p, q).tau
        t23 = ms.ads_interval(q, r).tau
        assert t13 >= t12 + t23 - 1e-12


# ---------------------------------------------------------------- embedding


def test_embed_base_point():
    P = ms.embed_ads(ms.AdsPrimePoint(0.0, 0.0))
    assert (P.s1, P.s2, P.z) == (0.0, 1.0, 0.0)


def test_embed_central_line_stays_at_z_zero():
    for t in np.linspace(-1.4, 1.4, 9):
        P = ms.embed_ads(ms.AdsPrimePoint(float(t), 0.0))
        assert P.z == 0.0
        assert abs(P.s1 - math.sin(t)) < EXACT


@given(t=strip_t, x=strip_x)
@settings(max_examples=200)
def test_embedding_lands_on_quadric_and_inverts(t, x):
    p = ms.AdsPrimePoint(t, x)
    P = ms.embed_ads(p)
    norm = -P.s1 * P.s1 - P.s2 * P.s2 + P.z * P.z
    assert abs(norm + 1.0) < 1e-9
    assert P.s2 > 0.0
    # the chart inverse on the patch s2 > 0
    assert abs(math.asin(P.s1) - t) < 1e-9
    assert abs(math.atanh(P.z / P.s2) - x) < 1e-9


def test_ambient_tau_matches_strip_interval():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = ms.AdsPrimePoint(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-2.5, 2.5)))
        q = ms.AdsPrimePoint(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-2.5, 2.5)))
        a = ms.ads_interval(p, q)
        b = ms.ambient_tau(ms.embed_ads(p), ms.embed_ads(q))
        assert a.relation == b.relation
        assert abs(a.tau - b.tau) < 1e-10


def test_ambient_point_off_quadric_rejected():
    with pytest.raises(DomainError):
        ms.AmbientPoint(0.0, 2.0, 0.0)


def test_quadric_tolerance_is_relative_to_the_coordinates():
    # b(P, P) of an embedded point rounds like cosh(x)^2: it reads
    # -1.00000003, -1.0000019 and 0.0 at x = 10, 12 and 20
    for x in (10.0, 12.0, 20.0):
        P = ms.embed_ads(ms.AdsPrimePoint(0.3, x))
        assert (P.s1, P.s2, P.z) == (
            math.sin(0.3), math.cos(0.3) * math.cosh(x), math.cos(0.3) * math.sinh(x)
        )
    # b = -4 on coordinates of size 2 is off the quadric
    with pytest.raises(DomainError, match=r"b\(P, P\) = -4"):
        ms.AmbientPoint(0.0, 2.0, 0.0)


def test_ambient_tau_requires_patch():
    P = ms.AmbientPoint(0.0, 1.0, 0.0)
    Q = ms.AmbientPoint(0.0, -1.0, 0.0)
    with pytest.raises(DomainError):
        ms.ambient_tau(P, Q)


def test_identical_ambient_points_have_zero_tau():
    P = ms.AmbientPoint(0.0, 1.0, 0.0)
    assert ms.ambient_tau(P, P).tau == 0.0


# ----------------------------------------------------------- law of cosines


def _solve_omega(a12, a23, a13, sigma):
    """Independent oracle: invert loc_side by bisection on omega."""
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            side = ms.loc_side(a12, a23, mid, sigma)
        except InfeasibleError:
            # past the feasible rapidity range: overshoot
            hi = mid
            continue
        if (side < a13) == (sigma == 1):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_loc_side_collinear_configurations():
    assert abs(ms.loc_side(1.0, 1.0, 0.0, 1) - 2.0) < EXACT
    assert ms.loc_side(math.pi / 3, math.pi / 3, 0.0, -1) == 0.0


def test_loc_angle_matches_bisection_oracle():
    omega = ms.loc_angle(1.0, 1.0, 2.5, 1)
    oracle = _solve_omega(1.0, 1.0, 2.5, 1)
    assert abs(omega - oracle) < 1e-9
    # frozen from the defining formula cosh w = (cos^2 1 - cos 2.5)/sin^2 1
    assert abs(omega - 1.000547575953513) < EXACT


def test_loc_round_trip_both_configurations():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a12, a23 = rng.uniform(0.1, 1.3, size=2)
        omega = rng.uniform(0.0, 2.5)
        for sigma in (1, -1):
            try:
                a13 = ms.loc_side(float(a12), float(a23), float(omega), sigma)
            except InfeasibleError:
                # either branch can leave the feasible region at large omega
                continue
            if a13 <= 0.0 or a13 >= ms.MAX_SIDE:
                continue
            back = ms.loc_angle(float(a12), float(a23), a13, sigma)
            assert abs(back - omega) < 1e-10


def test_loc_side_monotone_in_omega():
    grid = np.linspace(0.0, 1.7, 40)
    sides = [ms.loc_side(0.9, 0.7, float(w), 1) for w in grid]
    assert all(b > a for a, b in zip(sides, sides[1:]))


def test_loc_angle_rejects_reverse_triangle_violation():
    with pytest.raises(ReverseTriangleError):
        ms.loc_angle(1.0, 1.0, 1.5, 1)


def test_loc_side_rejects_infeasible_endpoint_configuration():
    with pytest.raises(InfeasibleError):
        ms.loc_side(math.pi / 3, math.pi / 3, 1.0, -1)


def test_degenerate_sides_rejected():
    with pytest.raises(InfeasibleError):
        ms.loc_side(0.0, 1.0, 0.5, 1)
    with pytest.raises(SizeBoundError):
        ms.loc_angle(1.0, 1.0, 4.0, 1)
    with pytest.raises(ParameterError):
        ms.loc_side(1.0, 1.0, 0.5, 2)


def test_comparison_angle_collinear_chain_is_flat():
    # x1 << x2 << x3 along a fiber: angle at the middle vertex is 0
    omega, sigma = ms.comparison_angle(0.5, 0.0, 0.7, 0.0, 1.2, 0.0)
    assert sigma == 1
    assert abs(omega) < 1e-6


def test_comparison_angle_detects_endpoint_configuration():
    # x2 in the past of both others, x1 << x3: sigma = -1
    p2 = ms.AdsPrimePoint(-0.9, 0.0)
    p1 = ms.AdsPrimePoint(-0.1, 0.35)
    p3 = ms.AdsPrimePoint(0.8, 0.2)
    t12 = ms.ads_interval(p1, p2)
    t23 = ms.ads_interval(p2, p3)
    t13 = ms.ads_interval(p1, p3)
    assert (t12.relation, t23.relation, t13.relation) == ("past-directed", "timelike", "timelike")
    omega, sigma = ms.comparison_angle(0.0, t12.tau, t23.tau, 0.0, t13.tau, 0.0)
    assert sigma == -1
    assert omega > 0.0


def test_comparison_angle_rejects_non_timelike_pair():
    with pytest.raises(UndefinedAngleError):
        ms.comparison_angle(0.0, 0.0, 0.7, 0.0, 1.2, 0.0)
    with pytest.raises(UndefinedAngleError):
        ms.comparison_angle(0.5, 0.5, 0.7, 0.0, 1.2, 0.0)


# ---------------------------------------------------------------- triangles


def test_realize_degenerate_triangle_puts_x2_on_axis():
    tri = ms.realize_triangle(math.pi / 4, math.pi / 4, math.pi / 2)
    assert abs(tri.x1.t + math.pi / 4) < EXACT
    assert abs(tri.x3.t - math.pi / 4) < EXACT
    assert abs(tri.x2.t) < EXACT
    assert abs(tri.x2.x) < EXACT


def test_realized_sides_reproduce_inputs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a12, a23 = rng.uniform(0.05, 1.2, size=2)
        room = math.pi - 1e-3 - (a12 + a23)
        if room <= 0.01:
            continue
        a13 = a12 + a23 + rng.uniform(0.0, 1.0) * room
        tri = ms.realize_triangle(float(a12), float(a23), float(a13))
        assert tri.x2.x >= 0.0
        assert abs(ms.ads_interval(tri.x1, tri.x2).tau - a12) < ROUND_TRIP
        assert abs(ms.ads_interval(tri.x2, tri.x3).tau - a23) < ROUND_TRIP
        assert abs(ms.ads_interval(tri.x1, tri.x3).tau - a13) < ROUND_TRIP


@pytest.mark.parametrize("gap", [1e-4, 2.5e-4, 6.3e-4])
def test_realize_triangles_whose_long_side_nears_pi(gap):
    # far out along x the rounding of b(P, P) grows like cosh(x)^2 and
    # outruns QUADRIC_TOL; each valid shape must still be realized
    a13 = math.pi - gap
    for i in range(1, 41):
        for j in range(1, 20):
            a12 = a13 * i / 41
            a23 = (a13 - a12) * j / 20
            tri = ms.realize_triangle(a12, a23, a13)
            for side, want in (("12", a12), ("23", a23), ("13", a13)):
                _, la, lb = tri.sides[side]
                assert abs((lb - la) - want) < EXACT


def test_realize_rejects_bad_side_data():
    with pytest.raises(SizeBoundError):
        ms.realize_triangle(1.0, 1.0, 4.0)
    with pytest.raises(ReverseTriangleError):
        ms.realize_triangle(1.0, 1.0, 1.5)
    with pytest.raises(InfeasibleError):
        ms.realize_triangle(0.0, 0.5, 0.8)


def test_comparison_point_hits_vertices_and_interpolates():
    a12, a23, a13 = 0.6, 0.9, 1.8
    tri = ms.realize_triangle(a12, a23, a13)
    for name, a, b, length in (
        ("12", tri.x1, tri.x2, a12),
        ("23", tri.x2, tri.x3, a23),
        ("13", tri.x1, tri.x3, a13),
    ):
        p0 = ms.comparison_point(tri, name, 0.0)
        p1 = ms.comparison_point(tri, name, length)
        assert abs(p0.t - a.t) < 1e-9 and abs(p0.x - a.x) < 1e-9
        assert abs(p1.t - b.t) < 1e-9 and abs(p1.x - b.x) < 1e-9
        mid = ms.comparison_point(tri, name, length / 2.0)
        assert abs(ms.ads_interval(a, mid).tau - length / 2.0) < 1e-9


def test_comparison_point_rejects_out_of_range():
    tri = ms.realize_triangle(0.6, 0.9, 1.8)
    with pytest.raises(ParameterError):
        ms.comparison_point(tri, "12", 0.7)
    with pytest.raises(ParameterError):
        ms.comparison_point(tri, "31", 0.1)


# ---------------------------------------------------------------- geodesics


def test_vertical_geodesic_is_the_fiber():
    g = ms.GeodesicParams(0.0, 0.4)
    assert g.domain == (-math.pi / 2, math.pi / 2)
    for lam in (-1.2, 0.0, 0.9):
        p = ms.geodesic_point(g, lam)
        assert abs(p.t - lam) < EXACT
        assert abs(p.x - 0.4) < EXACT


def test_geodesic_domain_shrinks_with_rapidity():
    g = ms.GeodesicParams(math.acosh(2.0), 0.0)
    lo, hi = g.domain
    assert abs(hi - math.pi / 6) < EXACT
    assert abs(lo + math.pi / 6) < EXACT
    with pytest.raises(DomainError):
        ms.geodesic_point(g, math.pi / 6 + 1e-3)
    # up to the last 0.02 step inside its domain, the curve climbs past
    # t = 1.4 toward the strip edge while x keeps growing
    points = [ms.geodesic_point(g, 0.02 * k) for k in range(27)]
    assert points[-1].t > 1.4
    assert all(a.x < b.x for a, b in zip(points, points[1:]))


def test_geodesic_rapidity_must_have_a_finite_cosh():
    assert ms.GeodesicParams(710.0, 0.0).domain[1] > 0.0
    with pytest.raises(ParameterError, match=r"cosh\(1000\.0\) is beyond the float range"):
        ms.GeodesicParams(1000.0, 0.0)


def test_geodesic_unit_speed():
    rng = np.random.default_rng(13)
    for _ in range(100):
        g = ms.GeodesicParams(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-1.0, 1.0)))
        lo, hi = g.domain
        lam1, lam2 = np.sort(rng.uniform(lo + 1e-3, hi - 1e-3, size=2))
        if lam2 - lam1 < 1e-6:
            continue
        r = ms.ads_interval(ms.geodesic_point(g, float(lam1)), ms.geodesic_point(g, float(lam2)))
        assert r.relation == "timelike"
        assert abs(r.tau - (lam2 - lam1)) < 1e-9


def test_geodesic_through_reproduces_endpoints():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = ms.AdsPrimePoint(float(rng.uniform(-1.3, 0.0)), float(rng.uniform(-1.5, 1.5)))
        dt = float(rng.uniform(0.1, 1.3))
        dx = float(rng.uniform(-1.0, 1.0))
        try:
            q = ms.AdsPrimePoint(p.t + dt, p.x + dx)
        except DomainError:
            continue
        if ms.ads_interval(p, q).relation != "timelike":
            continue
        g, la, lb = ms.geodesic_through(p, q)
        pa, pb = ms.geodesic_point(g, la), ms.geodesic_point(g, lb)
        assert abs(pa.t - p.t) < 1e-9 and abs(pa.x - p.x) < 1e-9
        assert abs(pb.t - q.t) < 1e-9 and abs(pb.x - q.x) < 1e-9
        assert abs((lb - la) - ms.ads_interval(p, q).tau) < 1e-9


def test_geodesic_through_rejects_non_timelike():
    with pytest.raises(InfeasibleError):
        ms.geodesic_through(ms.AdsPrimePoint(0.0, 0.0), ms.AdsPrimePoint(0.1, 5.0))


def _ode_residuals(g, lam, h=1e-4):
    pts = [ms.geodesic_point(g, lam + k * h) for k in (-1, 0, 1)]
    t = [p.t for p in pts]
    x = [p.x for p in pts]
    dt = (t[2] - t[0]) / (2 * h)
    dx = (x[2] - x[0]) / (2 * h)
    ddt = (t[2] - 2 * t[1] + t[0]) / (h * h)
    ddx = (x[2] - 2 * x[1] + x[0]) / (h * h)
    # geodesic equations for f = cos: t'' = sin t cos t x'^2,
    # x'' = -2 tan t t' x'  (Clairaut constant cos^2 t x')
    r1 = ddt - math.sin(t[1]) * math.cos(t[1]) * dx * dx
    r2 = ddx - 2.0 * math.tan(t[1]) * dt * dx
    return abs(r1), abs(r2)


def test_geodesic_satisfies_warped_product_ode():
    # sampling stays away from the domain ends and from extreme rapidity,
    # where second differences at step 1e-4 lose accuracy
    rng = np.random.default_rng(19)
    for _ in range(50):
        g = ms.GeodesicParams(float(rng.uniform(-1.4, 1.4)), float(rng.uniform(-0.5, 0.5)))
        lo, hi = g.domain
        span = hi - lo
        lam = float(rng.uniform(lo + 0.25 * span, hi - 0.25 * span))
        r1, r2 = _ode_residuals(g, lam)
        assert r1 < 1e-6
        assert r2 < 1e-6


# ------------------------------------------------------------- conformal map


def inverse_conformal_time(s):
    return 2.0 * math.atan(math.exp(s)) - ms.HALF_PI


def test_conformal_time_known_value():
    assert abs(ms.conformal_time(math.pi / 4) - math.log(1.0 + math.sqrt(2.0))) < EXACT
    assert abs(ms.conformal_time(0.0)) < EXACT


@given(t=strip_t)
@settings(max_examples=200)
def test_conformal_round_trip(t):
    assert abs(inverse_conformal_time(ms.conformal_time(t)) - t) < 1e-10


def test_conformal_null_consistency():
    rng = np.random.default_rng(29)
    for _ in range(100):
        s = float(rng.uniform(-1.0, 1.0))
        x = float(rng.uniform(-1.0, 1.0))
        d = float(rng.uniform(0.05, 1.5))
        t2 = inverse_conformal_time(ms.conformal_time(s) + d)
        r = ms.ads_interval(ms.AdsPrimePoint(s, x), ms.AdsPrimePoint(t2, x + d))
        assert r.relation == "null"


def test_conformal_time_domain():
    with pytest.raises(DomainError):
        ms.conformal_time(math.pi / 2)


# ---------------------------------------------------------------- array kernels


def reference_separation(s, t, dx, order):
    """The classification the samplers and build_splitting wrote out
    inline before ads_separation, kept verbatim as the oracle."""
    arg = np.sin(s)[:, None] * np.sin(t)[None, :] + np.cos(s)[:, None] * np.cos(t)[
        None, :
    ] * np.cosh(dx)
    leq = order & (arg <= 1.0 + ms.ARG_SLACK)
    timelike = leq & (arg < 1.0 - ms.ARG_SLACK)
    tau = np.where(timelike, np.arccos(np.clip(arg, -1.0, 1.0)), 0.0)
    return leq, timelike, tau


def assert_same_separation(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2].tobytes() == want[2].tobytes()


def circle_suspension():
    n = 12
    k = np.arange(n)
    gap = np.abs(k[:, None] - k[None, :])
    S = wp.FiniteMetricSpace(
        tuple(f"c{i:02d}" for i in range(n)), (4.0 / n) * np.minimum(gap, n - gap)
    )
    grid = np.linspace(-ms.HALF_PI + 0.05, ms.HALF_PI - 0.05, 21)
    return S, grid, wp.sample_suspension(S, grid)


def test_separation_matches_inline_reference_on_suspension():
    S, grid, X = circle_suspension()
    t = np.repeat(grid, S.size)
    base = np.tile(np.arange(S.size), len(grid))
    D = S.dist[np.ix_(base, base)]
    order = t[:, None] <= t[None, :]
    want = reference_separation(t, t, D, order)
    assert_same_separation(ms.ads_separation(t[:, None], t, D, order), want)
    assert np.array_equal(X.leq, want[0])
    assert X.tau.tobytes() == want[2].tobytes()


def test_separation_matches_inline_reference_on_shuffled_model_points():
    rng = np.random.default_rng(11)
    t = rng.uniform(-1.5, 1.5, 200)
    x = rng.uniform(-3.0, 3.0, 200)
    # a vertical pair, a pair on the cone and a coincident pair
    t = np.append(t, [0.0, 0.5, 0.5, 0.0])
    x = np.append(x, [0.0, 0.0, ms.conformal_time(0.5), 0.0])
    perm = rng.permutation(len(t))
    t, x = t[perm], x[perm]
    X = cs.sample_model_points(ms.AdsPrimePoint(a, b) for a, b in zip(t, x))
    dx = x[None, :] - x[:, None]
    order = t[:, None] <= t[None, :]
    want = reference_separation(t, t, dx, order)
    assert_same_separation(ms.ads_separation(t[:, None], t, dx, order), want)
    assert np.array_equal(X.leq, want[0])
    assert X.tau.tobytes() == want[2].tobytes()
    assert np.count_nonzero(want[0] & ~want[1]) > X.size  # off-diagonal null pairs


def test_separation_matches_inline_reference_on_reconstruction():
    _, _, X = circle_suspension()
    result = rg.build_splitting(X, rg.find_line(X))
    svals = np.array([q for _, q, _ in result.samples])
    bidx = np.array([result.slice_space.index(b) for b, _, _ in result.samples])
    xidx = np.array([x for _, _, x in result.samples])
    dmat = result.slice_space.dist[np.ix_(bidx, bidx)]
    future = svals[None, :] > svals[:, None]
    want = reference_separation(svals, svals, dmat, future)
    assert_same_separation(ms.ads_separation(svals[:, None], svals, dmat, future), want)
    tau_x = X.tau[np.ix_(xidx, xidx)]
    distinct = xidx[:, None] != xidx[None, :]
    gap = (tau_x - tau_x.T) - (want[2] - want[2].T)
    assert result.residual == float(np.max(np.abs(np.where(distinct, gap, 0.0))))


def least_float(f, target, lo, hi):
    """Smallest float x in (lo, hi] with f(x) >= target, f increasing."""
    while np.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2.0
        if mid <= lo or mid >= hi:
            mid = np.nextafter(lo, hi)
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


TRIG_SETS = pytest.mark.parametrize("trig", [ms.NUMPY_TRIG, ms.MATH_TRIG], ids=["numpy", "math"])


@TRIG_SETS
@pytest.mark.parametrize("bound", [1.0 + ms.ARG_SLACK, 1.0 - ms.ARG_SLACK])
def test_separation_classes_at_the_cone_band_match_classify(bound, trig):
    # arg = cosh(dx) at s = t = 0, and arg = cos(t) at s = dx = 0, each
    # taken with the trig set under test
    _, cos, cosh, _ = trig
    if bound > 1.0:
        f, target = (lambda v: float(cosh(np.array(v)))), bound
    else:
        f, target = (lambda v: -float(cos(np.array(v)))), -bound
    at = least_float(f, target, 0.0, 1e-4)
    above = least_float(f, np.nextafter(target, np.inf), 0.0, 1e-4)
    points = (np.nextafter(at, 0.0), at, above)
    if bound > 1.0:
        cases = [(0.0, d) for d in points]
    else:
        cases = [(v, 0.0) for v in points]
    args = [abs(f(v)) for v in points]
    assert args[1] == bound
    assert len(set(args)) == 3
    for (t, d), arg in zip(cases, args):
        leq, timelike, tau = ms.ads_separation(
            np.array([0.0]), np.array([t]), np.array([[d]]), np.array([[True]]), trig
        )
        want = ms._classify(arg, True)
        assert bool(leq[0, 0]) == (want.relation != ms.UNRELATED)
        assert bool(timelike[0, 0]) == (want.relation == ms.TIMELIKE)
        assert (tau[0, 0] > 0.0) == (want.tau > 0.0)


def test_fiber_cosh_inverts_separation_away_from_the_cone():
    rng = np.random.default_rng(5)
    s = rng.uniform(-1.3, 1.3, 60)
    t = rng.uniform(-1.3, 1.3, 60)
    dx = np.abs(rng.uniform(-2.0, 2.0, (60, 60)))
    _, timelike, tau = ms.ads_separation(s[:, None], t, dx, s[:, None] <= t[None, :])
    away = timelike & (tau > 0.05)
    assert np.count_nonzero(away) > 200
    i, j = np.nonzero(away)
    c = ms.ads_fiber_cosh(tau[i, j], s[i], t[j])
    recovered = np.array([math.acosh(v) for v in c.tolist()])
    assert np.max(np.abs(recovered - dx[i, j])) < 1e-9


def interval_oracle(s, xs, t, xt):
    """(leq, timelike, tau) of ads_interval on the pairs ((s, xs)[k],
    (t, xt)[k]), with the kernel's convention: a pair running back in
    time is neither leq nor timelike and has tau 0."""
    rel, tau = [], []
    for a, b, c, d in zip(s.tolist(), xs.tolist(), t.tolist(), xt.tolist()):
        r = ms.ads_interval(ms.AdsPrimePoint(a, b), ms.AdsPrimePoint(c, d))
        rel.append(r.relation)
        tau.append(r.tau if r.relation == ms.TIMELIKE else 0.0)
    rel = np.array(rel)
    return (rel == ms.TIMELIKE) | (rel == ms.NULL), rel == ms.TIMELIKE, np.array(tau)


def test_math_trig_separation_is_ads_interval_bit_for_bit():
    rng = np.random.default_rng(17)
    s, t = rng.uniform(-1.55, 1.55, (2, 2000))
    xs, xt = rng.uniform(-2.0, 2.0, (2, 2000))
    cone = inverse_conformal_time(ms.conformal_time(0.2) + 0.7)
    special = np.array([
        # vertical, coincident, on the cone, far apart, and backward
        (-0.5, 0.3, 0.5, 0.3),
        (0.5, -1.0, 0.5, -1.0),
        (0.2, 0.1, cone, 0.8),
        (0.0, 0.0, 0.1, 3.0),
        (0.9, 0.0, -0.4, 0.2),
        (0.9, 0.0, -0.9, 0.0),
    ])
    s, xs, t, xt = (np.append(v, w) for v, w in zip((s, xs, t, xt), special.T))
    leq, timelike, tau = ms.ads_separation(s, t, xt - xs, s <= t, ms.MATH_TRIG)
    want = interval_oracle(s, xs, t, xt)
    assert np.array_equal(leq, want[0])
    assert np.array_equal(timelike, want[1])
    assert tau.tobytes() == want[2].tobytes()
    got = [(bool(a), bool(b), float(c)) for a, b, c in zip(leq[-6:], timelike[-6:], tau[-6:])]
    assert [g[:2] for g in got] == [
        (True, True), (True, False), (True, False), (False, False), (False, False),
        (False, False),
    ]
    assert abs(got[0][2] - 1.0) < EXACT and got[1][2] == got[2][2] == 0.0
    # the outer product broadcasts to the same entries
    outer = ms.ads_separation(s[:50, None], t[:50], xt[:50] - xs[:50, None],
                              s[:50, None] <= t[:50], ms.MATH_TRIG)
    for k in range(50):
        assert outer[2][k, k].tobytes() == tau[k].tobytes()
    assert np.count_nonzero(want[1]) > 500 and np.count_nonzero(want[0] & ~want[1]) >= 2


@TRIG_SETS
def test_separation_of_a_nan_fiber_distance_is_unrelated(trig):
    leq, timelike, tau = ms.ads_separation(
        np.array([0.1]), np.array([0.5]), np.array([math.nan]), True, trig
    )
    assert (bool(leq[0]), bool(timelike[0]), float(tau[0])) == (False, False, 0.0)
    assert math.copysign(1.0, tau[0]) == 1.0


def scalar_comparison_angles(taus):
    """comparison_angle row by row: (angle, defined) with sigma * omega,
    or NaN where it raises."""
    angle, defined = [], []
    for row in taus.tolist():
        try:
            omega, sigma = ms.comparison_angle(*row)
        except (UndefinedAngleError, InfeasibleError):
            angle.append(math.nan)
            defined.append(False)
        else:
            angle.append(sigma * omega)
            defined.append(True)
    return np.array(angle), np.array(defined)


def directed(a12, a23, a13, sigma, flip):
    """Directed taus (12, 21, 23, 32, 13, 31) of sides in configuration
    sigma: x1 << x2 << x3 for +1, x2 the past endpoint for -1, and the
    time-reversed triangle when flip."""
    if sigma == 1:
        row = [a12, 0.0, a23, 0.0, a13, 0.0]
    else:
        row = [0.0, a12, a23, 0.0, a13, 0.0]
    if flip:
        row = [row[k ^ 1] for k in range(6)]
    return row


def test_comparison_angles_match_comparison_angle():
    rng = np.random.default_rng(23)
    rows = []
    # drawn triangles of the model, in every configuration and direction
    while len(rows) < 400:
        a12, a23 = rng.uniform(0.01, 1.5, 2).tolist()
        sigma = int(rng.choice([1, -1]))
        try:
            a13 = ms.loc_side(a12, a23, float(rng.uniform(0.0, 2.0)), sigma)
        except InfeasibleError:
            continue
        rows.append(directed(a12, a23, a13, sigma, bool(rng.integers(2))))
    # random directed taus, most of them no triangle at all
    for _ in range(400):
        row = rng.uniform(0.0, 3.3, 6)
        row[rng.random(6) < 0.5] = 0.0
        rows.append(row.tolist())
    # sides at the size bound
    below = float(np.nextafter(ms.MAX_SIDE, 0.0))
    for big in (ms.MAX_SIDE, below, float(np.nextafter(ms.MAX_SIDE, 4.0))):
        rows.append(directed(0.3, big - 0.3, big, 1, False))
        rows.append(directed(big, 0.2, big - 0.3, -1, False))
        rows.append(directed(0.2, big, big - 0.3, -1, True))
    # the reverse triangle inequality at +-ARG_SLACK, where cosh(omega)
    # stays within its slack of 1
    a12, a23 = 1.4, 1.6
    for edge, sigma in ((a12 + a23 - ms.ARG_SLACK, 1), (abs(a12 - a23) + ms.ARG_SLACK, -1)):
        for step in range(-3, 4):
            a13 = edge
            for _ in range(abs(step)):
                a13 = float(np.nextafter(a13, math.copysign(4.0, step)))
            rows.append(directed(a12, a23, a13, sigma, False))
    # cosh(omega) just below 1 - ARG_SLACK, with the sides still within
    # the reverse triangle slack
    a12 = a23 = 0.3

    def cosh_omega(a13):
        return (math.cos(a12) * math.cos(a23) - math.cos(a13)) / (math.sin(a12) * math.sin(a23))

    at = least_float(cosh_omega, 1.0 - ms.ARG_SLACK, a12 + a23 - ms.ARG_SLACK, a12 + a23)
    assert at + ms.ARG_SLACK >= a12 + a23
    a13 = float(np.nextafter(at, 0.0))
    for _ in range(5):
        rows.append(directed(a12, a23, a13, 1, False))
        rows.append(directed(a12, a23, a13, 1, True))
        a13 = float(np.nextafter(a13, 4.0))
    taus = np.array(rows)
    angle, defined = ms.comparison_angles(*taus.T)
    want_angle, want_defined = scalar_comparison_angles(taus)
    assert np.array_equal(defined, want_defined)
    assert angle[defined].tobytes() == want_angle[want_defined].tobytes()
    assert np.all(np.isnan(angle[~defined]))
    assert 400 < np.count_nonzero(defined) < len(rows) - 300
    assert cosh_omega(at) >= 1.0 - ms.ARG_SLACK > cosh_omega(float(np.nextafter(at, 0.0)))

"""Tests for warped-product time separations over finite metric bases.

Every separation is read off sample_warped_product, the kernel the
commands sample through.  The table-kind solver is cross-checked
against closed forms that share no code with it: a dense tabulation of
the cosine profile must reproduce the model-space separations, a
two-knot constant table the Minkowski formula, and a two-knot table of
f = b t, whose strip is the flat Milne wedge, the wedge's exact null
offsets and separations.  The
batched table sampler is also held bit for bit to the scalar per-pair
solver it replaced, which is kept here as the reference.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llk import causal_space as cs
from llk import model_space as ms
from llk import warped_product as wp
from llk.errors import ConvergenceError, DomainError, ParameterError, StructuralError

EXACT = 1e-12
CROSS_CHECK = 1e-6


def segment_space(n=4, step=1.0):
    pts = np.arange(n) * step
    dist = np.abs(pts[:, None] - pts[None, :])
    return wp.FiniteMetricSpace(tuple(f"s{i}" for i in range(n)), dist)


def circle_space(n=12, circumference=4.0):
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dist[i, j] = (circumference / n) * min(abs(i - j), n - abs(i - j))
    return wp.FiniteMetricSpace(tuple(f"c{i:02d}" for i in range(n)), dist)


def dense_cos_table(step=0.0005, margin=1e-9):
    knots = np.arange(-ms.HALF_PI + margin, ms.HALF_PI, step)
    knots = np.append(knots, ms.HALF_PI - margin)
    return wp.table_warping(knots, np.cos(knots))


def cos_power_table(knots, power=1.0, margin=1e-9):
    ts = np.linspace(-ms.HALF_PI + margin, ms.HALF_PI - margin, knots)
    return wp.table_warping(ts, np.cos(ts) ** power)


def jittered_circle_net(seed, n=12, sites=24, circumference=4.0):
    """Twelve points on a circle of circumference 4, point k at lattice
    site 2k or 2k + 1 of 24, drawn from the seed: at most 13 distinct
    distances, each shared by many pairs."""
    rng = random.Random(seed)
    pos = [2 * k + rng.randrange(2) for k in range(n)]
    spacing = circumference / sites
    dist = [[min(abs(a - b), sites - abs(a - b)) * spacing for b in pos] for a in pos]
    return wp.FiniteMetricSpace(tuple(f"c{k:02d}" for k in range(n)), np.array(dist))


def reference_table_tau(f, lo, hi, dx):
    """The scalar Newton/bisection solve of one table separation."""
    if dx == 0.0:
        return hi - lo
    w, f0, f1 = wp._table_pieces(f, lo, hi)
    span = w * (f0 + f1)
    reach = wp.null_offset(f, lo, hi)

    def radius(fv, p):
        # unscaled: the solver's power-of-two units change no bit here
        return np.sqrt(fv * fv + p * p)

    def displacement(p):
        r0, r1 = radius(f0, p), radius(f1, p)
        q = p / (f0 * f1 * (r0 + r1))
        v = q * (f1 - f0) * (f0 + f1)
        flat = v == 0.0
        shrink = np.where(flat, 1.0, np.arcsinh(v) / np.where(flat, 1.0, v))
        gap = float(np.sum(q * span * shrink)) - dx
        return gap, float(np.sum(span / (r0 * r1 * (r0 + r1))))

    # the root for the constant warping with the same null offset
    rho = dx / reach
    p = (hi - lo) / reach * rho / math.sqrt((1.0 - rho) * (1.0 + rho))
    p_lo, p_hi = 0.0, math.inf
    for _ in range(200):
        gap, slope = displacement(p)
        if gap == 0.0:
            break
        if gap < 0.0:
            p_lo = p
        else:
            p_hi = p
        step = p - gap / slope
        nxt = step if p_lo < step < p_hi else 0.5 * (p_lo + p_hi)
        done = abs(nxt - p) <= 1e-12 * p or p_hi - p_lo <= 4e-16 * p_lo
        p = nxt
        if done:
            break
    else:
        raise AssertionError(f"reference solve for {dx!r} did not converge")
    return float(np.sum(span / (radius(f0, p) + radius(f1, p))))


def reference_table_sample(f, S, grid):
    """(leq, tau) of a table sample from one scalar solve per distinct
    (time pair, distance), pair by pair."""
    nb = S.size
    t = np.repeat(np.asarray(grid, dtype=float), nb)
    base = np.tile(np.arange(nb), len(grid))
    D = S.dist[np.ix_(base, base)]
    n = len(t)
    tau = np.zeros((n, n))
    leq = np.eye(n, dtype=bool)
    memo = {}
    for i in range(n):
        for j in range(n):
            if i == j or t[i] > t[j]:
                continue
            key = (t[i], t[j], D[i, j])
            if key not in memo:
                lo, hi, dx = float(t[i]), float(t[j]), float(D[i, j])
                reach = wp.null_offset(f, lo, hi)
                if dx > reach + wp.NULL_BAND:
                    memo[key] = None
                elif dx >= reach - wp.NULL_BAND:
                    memo[key] = 0.0
                else:
                    memo[key] = reference_table_tau(f, lo, hi, dx)
            if memo[key] is not None:
                leq[i, j] = True
                tau[i, j] = memo[key]
    return leq, tau


def reference_closed_form_sample(f, S, grid):
    """(leq, tau) of a cos or constant sample from its closed form on all
    n x n pairs, over the gathered base distances."""
    nb = S.size
    t = np.repeat(np.asarray(grid, dtype=float), nb)
    base = np.tile(np.arange(nb), len(grid))
    D = S.dist[np.ix_(base, base)]
    if f.kind == wp.COS:
        leq, _, tau = ms.ads_separation(t[:, None], t, D, t[:, None] <= t[None, :])
        return leq, tau
    dt = t[None, :] - t[:, None]
    order = dt >= 0.0
    reach = np.where(order, dt, 0.0) / f.value
    leq = order & (D <= reach + wp.NULL_BAND)
    timelike = order & (D < reach - wp.NULL_BAND)
    rad = np.maximum(dt * dt - (f.value * D) ** 2, 0.0)
    return leq, np.where(timelike, np.sqrt(rad), 0.0)


def assert_matches_reference(f, S, grid):
    X = wp.sample_warped_product(f, S, grid)
    leq, tau = reference_table_sample(f, S, grid)
    assert np.array_equal(X.leq, leq)
    assert np.array_equal(X.tau, tau)
    return X


# ---------------------------------------------------------------- profiles


def test_cos_profile_fixes_interval_and_values():
    f = wp.cos_warping()
    assert f.kind == "cos"
    assert abs(f.interval[0] + ms.HALF_PI) < EXACT
    assert f.value is None and f.knots is None and f.values is None


def test_constant_profile_requires_positive_value():
    with pytest.raises(StructuralError):
        wp.constant_warping(0.0, (-1.0, 1.0))
    with pytest.raises(StructuralError):
        wp.constant_warping(-2.0, (-1.0, 1.0))


def test_constant_profile_requires_nonempty_interval():
    with pytest.raises(StructuralError):
        wp.constant_warping(1.0, (1.0, 1.0))
    with pytest.raises(StructuralError):
        wp.constant_warping(1.0, (2.0, -2.0))


def test_table_profile_rejects_unsorted_knots():
    with pytest.raises(StructuralError):
        wp.table_warping([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(StructuralError):
        wp.table_warping([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])


def test_table_profile_rejects_nonpositive_values():
    with pytest.raises(StructuralError):
        wp.table_warping([0.0, 1.0], [1.0, 0.0])


def test_table_profile_rejects_interval_beyond_knots():
    with pytest.raises(StructuralError, match="span the interval"):
        wp.WarpingSpec(wp.TABLE, (-0.5, 1.0), knots=(0.0, 1.0), values=(1.0, 1.0))


def test_table_interpolates_linearly_between_knots():
    # f = 1 + 2t on [0.25, 0.5], so the integral of 1/f is log(4/3)/2
    f = wp.table_warping([0.0, 1.0], [1.0, 3.0])
    assert abs(wp.null_offset(f, 0.25, 0.5) - math.log(4.0 / 3.0) / 2.0) < EXACT


def test_table_arrays_are_read_only_and_leave_equality_alone():
    f = wp.table_warping([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    g = wp.table_warping([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
    knots, values = f.table
    assert f.table is f.table
    assert knots.tolist() == list(f.knots) and values.tolist() == list(f.values)
    for a in (knots, values):
        with pytest.raises(ValueError):
            a[0] = 9.0
    assert f == g and hash(f) == hash(g)
    assert f != wp.table_warping([0.0, 0.5, 1.0], [1.0, 2.0, 4.0])


def test_cos_profile_interval_is_pinned():
    with pytest.raises(StructuralError):
        wp.WarpingSpec(kind="cos", interval=(-1.0, 1.0))


# ---------------------------------------------------------------- base spaces


def test_metric_space_rejects_asymmetry():
    bad = np.array([[0.0, 1.0], [1.1, 0.0]])
    with pytest.raises(StructuralError):
        wp.FiniteMetricSpace(("a", "b"), bad)


def test_metric_space_rejects_triangle_violation():
    bad = np.array(
        [
            [0.0, 1.0, 3.0],
            [1.0, 0.0, 1.0],
            [3.0, 1.0, 0.0],
        ]
    )
    with pytest.raises(StructuralError):
        wp.FiniteMetricSpace(("a", "b", "c"), bad)


def test_metric_space_rejects_duplicate_labels():
    with pytest.raises(StructuralError):
        wp.FiniteMetricSpace(("a", "a"), np.zeros((2, 2)))


# ---------------------------------------------------------------- null offset


def test_null_offset_cos_matches_conformal_time():
    f = wp.cos_warping()
    for t0, t1 in ((-0.7, 0.2), (0.0, 1.3), (-1.5, 1.5)):
        expect = ms.conformal_time(t1) - ms.conformal_time(t0)
        assert abs(wp.null_offset(f, t0, t1) - expect) < EXACT


def test_null_offset_constant_is_linear():
    f = wp.constant_warping(2.0, (-3.0, 3.0))
    assert abs(wp.null_offset(f, -1.0, 2.0) - 1.5) < EXACT


def test_null_offset_table_matches_cos_closed_form():
    f = dense_cos_table()
    expect = ms.conformal_time(1.2) - ms.conformal_time(-0.4)
    assert abs(wp.null_offset(f, -0.4, 1.2) - expect) < CROSS_CHECK


def test_null_offset_zero_width_is_zero():
    assert wp.null_offset(wp.cos_warping(), 0.3, 0.3) == 0.0


def test_null_offset_rejects_reversed_endpoints():
    with pytest.raises(ParameterError):
        wp.null_offset(wp.cos_warping(), 0.5, -0.5)


def test_null_offset_rejects_endpoint_outside_interval():
    with pytest.raises(DomainError):
        wp.null_offset(wp.constant_warping(1.0, (0.0, 1.0)), 0.0, 1.5)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-1.4, max_value=1.4),
    st.floats(min_value=-1.4, max_value=1.4),
    st.floats(min_value=-1.4, max_value=1.4),
)
def test_null_offset_is_additive_along_the_interval(a, b, c):
    a, b, c = sorted((a, b, c))
    f = wp.cos_warping()
    whole = wp.null_offset(f, a, c)
    split = wp.null_offset(f, a, b) + wp.null_offset(f, b, c)
    assert abs(whole - split) < 1e-10


# ---------------------------------------------------------------- separations
#
# Each separation is read off the sampler: two base points dx apart (one
# point when dx is 0) on the grid [s, t], from (s, first point) to
# (t, last point).


def sampled_pair(f, s, t, dx):
    """The sample of f over a base of diameter dx on the grid [s, t] and
    the indices of its earliest and latest point."""
    if dx == 0.0:
        S = wp.FiniteMetricSpace(("a",), np.zeros((1, 1)))
    else:
        S = wp.FiniteMetricSpace(("a", "b"), np.array([[0.0, dx], [dx, 0.0]]))
    X = wp.sample_warped_product(f, S, [s, t])
    return X, 0, X.size - 1


def sampled_separation(f, s, t, dx):
    """Causal class and time separation from (s, 0) to (t, dx)."""
    X, i, j = sampled_pair(f, s, t, dx)
    if not X.leq[i, j]:
        return "unrelated", 0.0
    tau = float(X.tau[i, j])
    return ("timelike" if tau > 0.0 else "null"), tau


def test_constant_separation_matches_minkowski_formula():
    f = wp.constant_warping(1.0, (-1.0, 6.0))
    relation, tau = sampled_separation(f, 0.0, 5.0, 3.0)
    assert relation == "timelike"
    assert abs(tau - 4.0) < EXACT


def test_constant_separation_scales_displacement_by_value():
    f = wp.constant_warping(2.0, (-1.0, 6.0))
    relation, tau = sampled_separation(f, 0.0, 5.0, 1.5)
    assert relation == "timelike"
    assert abs(tau - 4.0) < EXACT


def test_cos_separation_delegates_to_model_space():
    f = wp.cos_warping()
    rng = np.random.default_rng(4)
    for _ in range(200):
        s, t = sorted(rng.uniform(-1.5, 1.5, size=2))
        dx = rng.uniform(0.0, 3.0)
        got = sampled_separation(f, s, t, dx)
        res = ms.ads_interval(ms.AdsPrimePoint(s, 0.0), ms.AdsPrimePoint(t, dx))
        assert got[0] == res.relation
        assert abs(got[1] - res.tau) < EXACT


def test_null_band_classification_at_the_light_cone():
    f = wp.constant_warping(1.0, (-1.0, 6.0))
    assert sampled_separation(f, 0.0, 2.0, 2.0) == ("null", 0.0)
    assert sampled_separation(f, 0.0, 2.0, 2.0 + 1e-6)[0] == "unrelated"
    assert sampled_separation(f, 0.0, 2.0, 1.9)[0] == "timelike"


def test_past_directed_pair_carries_forward_separation():
    # the pair read backward is unrelated; the forward entry carries tau
    for f, dx in (
        (wp.constant_warping(1.0, (-1.0, 6.0)), 3.0),
        (wp.table_warping([-1.0, 6.0], [1.0, 1.0]), 3.0),
    ):
        X, i, j = sampled_pair(f, 0.0, 5.0, dx)
        assert X.leq[i, j] and abs(X.tau[i, j] - 4.0) < CROSS_CHECK
        assert not X.leq[j, i] and X.tau[j, i] == 0.0


def test_vertical_separation_is_elapsed_time_for_any_profile():
    for f in (wp.cos_warping(), wp.constant_warping(0.7, (-2.0, 2.0)), dense_cos_table()):
        relation, tau = sampled_separation(f, -0.5, 0.75, 0.0)
        assert relation == "timelike"
        assert abs(tau - 1.25) < EXACT


def test_table_separation_matches_cos_closed_form():
    f = dense_cos_table()
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 60:
        s, t = sorted(rng.uniform(-1.4, 1.4, size=2))
        dx = rng.uniform(0.05, 2.5)
        res = ms.ads_interval(ms.AdsPrimePoint(s, 0.0), ms.AdsPrimePoint(t, dx))
        if res.relation != "timelike" or res.tau < 0.05:
            continue
        relation, tau = sampled_separation(f, s, t, dx)
        assert relation == "timelike"
        assert abs(tau - res.tau) < CROSS_CHECK
        checked += 1


def test_table_separation_matches_constant_closed_form():
    # a two-knot table runs the table solver, the constant kind the
    # Minkowski formula
    table = wp.table_warping([-1.0, 6.0], [1.0, 1.0])
    exact = wp.constant_warping(1.0, (-1.0, 6.0))
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 60:
        s, t = sorted(rng.uniform(-0.9, 5.9, size=2))
        dx = rng.uniform(0.05, 4.0)
        res_e = sampled_separation(exact, s, t, dx)
        if res_e[0] != "timelike" or res_e[1] < 0.05:
            continue
        res_t = sampled_separation(table, s, t, dx)
        assert res_t[0] == "timelike"
        assert abs(res_t[1] - res_e[1]) < CROSS_CHECK
        # near the cone, where the geodesic's p grows without bound
        for k in (3, 6, 8):
            near = (t - s) * (1.0 - 10.0 ** -k)
            if near >= (t - s) - wp.NULL_BAND:
                continue
            res_e = sampled_separation(exact, s, t, near)
            res_t = sampled_separation(table, s, t, near)
            assert res_t[0] == res_e[0] == "timelike"
            assert abs(res_t[1] - res_e[1]) < 1e-10
        checked += 1


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_sloped_table_matches_milne_wedge(b):
    # f = b t makes the strip the flat Milne wedge: (t, x) sits at
    # (t cosh(b x), t sinh(b x)) in Minkowski coordinates
    f = wp.table_warping([0.5, 3.0], [b * 0.5, b * 3.0])
    for s, t in ((0.6, 2.9), (1.0, 1.5), (0.7, 0.71), (2.0, 2.9)):
        reach = wp.null_offset(f, s, t)
        assert abs(reach - math.log(t / s) / b) < EXACT
        for frac in (0.0, 1e-100, 0.3, 0.9, 0.999, 1.0 - 1e-6):
            dx = reach * frac
            relation, tau = sampled_separation(f, s, t, dx)
            exact = math.sqrt((t - s) ** 2 - 4.0 * s * t * math.sinh(b * dx / 2.0) ** 2)
            assert relation == "timelike"
            assert abs(tau - exact) < 1e-10


def test_separation_is_monotone_in_displacement():
    # a segment base puts every displacement into one sample
    f = dense_cos_table()
    S = segment_space(12, 1.5 / 11)
    X = wp.sample_warped_product(f, S, [-0.8, 0.8])
    row = X.tau[0, S.size:]
    taus = row[row > 0.0]
    assert len(taus) >= 6
    assert all(a > b for a, b in zip(taus, taus[1:]))


def mixed_table():
    """Flat pieces between sloped ones: the solver meets v = 0 in some
    pieces and not in others."""
    return wp.table_warping([-2.0, -1.0, 0.0, 1.0, 2.0], [1.0, 1.0, 2.0, 2.0, 1.0])


def test_table_separation_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    tables = (
        cos_power_table(33),
        cos_power_table(65, 1.5),
        wp.table_warping([0.0, 4.0], [1.0, 1.0]),
        mixed_table(),
    )
    for f in tables:
        a, b = f.interval
        for _ in range(40):
            s, t = sorted(rng.uniform(a + 0.05, b - 0.05, size=2))
            reach = wp.null_offset(f, s, t)
            # a tiny p, and the bisection next to the cone
            for dx in (rng.uniform(0.0, 1.2) * reach, 1e-100 * reach, (1.0 - 1e-6) * reach):
                relation, tau = sampled_separation(f, s, t, dx)
                if relation == "timelike":
                    assert tau == reference_table_tau(f, s, t, dx)


def test_table_solver_reports_a_lane_that_does_not_converge(monkeypatch):
    monkeypatch.setattr(wp, "_MAX_STEPS", 1)
    f = cos_power_table(33)
    with pytest.raises(ConvergenceError, match=r"^geodesic to displacement 0\.3 did not converge$"):
        sampled_pair(f, -0.5, 0.5, 0.3)
    with pytest.raises(ConvergenceError, match=r"^geodesic to displacement .+ did not converge$"):
        wp.sample_warped_product(f, circle_space(4, 2.0), [-0.5, 0.5])


@pytest.mark.parametrize("power", [600, -600])
def test_table_separations_scale_with_the_table(power):
    # t = mu s maps I x_f S onto mu (I/mu x_{f(mu s)/mu} S): scaling knots,
    # values and times by mu scales every tau by mu and keeps the relation;
    # at 2^600 a square of f overflows, at 2^-600 it underflows
    mu = math.ldexp(1.0, power)
    f = cos_power_table(33)
    S = jittered_circle_net(1)
    X = wp.sample_warped_product(f, S, BENCH_GRID)
    g = wp.table_warping(np.array(f.knots) * mu, np.array(f.values) * mu)
    Y = wp.sample_warped_product(g, S, BENCH_GRID * mu)
    assert np.array_equal(Y.leq, X.leq)
    assert np.all(np.abs(Y.tau / mu - X.tau) <= 4 * np.finfo(float).eps * X.tau)


FLAT_GRID = np.linspace(0.05, 3.95, 7)


def flat_table():
    return wp.table_warping(np.linspace(0.0, 4.0, 9), np.ones(9))


def test_flat_table_matches_the_constant_warping():
    S = jittered_circle_net(3)
    X = wp.sample_warped_product(flat_table(), S, FLAT_GRID)
    Y = wp.sample_warped_product(wp.constant_warping(1.0, (0.0, 4.0)), S, FLAT_GRID)
    assert np.array_equal(X.leq, Y.leq)
    t = X.coords[:, 0]
    elapsed = np.abs(t[None, :] - t[:, None])
    assert np.all(np.abs(X.tau - Y.tau) <= 4 * np.finfo(float).eps * elapsed)


def test_flat_table_solver_starts_at_the_root(monkeypatch):
    # from the constant warping's root the first step is below rounding
    S = jittered_circle_net(3)
    whole = wp.sample_warped_product(flat_table(), S, FLAT_GRID)
    monkeypatch.setattr(wp, "_MAX_STEPS", 2)
    capped = wp.sample_warped_product(flat_table(), S, FLAT_GRID)
    assert np.array_equal(capped.tau, whole.tau)


def test_separation_rejects_time_outside_interval():
    f = wp.constant_warping(1.0, (0.0, 1.0))
    with pytest.raises(DomainError):
        sampled_pair(f, 0.0, 2.0, 0.1)


@pytest.mark.parametrize(
    "offset", [-3e-9, -wp.NULL_BAND, -0.5e-9, 0.0, 0.5e-9, wp.NULL_BAND, 3e-9]
)
def test_constant_sample_classifies_the_null_band(offset):
    # value 2 over dt = 2 puts the reach at exactly 1
    f = wp.constant_warping(2.0, (-1.0, 2.0))
    X, i, j = sampled_pair(f, -0.5, 1.5, 1.0 + offset)
    assert X.leq[i, j] == (offset <= wp.NULL_BAND)
    assert (X.tau[i, j] > 0.0) == (offset < -wp.NULL_BAND)
    assert not X.leq[j, i] and X.tau[j, i] == 0.0


# ---------------------------------------------------------------- sampling


def test_sampled_constant_product_matches_scalar_separations():
    # the Minkowski formula pair by pair, with the null band at the cone
    f = wp.constant_warping(1.0, (-2.0, 2.0))
    S = segment_space(5, 0.5)
    grid = np.linspace(-1.8, 1.8, 7)
    X = wp.sample_warped_product(f, S, grid)
    assert X.size == 35
    for i in range(X.size):
        for j in range(X.size):
            ti, bi = grid[i // 5], i % 5
            tj, bj = grid[j // 5], j % 5
            dt, dx = float(tj - ti), float(S.dist[bi, bj])
            if dt < 0.0 or dx > dt + wp.NULL_BAND:
                assert not X.leq[i, j] and X.tau[i, j] == 0.0
            elif dx >= dt - wp.NULL_BAND:
                assert X.leq[i, j] and X.tau[i, j] == 0.0
            else:
                assert X.leq[i, j] and abs(X.tau[i, j] - math.sqrt(dt * dt - dx * dx)) < EXACT


def test_sampled_table_product_matches_suspension_closed_form():
    f = dense_cos_table()
    S = circle_space()
    grid = np.linspace(-1.2, 1.2, 5)
    X = wp.sample_warped_product(f, S, grid)
    Y = wp.sample_suspension(S, grid)
    assert np.array_equal(X.leq, Y.leq)
    assert np.max(np.abs(X.tau - Y.tau)) < CROSS_CHECK


BENCH_GRID = np.linspace(-ms.HALF_PI + 0.05, ms.HALF_PI - 0.05, 7)


@pytest.mark.parametrize(
    "knots, nets", [(33, (0, 1, 2)), (2049, (0, 1))], ids=["cos33", "cos2049"]
)
def test_batched_table_sample_matches_scalar_reference_on_circle_nets(knots, nets):
    f = cos_power_table(knots)
    for net in nets:
        assert_matches_reference(f, jittered_circle_net(net), BENCH_GRID)


def test_batched_table_sample_does_not_depend_on_the_lane_block(monkeypatch):
    f = cos_power_table(65, 1.5)
    S = jittered_circle_net(4)
    whole = wp.sample_warped_product(f, S, BENCH_GRID)
    monkeypatch.setattr(wp, "_SOLVE_CELLS", 1)
    alone = assert_matches_reference(f, S, BENCH_GRID)
    assert np.array_equal(whole.tau, alone.tau)


def test_batched_table_sample_matches_scalar_reference_off_cos():
    # f'' + f changes sign for cos^1.5, and the flat table has no slope
    S = jittered_circle_net(3)
    assert_matches_reference(cos_power_table(65, 1.5), S, BENCH_GRID)
    assert_matches_reference(flat_table(), S, FLAT_GRID)
    assert_matches_reference(mixed_table(), S, BENCH_GRID)


def test_batched_table_sample_on_one_base_point_and_one_time_level():
    f = cos_power_table(33)
    S = circle_space(4, 2.0)
    X = assert_matches_reference(f, S, BENCH_GRID)
    nb = S.size
    for a, lo in enumerate(BENCH_GRID):
        for b, hi in enumerate(BENCH_GRID):
            block = (slice(a * nb, (a + 1) * nb), slice(b * nb, (b + 1) * nb))
            if a == b:
                # one level: only a point with itself is related
                assert np.array_equal(X.leq[block], np.eye(nb, dtype=bool))
                assert not X.tau[block].any()
            elif a < b:
                # one base point at two levels: dx = 0, tau = hi - lo
                assert np.diag(X.leq[block]).all()
                assert np.array_equal(np.diag(X.tau[block]), np.full(nb, hi - lo))
            else:
                assert not X.leq[block].any()


@pytest.mark.parametrize(
    "offset", [-3e-9, -wp.NULL_BAND, -0.5e-9, 0.0, 0.5e-9, wp.NULL_BAND, 3e-9]
)
def test_batched_table_sample_classifies_the_null_band(offset):
    f = cos_power_table(33)
    grid = [-0.6, 0.4]
    reach = wp.null_offset(f, *grid)
    S = wp.FiniteMetricSpace(("a", "b"), np.array([[0.0, reach + offset], [reach + offset, 0.0]]))
    X = assert_matches_reference(f, S, grid)
    assert X.leq[0, 3] == (offset <= wp.NULL_BAND)
    assert (X.tau[0, 3] > 0.0) == (offset < -wp.NULL_BAND)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=12),
    st.lists(st.floats(0.1, 3.0), min_size=13, max_size=13),
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=5, unique=True),
    st.lists(st.integers(0, 40), min_size=1, max_size=5, unique=True),
    st.floats(0.01, 0.5),
)
def test_batched_table_sample_matches_scalar_reference_property(widths, values, fracs, sites, step):
    knots = np.concatenate(([0.0], np.cumsum(widths)))
    f = wp.table_warping(knots, values[: len(knots)])
    grid = np.unique(knots[-1] * np.array(fracs))
    pos = np.array(sites) * step
    S = wp.FiniteMetricSpace(
        tuple(f"s{k}" for k in range(len(pos))), np.abs(pos[:, None] - pos[None, :])
    )
    assert_matches_reference(f, S, grid)


def plane_space(n, seed):
    """n random points of the plane: every distance distinct."""
    pts = np.random.default_rng(seed).normal(size=(n, 2))
    dist = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    return wp.FiniteMetricSpace(tuple(f"p{k}" for k in range(n)), dist)


CLOSED_FORMS = {
    "cos": (wp.cos_warping(), np.linspace(-ms.HALF_PI + 0.05, ms.HALF_PI - 0.05, 9)),
    "constant": (wp.constant_warping(0.7, (-1.0, 3.0)), np.linspace(-0.95, 2.95, 9)),
}


@pytest.mark.parametrize("kind", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("base, levels", [
    pytest.param(lambda: jittered_circle_net(2), slice(None), id="few-distances"),
    pytest.param(lambda: plane_space(15, 1), slice(None), id="all-distinct"),
    pytest.param(lambda: segment_space(1), slice(None), id="one-point"),
    pytest.param(lambda: plane_space(15, 2), slice(4, 5), id="one-level"),
])
def test_closed_form_sample_matches_the_pairwise_reference_bytes(kind, base, levels):
    # one separation per distinct distance and level pair, filled through
    # the inverse map, gives every pair the bits of its own evaluation
    f, grid = CLOSED_FORMS[kind]
    grid = grid[levels]
    S = base()
    X = wp.sample_warped_product(f, S, grid)
    leq, tau = reference_closed_form_sample(f, S, grid)
    assert X.tau.tobytes() == tau.tobytes()
    assert X.leq.tobytes() == leq.tobytes()


@pytest.mark.parametrize("kind", sorted(CLOSED_FORMS))
def test_sampling_keeps_no_pairwise_temporaries(kind):
    # 972 points over a bench-like net: tau, leq and the checked copies
    # FiniteCausalSpace makes of them peak at 19 bytes a pair, and the
    # whole sampling read 17.2 MiB traced against a bound of 18.0; the
    # n x n closed forms read 25.4 MiB for cos and 47.9 MiB for constant
    f, grid = CLOSED_FORMS[kind]
    grid = np.linspace(grid[0], grid[-1], 81)
    S = jittered_circle_net(3)
    tracemalloc.start()
    try:
        X = wp.sample_warped_product(f, S, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.size == 972
    assert peak < 20 * X.size**2


def test_suspension_sample_layout_and_values():
    S = circle_space(4, 2.0)
    grid = np.array([-0.5, 0.0, 0.5])
    X = wp.sample_suspension(S, grid)
    assert X.size == 12
    assert X.labels[0] == "c00@0" and X.labels[5] == "c01@1"
    i = X.index("c00@0")
    j = X.index("c00@2")
    assert abs(X.tau[i, j] - 1.0) < EXACT
    k = X.index("c02@1")
    res = ms.ads_interval(ms.AdsPrimePoint(-0.5, 0.0), ms.AdsPrimePoint(0.0, 1.0))
    assert abs(X.tau[i, k] - res.tau) < EXACT


@pytest.mark.parametrize("margin", [1e-4, 1e-6])
def test_suspension_near_the_strip_edge_validates(margin):
    # at one level the cone test reads 1 + (cosh d - 1) cos^2 t, inside
    # ARG_SLACK this near the edge: distinct points of a level must
    # still be unrelated, or leq is neither antisymmetric nor transitive
    S = circle_space()
    grid = np.linspace(-ms.HALF_PI + margin, ms.HALF_PI - margin, 21)
    X = wp.sample_suspension(S, grid)
    for level in (0, 20):
        block = slice(level * S.size, (level + 1) * S.size)
        assert np.array_equal(X.leq[block, block], np.eye(S.size, dtype=bool))
    assert cs.validate_space(X, tol=1e-8).verdict


def test_suspension_rejects_grid_outside_strip():
    S = circle_space(4, 2.0)
    with pytest.raises(DomainError):
        wp.sample_suspension(S, np.array([-2.0, 0.0]))


def test_sampling_rejects_unsorted_grid():
    S = circle_space(4, 2.0)
    with pytest.raises(ParameterError):
        wp.sample_suspension(S, np.array([0.5, 0.0]))

"""End-to-end acceptance suite: one test per headline guarantee.

Each test pins a published tolerance and, where one is stated, a
wall-clock budget.  Oracles are closed forms throughout: the ambient
quadric for the strip formulas, the explicit geodesic parametrization
for the ODE, Minkowski separations for constant warpings, and exactly
sampled suspensions for the curvature checks and the splitting
pipeline.  Test order follows the criterion numbering in the names, so
a verbose run reads as the acceptance checklist.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from llk import causal_space as cs
from llk import cli
from llk import model_space as ms
from llk import rigidity as rg
from llk import warped_product as wp
from llk.errors import GeometryError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"

N_TIMES = 21
DELTA = 0.05
STEP = (math.pi - 2 * DELTA) / (N_TIMES - 1)


def circle_space(n=12, circumference=4.0):
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
def splitting(n_times=N_TIMES):
    _, _, X = suspension(n_times)
    return rg.build_splitting(X, rg.find_line(X))


def draw_triangles(X, n_wanted, min_sep, tol):
    """Seeded triangle sweep; yields one comparison report per triangle."""
    reports = []
    for rng in cli._sample_streams(0, 4 * n_wanted):
        if len(reports) == n_wanted:
            break
        verts = cli._draw_triangle(X, rng, min_sep)
        if verts is None:
            continue
        chains = cli._side_chains(X, verts)
        audit = cs.triangle_audit(X, verts, chains, tol)
        reports.append(cs.check_triangle_comparisons(X, [audit], tol)[0])
    assert len(reports) == n_wanted
    return reports


# ---- 1: strip interval against the ambient quadric


def test_criterion_01_interval_matches_ambient_embedding():
    rng = np.random.default_rng(1)
    n = 10_000
    ts = rng.uniform(-ms.HALF_PI + 1e-6, ms.HALF_PI - 1e-6, size=(n, 2))
    xs = rng.uniform(-3.0, 3.0, size=(n, 2))
    started = time.perf_counter()
    worst = 0.0
    for k in range(n):
        p = ms.AdsPrimePoint(float(ts[k, 0]), float(xs[k, 0]))
        q = ms.AdsPrimePoint(float(ts[k, 1]), float(xs[k, 1]))
        direct = ms.ads_interval(p, q)
        ambient = ms.ambient_tau(ms.embed_ads(p), ms.embed_ads(q))
        assert direct.relation == ambient.relation
        if direct.relation == "timelike":
            worst = max(worst, abs(direct.tau - ambient.tau))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 1.0


# ---- 2: geodesics run at unit speed and solve the geodesic equation


def _ode_residual(g, lam, h=5e-4):
    # 5-point stencils: truncation stays below tolerance away from the
    # cone edge, where the fourth derivative of t(lam) blows up
    pts = [ms.geodesic_point(g, lam + k * h) for k in (-2, -1, 0, 1, 2)]
    t = [p.t for p in pts]
    x = [p.x for p in pts]
    td = (t[0] - 8 * t[1] + 8 * t[3] - t[4]) / (12 * h)
    xd = (x[0] - 8 * x[1] + 8 * x[3] - x[4]) / (12 * h)
    tdd = (-t[0] + 16 * t[1] - 30 * t[2] + 16 * t[3] - t[4]) / (12 * h * h)
    xdd = (-x[0] + 16 * x[1] - 30 * x[2] + 16 * x[3] - x[4]) / (12 * h * h)
    tc = t[2]
    ode_t = tdd - math.sin(tc) * math.cos(tc) * xd * xd
    ode_x = xdd - 2 * math.tan(tc) * td * xd
    clock = td * td - math.cos(tc) ** 2 * xd * xd - 1.0
    return max(abs(ode_t), abs(ode_x), abs(clock))


def test_criterion_02_geodesics_unit_speed_and_ode_residual():
    rng = np.random.default_rng(2)
    started = time.perf_counter()
    worst_speed = 0.0
    worst_ode = 0.0
    for _ in range(1000):
        g = ms.GeodesicParams(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        reach = math.asin(min(1.0, 1.0 / math.cosh(g.omega)))
        lam1 = -reach * float(rng.uniform(0.1, 0.9))
        lam2 = reach * float(rng.uniform(0.1, 0.9))
        res = ms.ads_interval(
            ms.geodesic_point(g, lam1), ms.geodesic_point(g, lam2)
        )
        assert res.relation == "timelike"
        worst_speed = max(worst_speed, abs(res.tau - (lam2 - lam1)))
        margin = math.asin(0.8 / math.cosh(g.omega)) - 3 * 5e-4
        lam0 = float(rng.uniform(-margin, margin))
        worst_ode = max(worst_ode, _ode_residual(g, lam0))
    elapsed = time.perf_counter() - started
    assert worst_speed <= 1e-9
    assert worst_ode <= 1e-6
    assert elapsed < 5.0


# ---- 3: law-of-cosines round trip and side monotonicity


def test_criterion_03_law_of_cosines_round_trip_and_monotonicity():
    rng = np.random.default_rng(3)
    checked = 0
    worst = 0.0
    for _ in range(40_000):
        if checked == 10_000:
            break
        a12, a23 = (float(v) for v in rng.uniform(0.1, 1.4, size=2))
        omega = float(rng.uniform(-3, 3))
        sigma = 1 if rng.integers(2) else -1
        try:
            a13 = ms.loc_side(a12, a23, omega, sigma)
            back = ms.loc_angle(a12, a23, a13, sigma)
        except GeometryError:
            continue
        checked += 1
        worst = max(worst, abs(back - abs(omega)))
    assert checked == 10_000
    assert worst <= 1e-10

    triples = 0
    for _ in range(20_000):
        if triples == 1000:
            break
        a12, a23 = (float(v) for v in rng.uniform(0.1, 1.4, size=2))
        w = np.sort(rng.uniform(0.0, 3.0, size=3))
        if w[1] - w[0] < 1e-3 or w[2] - w[1] < 1e-3:
            continue
        try:
            sides = [ms.loc_side(a12, a23, float(v), 1) for v in w]
            angles = [ms.loc_angle(a12, a23, s, 1) for s in sides]
        except GeometryError:
            continue
        triples += 1
        assert sides[0] < sides[1] < sides[2]
        assert angles[0] <= angles[1] + 1e-12
        assert angles[1] <= angles[2] + 1e-12
    assert triples == 1000


# ---- 4: warped separations against closed forms


def sampled_separation(f, t1, t2, d):
    """tau from (t1, a) to (t2, b) in the sample of f over two base
    points d apart on the grid [t1, t2]; 0 unless timelike."""
    S = wp.FiniteMetricSpace(("a", "b"), np.array([[0.0, d], [d, 0.0]]))
    return float(wp.sample_warped_product(f, S, [t1, t2]).tau[0, 3])


def test_criterion_04_warped_solver_matches_closed_forms():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    knots = np.arange(-ms.HALF_PI + 1e-9, ms.HALF_PI, 5e-4)
    knots = np.append(knots, ms.HALF_PI - 1e-9)
    table = wp.table_warping(knots, np.cos(knots))
    worst = 0.0
    count = 0
    while count < 500:
        t1, t2 = np.sort(rng.uniform(-1.45, 1.45, size=2))
        d = float(rng.uniform(0.05, 2.0))
        exact = sampled_separation(wp.cos_warping(), float(t1), float(t2), d)
        if exact <= 0.0:
            continue
        got = sampled_separation(table, float(t1), float(t2), d)
        assert got > 0.0
        worst = max(worst, abs(got - exact))
        count += 1
    assert worst <= 1e-6

    v = 1.3
    flat = wp.constant_warping(v, (0.0, 4.0))
    worst_flat = 0.0
    for _ in range(500):
        t1, t2 = np.sort(rng.uniform(0.05, 3.95, size=2))
        d = float(rng.uniform(0.05, 2.5))
        got = sampled_separation(flat, float(t1), float(t2), d)
        dt = float(t2 - t1)
        if dt > v * d:
            assert got > 0.0
            worst_flat = max(worst_flat, abs(got - math.sqrt(dt * dt - (v * d) ** 2)))
        else:
            assert got == 0.0
    elapsed = time.perf_counter() - started
    assert worst_flat <= 1e-6
    assert elapsed < 30.0


# ---- 5: the curvature checker separates model, curved, and flat


def test_criterion_05_triangle_comparison_discriminates():
    # model-space sample: deficits and excesses both at rounding scale
    u = np.linspace(-0.6, 0.6, 21)
    pts = [ms.AdsPrimePoint((a + b) / 2, (b - a) / 2) for a in u for b in u]
    diamond = cs.sample_model_points(pts)
    assert diamond.size == 441
    for report in draw_triangles(diamond, 100, min_sep=0.1, tol=1e-6):
        assert report.verdict
        assert report.max_deficit <= 1e-6
        assert report.max_excess <= 1e-6

    # curved suspension: one-sided bound holds on every triangle
    _, _, X = suspension()
    for report in draw_triangles(X, 100, min_sep=0.3, tol=1e-6):
        assert report.verdict

    # flat strip of the same size: the bound fails on a third or more
    S = circle_space()
    strip = wp.sample_warped_product(
        wp.constant_warping(1.0, (0.0, 3.0)), S, np.linspace(0.05, 2.95, N_TIMES)
    )
    assert strip.size == X.size
    reports = draw_triangles(strip, 100, min_sep=0.3, tol=1e-6)
    violated = sum(1 for r in reports if r.violation_count > 0)
    assert violated >= 0.30 * len(reports)


# ---- 6: diameter bound separates curved suspensions from the flat strip


def test_criterion_06_diameter_bound_passes_curved_fails_flat():
    options = cli._build_parser().parse_args(["myers", "--in", "x"])
    curved = []
    for path in sorted(FIXTURES.glob("*.json")):
        parsed = cli.parse_space_file(path.read_bytes())
        if parsed.kind == "suspension_request" and parsed.warping.kind == "cos":
            curved.append(cli._materialize(parsed, options))
    assert curved
    for X in curved:
        assert cs.myers_check(X, tol=1e-9).verdict

    parsed = cli.parse_space_file((FIXTURES / "flat_strip.json").read_bytes())
    flat = cli._materialize(parsed, options)
    report = cs.myers_check(flat, tol=1e-9)
    assert not report.verdict
    assert report.max_deficit > 0.5


# ---- 7: splitting round trip with grid refinement


def test_criterion_07_splitting_round_trip_under_refinement():
    started = time.perf_counter()
    S, _, X = suspension()
    result = splitting()
    assert result.verdict
    assert result.mismatches == 0
    assert result.residual <= 2 * STEP

    fibers = [int(label.split("@")[0][1:]) for label in result.slice_space.labels]
    assert sorted(fibers) == list(range(S.size))
    perm = np.argsort(fibers)
    slice_err = np.max(
        np.abs(result.slice_space.dist[np.ix_(perm, perm)] - S.dist)
    )
    assert slice_err <= 2 * STEP

    refined = splitting(2 * N_TIMES - 1)
    assert refined.verdict
    assert refined.mismatches == 0
    # the reconstruction residual is quadratic in the grid step until it
    # reaches the rounding floor; below the floor the halving clause is
    # vacuous, because both readings are pure float noise
    floor = 1e-9
    if result.residual > floor or refined.residual > floor:
        assert 0.375 * result.residual <= refined.residual <= 0.625 * result.residual
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0


# ---- 8: the c-function criterion separates parallels from tilted lines


def c_functions(X, alpha, beta):
    """Constant, deviation and grid-scale bound of a line pair's c-functions.

    The constant and deviation come from the kernels split runs; the bound
    is twice the median parameter step of the two lines.
    """
    value, edge = rg._c_entries(X, alpha, beta)[3:]
    steps = np.concatenate([np.diff(alpha.params), np.diff(beta.params)])
    return (*rg._c_constant(value, edge), 2.0 * float(np.median(steps)))


def test_criterion_08_c_functions_separate_parallel_from_tilted():
    S, grid, X = suspension()
    lines = {}
    for k in (0, 1, 3, 6):
        column = [level * S.size + k for level in range(N_TIMES)]
        lines[k] = rg.line_from_chain(X, cs.make_chain(X, column))
    for a, b in ((0, 1), (1, 6), (0, 3)):
        constant, deviation, tol = c_functions(X, lines[a], lines[b])
        assert deviation <= tol
        assert deviation <= 1e-6
        assert abs(constant - S.dist[a, b]) <= 1e-6

    vertical = [ms.AdsPrimePoint(float(t), 0.0) for t in grid]
    tilted = [
        ms.geodesic_point(ms.GeodesicParams(0.5, 0.3), float(l))
        for l in np.linspace(-1.0, 1.0, 15)
    ]
    Y = cs.sample_model_points(vertical + tilted)
    alpha = rg.line_from_chain(Y, cs.make_chain(Y, list(range(len(vertical)))))
    beta = rg.line_from_chain(Y, cs.make_chain(Y, list(range(len(vertical), Y.size))))
    _, deviation, tol = c_functions(Y, alpha, beta)
    assert deviation > tol


# ---- 10: reports are byte-identical across worker counts


def test_criterion_10_reports_deterministic_across_workers():
    for run in json.loads((GOLDEN / "runs.json").read_text()):
        raw = (FIXTURES / run["fixture"]).read_bytes()
        outputs = []
        for jobs in ("1", "8"):
            options = cli._build_parser().parse_args(
                [run["command"], "--in", "x", "--jobs", jobs, *run["extra"]]
            )
            payload, code = cli.run_command(run["command"], raw, options)
            assert code == run["exit"]
            outputs.append(payload)
        assert outputs[0] == outputs[1]
        assert outputs[0] == (GOLDEN / run["golden"]).read_bytes()

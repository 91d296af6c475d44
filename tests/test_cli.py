"""Tests for the batch front door: parsing, dispatch, reports, the space writer.

Fixture files under fixtures/ are the integration oracle: each parses,
runs its representative command, and must reproduce its committed golden
report byte for byte, independently of the worker count.  Small inline
documents exercise the diagnostic paths.
"""

import errno
import hashlib
import itertools
import json
import math
import pathlib
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from llk import causal_space as cs
from llk import cli
from llk import model_space as ms
from llk import rigidity as rg
from llk import warped_product as wp
from llk.errors import ParameterError, StructuralError

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"

GOLDEN_RUNS = json.loads((GOLDEN / "runs.json").read_text())


def run_cli(command, infile, out, *extra):
    return cli.main([command, "--in", str(infile), "--out", str(out), *extra])


def doc_bytes(doc):
    return (json.dumps(doc) + "\n").encode()


def reference_space_bytes(X):
    """The json.dumps rendering of a space that render_space must reproduce."""
    tau = [
        [t if lk else None for t, lk in zip(tau_row.tolist(), leq_row.tolist())]
        for tau_row, leq_row in zip(X.tau, X.leq)
    ]
    leq = [row.tolist() for row in X.leq.view(np.uint8)]
    doc = {"kind": "finite_causal", "labels": list(X.labels), "tau": tau, "leq": leq}
    if X.coords is not None:
        doc["coords"] = X.coords.tolist()
    return cli._render_json(doc)


def fixture_space(name):
    return cli.parse_space_file((FIXTURES / name).read_bytes()).space


def fixture_suspension():
    parsed = cli.parse_space_file((FIXTURES / "suspension_circle12.json").read_bytes())
    return wp.sample_warped_product(parsed.warping, parsed.base, parsed.t_grid)


def shuffled_model_sample():
    rng = np.random.default_rng(11)
    t = rng.uniform(-1.5, 1.5, 200)
    x = rng.uniform(-3.0, 3.0, 200)
    # a vertical pair, a pair on the cone and a coincident pair
    t = np.append(t, [0.0, 0.5, 0.5, 0.0])
    x = np.append(x, [0.0, 0.0, ms.conformal_time(0.5), 0.0])
    perm = rng.permutation(len(t))
    return cs.sample_model_points(ms.AdsPrimePoint(a, b) for a, b in zip(t[perm], x[perm]))


# ---------------------------------------------------------------- parsing


def test_round_trip_preserves_space_files():
    raw = (FIXTURES / "ads_diamond_81.json").read_bytes()
    first = cli.parse_space_file(raw)
    again = cli.parse_space_file(cli.render_space(first.space))
    assert again.space.labels == first.space.labels
    assert np.array_equal(again.space.tau, first.space.tau)
    assert np.array_equal(again.space.leq, first.space.leq)
    assert np.array_equal(again.space.coords, first.space.coords)


def test_suspension_request_parses():
    parsed = cli.parse_space_file((FIXTURES / "suspension_circle12.json").read_bytes())
    assert parsed.kind == "suspension_request"
    assert parsed.warping.kind == "cos"
    assert parsed.base.size == 12
    assert len(parsed.t_grid) == 21


def test_unknown_kind_is_named():
    with pytest.raises(StructuralError, match="kind"):
        cli.parse_space_file(doc_bytes({"kind": "bogus"}))


def test_ragged_tau_names_the_row():
    doc = {
        "kind": "finite_causal",
        "labels": ["a", "b"],
        "tau": [[0, 1], [None]],
        "leq": [[1, 1], [0, 1]],
    }
    with pytest.raises(StructuralError, match=r"tau\[1\]"):
        cli.parse_space_file(doc_bytes(doc))


def test_non_finite_numbers_are_rejected():
    raw = b'{"kind": "finite_causal", "labels": ["a"], "tau": [[Infinity]], "leq": [[1]]}'
    with pytest.raises(StructuralError, match="non-finite"):
        cli.parse_space_file(raw)


def test_null_tau_must_mark_unrelated_pairs():
    doc = {
        "kind": "finite_causal",
        "labels": ["a", "b"],
        "tau": [[0, None], [None, 0]],
        "leq": [[1, 1], [0, 1]],
    }
    with pytest.raises(StructuralError, match=r"tau\[0\]\[1\]"):
        cli.parse_space_file(doc_bytes(doc))


def test_positive_tau_must_mark_related_pairs():
    doc = {
        "kind": "finite_causal",
        "labels": ["a", "b"],
        "tau": [[0, 1.0], [None, 0]],
        "leq": [[1, 0], [0, 1]],
    }
    with pytest.raises(StructuralError, match=r"tau\[0\]\[1\]"):
        cli.parse_space_file(doc_bytes(doc))


def square_doc(n=6):
    """A valid finite_causal document: n unrelated points."""
    return {
        "kind": "finite_causal",
        "labels": [f"p{k}" for k in range(n)],
        "tau": [[0] * n for _ in range(n)],
        "leq": [[int(i == j) for j in range(n)] for i in range(n)],
    }


def bad_tau_doc():
    doc = square_doc()
    doc["tau"][2][5] = "x"
    doc["tau"][2][4] = 0.5  # a number: the entry check passes it
    doc["tau"][3][0] = "y"
    return doc


def bad_leq_doc():
    doc = square_doc()
    doc["leq"][0][3] = 2
    doc["leq"][0][4] = "z"
    return doc


def bad_coords_doc():
    doc = square_doc()
    doc["coords"] = [[0.0, 0.0] for _ in range(6)]
    doc["coords"][1][1] = None
    return doc


def bad_dist_doc():
    doc = json.loads((FIXTURES / "suspension_circle12.json").read_text())
    doc["base"]["dist"][1][0] = "far"
    doc["base"]["dist"][1][3] = True
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (bad_tau_doc(), "tau[2][5]: expected a number, got 'x'"),
        (bad_leq_doc(), "leq[0][3]: expected 0 or 1, got 2"),
        (bad_coords_doc(), "coords[1][1]: expected a number, got None"),
        (bad_dist_doc(), "base.dist[1][0]: expected a number, got 'far'"),
    ],
)
def test_entry_errors_name_the_first_bad_entry(doc, message):
    with pytest.raises(StructuralError) as err:
        cli.parse_space_file(doc_bytes(doc))
    assert str(err.value) == message


def table_request_doc():
    doc = json.loads((FIXTURES / "suspension_circle12.json").read_text())
    knots = [-1.5 + 0.75 * k for k in range(5)]
    doc["warping"] = {"kind": "table", "knots": knots, "values": [1.0] * 5}
    return doc


def bad_knot_doc():
    doc = table_request_doc()
    doc["warping"]["knots"][3] = "x"
    doc["warping"]["knots"][4] = None
    return doc_bytes(doc)


def bad_value_doc():
    doc = table_request_doc()
    doc["warping"]["values"][2] = True
    return doc_bytes(doc)


def bad_grid_doc():
    # 1e400 reads as inf, which only the number check rejects
    doc = table_request_doc()
    doc["t_grid"][4] = 12345.5
    doc["t_grid"][6] = "late"
    return doc_bytes(doc).replace(b"12345.5", b"1e400")


@pytest.mark.parametrize(
    "raw, message",
    [
        (bad_knot_doc(), "warping.knots[3]: expected a number, got 'x'"),
        (bad_value_doc(), "warping.values[2]: expected a number, got True"),
        (bad_grid_doc(), "t_grid[4]: non-finite number outside the null (+inf) encoding"),
    ],
    ids=["bad-knot", "bad-value", "bad-grid"],
)
def test_request_entry_errors_name_the_first_bad_entry(raw, message):
    with pytest.raises(StructuralError) as err:
        cli.parse_space_file(raw)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("leq", True, "leq[1][4]: expected 0 or 1, got True"),
        ("leq", False, "leq[1][4]: expected 0 or 1, got False"),
        ("tau", True, "tau[1][4]: expected a number, got True"),
    ],
)
def test_json_booleans_are_not_relation_entries(key, value, message):
    doc = square_doc()
    doc[key][1][4] = value
    with pytest.raises(StructuralError) as err:
        cli.parse_space_file(doc_bytes(doc))
    assert str(err.value) == message


def test_leq_accepts_integral_floats():
    doc = square_doc()
    doc["leq"][1][4] = 1.0
    doc["leq"][2][2] = 1.0
    X = cli.parse_space_file(doc_bytes(doc)).space
    assert X.leq[1, 4] and X.leq[2, 2]
    assert np.count_nonzero(X.leq) == 7


@pytest.mark.parametrize(
    "null_at, positive_at, message",
    [
        ((3, 1), (0, 4), "tau[0][4]: positive entry on an unrelated pair"),
        ((0, 4), (3, 1), "tau[0][4]: null (+inf) entry on a related pair"),
        ((2, 5), (2, 3), "tau[2][3]: positive entry on an unrelated pair"),
    ],
)
def test_relation_errors_name_the_first_pair_in_row_order(null_at, positive_at, message):
    doc = square_doc()
    i, j = null_at
    doc["tau"][i][j] = None
    doc["leq"][i][j] = 1
    i, j = positive_at
    doc["tau"][i][j] = 0.25
    with pytest.raises(StructuralError) as err:
        cli.parse_space_file(doc_bytes(doc))
    assert str(err.value) == message


def test_null_tau_parses_as_zero_on_unrelated_pairs():
    doc = square_doc()
    doc["tau"][0][1] = None
    doc["tau"][1][0] = None
    doc["tau"][2][3] = 0.75
    doc["leq"][2][3] = 1
    X = cli.parse_space_file(doc_bytes(doc)).space
    want = np.zeros((6, 6))
    want[2, 3] = 0.75
    assert np.array_equal(X.tau, want)


# ---------------------------------------------------------------- writer


def diamond_without_coords():
    X = fixture_space("ads_diamond_81.json")
    return cs.FiniteCausalSpace(X.labels, X.tau, X.leq)


def one_point():
    return cs.FiniteCausalSpace(("solo",), [[0.0]], [[True]])


def awkward_labels():
    X = fixture_space("ads_diamond_81.json")
    labels = ('say "hi"', "back\\slash", "caf\u00e9 \u221e", "tab\there", "\U0001d4c1")
    return cs.FiniteCausalSpace(labels, X.tau[:5, :5], X.leq[:5, :5], X.coords[:5])


def jittered_circle_41():
    """A cos suspension at 41 levels over a jittered 12-point circle net:
    492 points whose separations repeat many times over."""
    rng = np.random.default_rng(5)
    sites = 2 * np.arange(12) + rng.integers(0, 2, size=12)
    gap = np.abs(sites[:, None] - sites[None, :])
    S = wp.FiniteMetricSpace(
        tuple(f"c{k:02d}" for k in range(12)), np.minimum(gap, 24 - gap) * (4.0 / 24)
    )
    return wp.sample_suspension(S, np.linspace(-ms.HALF_PI + 0.05, ms.HALF_PI - 0.05, 41))


def negative_zero_diagonal():
    X = fixture_space("ads_diamond_81.json")
    tau = X.tau.copy()
    np.fill_diagonal(tau, -0.0)
    return cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords)


def unrelated_pairs(value):
    """The diamond with value on every unrelated pair, which must still read null."""
    X = fixture_space("ads_diamond_81.json")
    tau = np.where(X.leq, X.tau, value)
    if np.isnan(value):  # FiniteCausalSpace refuses NaN, so go around it
        return types.SimpleNamespace(labels=X.labels, tau=tau, leq=X.leq, coords=X.coords)
    return cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fixture_space("ads_diamond_81.json"),
        fixture_suspension,
        jittered_circle_41,
        shuffled_model_sample,  # related values nearly all distinct
        diamond_without_coords,
        one_point,
        awkward_labels,
        negative_zero_diagonal,
        lambda: unrelated_pairs(np.nan),
        lambda: unrelated_pairs(np.inf),
    ],
    ids=["diamond", "suspension", "jittered_circle41", "shuffled_model", "no_coords",
         "one_point", "labels", "negative_zero", "unrelated_nan", "unrelated_inf"],
)
def test_render_space_matches_json_dumps(build):
    X = build()
    assert cli.render_space(X) == reference_space_bytes(X)


def test_render_space_rejects_non_finite_numbers():
    X = fixture_space("ads_diamond_81.json")
    tau = X.tau.copy()
    tau[0, 1] = np.nan  # FiniteCausalSpace refuses NaN, so go around it
    with pytest.raises(ValueError):
        cli.render_space(types.SimpleNamespace(labels=X.labels, tau=tau, leq=X.leq, coords=None))
    i, j = np.argwhere(X.leq & (X.tau > 0.0))[0]
    tau = X.tau.copy()
    tau[i, j] = np.inf
    with pytest.raises(ValueError):
        cli.render_space(cs.FiniteCausalSpace(X.labels, tau, X.leq, X.coords))
    coords = X.coords.copy()
    coords[3, 1] = np.nan
    with pytest.raises(ValueError):
        cli.render_space(cs.FiniteCausalSpace(X.labels, X.tau, X.leq, coords))


def test_space_writer_holds_one_row_at_a_time():
    # 972 points: the output is about 24 MB, and joined whole it raised
    # the traced peak by 47 MB; chunk by chunk the writer holds one row, a
    # block of the scan for distinct numbers and their encodings (2.3 MB)
    parsed = cli.parse_space_file((FIXTURES / "suspension_circle12.json").read_bytes())
    grid = np.linspace(parsed.t_grid[0], parsed.t_grid[-1], 81)
    X = wp.sample_warped_product(parsed.warping, parsed.base, tuple(grid))
    tracemalloc.start()
    try:
        sizes = [len(chunk) for chunk in cli._space_chunks(X)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) > 20 * 2**20
    assert max(sizes) < 2**20
    assert peak < 5 * 2**20


def test_suspend_to_stdout_matches_the_out_file(tmp_path, capsys):
    infile = FIXTURES / "suspension_circle12.json"
    out = tmp_path / "space.json"
    assert run_cli("suspend", infile, out) == 0
    capsys.readouterr()
    assert cli.main(["suspend", "--in", str(infile)]) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize(
    "knots, values, t_grid, elapsed",
    [
        pytest.param([0, 1, 2], [v, 2 * v, v], [0.5, 1.5], 1.0, id=f"{v}")
        for v in (1e-300, 1e-305, 1e-307, 1e-308, 3e-309, 1e-310)
    ] + [
        pytest.param([0, 1, 2, 3], [v, v, 1, 1], [0.5, 2.5], 2.0, id=f"rise-{v}")
        for v in (1e-310, 1e-300)
    ] + [pytest.param([0, 1, 2], [1e-160, 1e-160, 1], [0.5, 1.5], 1.0, id="rise-1e-160")],
)
def test_suspend_takes_a_table_whose_reach_overflows(
    tmp_path, capsys, knots, values, t_grid, elapsed
):
    # from 3e-309 down the reach, the integral of 1/f, is past the float
    # range; a piece rising from 1e-310 to 1 overflows u = (f1 - f0)/f0,
    # and from 1e-300 its reach so dwarfs every displacement that the
    # solver's start p underflows; from 1e-160 its square does, as do the
    # squares of the small values.  Each pair across the two levels is
    # timelike with tau the elapsed time
    doc = json.loads((FIXTURES / "suspension_circle12.json").read_text())
    doc["warping"] = {"kind": "table", "knots": knots, "values": values}
    doc["t_grid"] = t_grid
    infile, out = tmp_path / "tiny.json", tmp_path / "space.json"
    infile.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("suspend", infile, out) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == ""
    space = json.loads(out.read_text())
    assert all(v == elapsed for row in space["tau"][:12] for v in row[12:])


@pytest.mark.parametrize("command", ["suspend", "validate"])
def test_a_constant_warping_whose_separations_overflow_is_refused(tmp_path, capsys, command):
    # past an elapsed time of about 1.34e154 its square overflows, and
    # with it every timelike tau across the two levels
    doc = {
        "kind": "suspension_request",
        "warping": {"kind": "constant", "value": 1.0, "interval": [0.0, 3e154]},
        "base": {"labels": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]]},
        "t_grid": [0.5, 2e154],
    }
    infile, out = tmp_path / "long.json", tmp_path / "out.json"
    infile.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(command, infile, out) == 2
    assert not caught
    assert capsys.readouterr().err == (
        "error [llk.errors.ParameterError] time separations from t = 0.5 overflow: "
        "the squared elapsed time is beyond the float range\n"
    )
    # short of it, the separations are the elapsed time less a rounding
    doc["t_grid"] = [0.5, 1e154]
    infile.write_text(json.dumps(doc))
    assert run_cli(command, infile, out) == 0
    if command == "suspend":
        assert json.loads(out.read_text())["tau"][0][2:] == [1e154, 1e154]


def test_a_constant_warping_whose_reach_overflows_is_sampled_quietly(tmp_path, capsys):
    # the reach, elapsed time over 1e-300, is past the float range: it
    # reads +inf, every pair across the levels is timelike, and tau is
    # the elapsed time
    doc = {
        "kind": "suspension_request",
        "warping": {"kind": "constant", "value": 1e-300, "interval": [0.0, 3e10]},
        "base": {"labels": ["a", "b"], "dist": [[0.0, 1.0], [1.0, 0.0]]},
        "t_grid": [0.5, 2e10],
    }
    infile, out = tmp_path / "tiny.json", tmp_path / "space.json"
    infile.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("suspend", infile, out) == 0
    assert not caught
    assert capsys.readouterr().err == ""
    tau = json.loads(out.read_text())["tau"]
    assert [row[2:] for row in tau[:2]] == [[2e10 - 0.5] * 2] * 2


def chain_of_three(tau):
    """A finite_causal document: three points in a chain, each forward
    tau the given value."""
    return {
        "kind": "finite_causal",
        "labels": ["a", "b", "c"],
        "tau": [[tau if j > i else (0 if j == i else None) for j in range(3)] for i in range(3)],
        "leq": [[int(j >= i) for j in range(3)] for i in range(3)],
    }


@pytest.mark.parametrize("command", ["validate", "curvature", "subdivide"])
def test_tau_entries_beyond_half_the_float_range_are_refused(tmp_path, capsys, command):
    # above cli.MAX_TAU the reverse triangle sums and the doubled median
    # of the curvature tolerance overflow, and the report could not be written
    infile, out = tmp_path / "chain.json", tmp_path / "out.json"
    infile.write_text(json.dumps(chain_of_three(1e308)))
    assert run_cli(command, infile, out) == 2
    assert capsys.readouterr().err == (
        f"error [llk.errors.StructuralError] tau[0][1]: entry above {cli.MAX_TAU!r}, "
        "half the float range\n"
    )
    # at the bound every sum stays finite, and the reports are written
    infile.write_text(json.dumps(chain_of_three(cli.MAX_TAU)))
    assert run_cli(command, infile, out) == (1 if command == "validate" else 0)
    assert json.loads(out.read_text())["command"] == command


@pytest.mark.parametrize("command", ["validate", "suspend"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "absent" / "x.json"
    assert run_cli(command, FIXTURES / "suspension_circle12.json", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [cli.output] ")
    assert str(out) in err
    assert not out.parent.exists()


def test_a_write_failing_part_way_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "space.json"
    chunks = cli._space_chunks

    def full_disk(X):
        stream = chunks(X)
        yield next(stream)
        yield next(stream)
        assert out.exists()
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_space_chunks", full_disk)
    assert run_cli("suspend", FIXTURES / "suspension_circle12.json", out) == 2
    assert "error [cli.output] [Errno 28] No space left on device" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, digest, size",
    [
        ((), "4167eac79935e83b1ddf304450bab3f42568ed43de920fcf87524e6a5c5769e7", 1_636_482),
        (
            ("--grid", "41"),
            "204d505d714861c2fcf338e3d0ec968824fe14334cbb4632c6bfc9aba085cae0",
            6_176_746,
        ),
    ],
)
def test_suspend_output_is_pinned(tmp_path, extra, digest, size):
    out = tmp_path / "space.json"
    assert run_cli("suspend", FIXTURES / "suspension_circle12.json", out, *extra) == 0
    raw = out.read_bytes()
    assert len(raw) == size
    assert hashlib.sha256(raw).hexdigest() == digest


# ---------------------------------------------------------------- reports


def test_golden_reports_replay_byte_identical(tmp_path):
    for run, jobs in itertools.product(GOLDEN_RUNS, ("1", "8")):
        out = tmp_path / run["golden"]
        infile = FIXTURES / run["fixture"]
        code = run_cli(run["command"], infile, out, *run["extra"], "--jobs", jobs)
        assert code == run["exit"], (run, jobs)
        assert out.read_bytes() == (GOLDEN / run["golden"]).read_bytes(), (run, jobs)


def test_the_golden_runs_name_every_golden_and_its_verdict():
    named = sorted(run["golden"] for run in GOLDEN_RUNS)
    on_disk = sorted(p.name for p in GOLDEN.glob("*.json") if p.name != "runs.json")
    assert named == on_disk
    for run in GOLDEN_RUNS:
        verdict = json.loads((GOLDEN / run["golden"]).read_text())["verdict"]
        assert (verdict, run["exit"]) in ((True, 0), (False, 1)), run


@pytest.mark.parametrize("fixture, extra, points", [
    ("ads_diamond_81.json", (), 81),
    ("suspension_circle12.json", (), 252),
    ("suspension_circle12.json", ("--grid", "11"), 132),
])
def test_reports_count_the_points_checked(tmp_path, fixture, extra, points):
    # a suspension_request counts the space it materializes to
    out = tmp_path / "myers.json"
    run_cli("myers", FIXTURES / fixture, out, *extra)
    assert json.loads(out.read_text())["input"]["points"] == points


def test_reports_are_identical_across_worker_counts(tmp_path):
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"curvature_{jobs}.json"
        code = run_cli(
            "curvature",
            FIXTURES / "ads_diamond_81.json",
            out,
            "--samples",
            "50",
            "--jobs",
            jobs,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("fixture, code, across, future, unrealizable", [
    ("ads_diamond_81.json", 0, 3, 2, 0),
    ("flat_strip.json", 1, 2, 2, 1),
])
def test_subdivide_reports_its_triangles(tmp_path, fixture, code, across, future, unrealizable):
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"subdivide_{jobs}.json"
        assert run_cli("subdivide", FIXTURES / fixture, out,
                       "--samples", "5", "--seed", "0", "--jobs", jobs) == code
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["verdict"] is (code == 0)
    first, second = report["checks"]
    assert (first["name"], second["name"]) == ("subdivision_across", "subdivision_future")
    assert (first["triangles"], second["triangles"]) == (across, future)
    assert (first["unrealizable"], first["undrawn"]) == (unrealizable, 0)


@pytest.mark.parametrize("fixture, seed, code, pinned", [
    ("ads_diamond_81.json", 1, 2, "p = 48 and the middle vertex 22"),
    ("ads_diamond_81.json", 2, 2, "p = 40 and the middle vertex 48"),
    ("ads_diamond_81.json", 3, 2, "p = 12 and the middle vertex 20"),
    ("suspension_circle12.json", 1, 0, ((1, 0, 0), (4, 0, 0), 0)),
    ("suspension_circle12.json", 2, 2, "p = 121 and the middle vertex 95"),
    ("suspension_circle12.json", 3, 0, ((2, 0, 0), (3, 0, 0), 0)),
    ("flat_strip.json", 1, 2, "p = 100 and the middle vertex 73"),
    ("flat_strip.json", 2, 1, ((2, 4, 0), (2, 0, 0), 1)),
    ("flat_strip.json", 3, 0, ((2, 0, 1), (0, 0, 0), 3)),
])
def test_subdivide_samples_are_pinned(tmp_path, capsys, fixture, seed, code, pinned):
    # exit code and stderr, or (triangles, violations, skipped) of the
    # across and future checks and the unrealizable count
    out = tmp_path / "subdivide.json"
    extra = ("--samples", "5", "--seed", str(seed))
    assert run_cli("subdivide", FIXTURES / fixture, out, *extra) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == f"error [llk.errors.ParameterError] {pinned} are not timelike related\n"
        assert not out.exists()
        return
    assert err == ""
    checks = json.loads(out.read_text())["checks"]
    *counts, unrealizable = pinned
    assert [(c["triangles"], c["violation_count"], c["skipped"]) for c in checks] == counts
    assert checks[0]["unrealizable"] == unrealizable


def test_curvature_without_coords_matches_the_golden_checks(tmp_path):
    # the chains then follow the past-size order, not the time order
    doc = json.loads((FIXTURES / "ads_diamond_81.json").read_text())
    del doc["coords"]
    infile = tmp_path / "ads_no_coords.json"
    infile.write_bytes(doc_bytes(doc))
    out = tmp_path / "curvature.json"
    assert run_cli("curvature", infile, out, "--samples", "50", "--seed", "0") == 0
    golden = json.loads((GOLDEN / "ads_diamond_81.curvature.json").read_text())
    assert json.loads(out.read_text())["checks"] == golden["checks"]


def test_a_causal_cycle_is_a_usage_error(tmp_path, capsys):
    infile = tmp_path / "cycle.json"
    infile.write_bytes(doc_bytes({
        "kind": "finite_causal",
        "labels": ["a", "b"],
        "tau": [[0.0, 1.0], [0.0, 0.0]],
        "leq": [[1, 1], [1, 1]],
    }))
    out = tmp_path / "split.json"
    assert run_cli("split", infile, out) == 2
    assert not out.exists()
    assert "error [llk.errors.CausalityError] " in capsys.readouterr().err


def test_validate_fails_a_pair_related_both_ways(tmp_path):
    infile = tmp_path / "loop.json"
    infile.write_bytes(doc_bytes({
        "kind": "finite_causal",
        "labels": ["a", "b", "c", "d"],
        "tau": [[0, 0, 1, 2], [0, 0, 1, 2], [0, 0, 0, 1], [0, 0, 0, 0]],
        "leq": [[1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
    }))
    out = tmp_path / "validate.json"
    assert run_cli("validate", infile, out) == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] is False
    assert [v["note"] for v in doc["checks"][0]["violations"]] == ["leq is not antisymmetric"]


def test_split_reports_residual_and_passes(tmp_path):
    out = tmp_path / "split.json"
    assert run_cli("split", FIXTURES / "suspension_circle12.json", out) == 0
    doc = json.loads(out.read_text())
    check = doc["checks"][0]
    assert doc["verdict"] is True
    assert check["residual"] <= check["tol"]
    assert check["mismatches"] == 0
    assert len(check["slice"]["labels"]) == 12


def test_split_diagnostics_stay_out_of_the_report(tmp_path):
    X = fixture_suspension()
    diagnostics = rg.build_splitting(X, rg.find_line(X)).diagnostics
    assert sorted(diagnostics) == ["metric_slack", "slack", "worst_dev"]
    assert diagnostics["slack"] == 0.0
    # on the exact suspension every timelike pair reads its fibers'
    # distance up to rounding, so the repair slack is the line's, twice
    # its median step
    assert diagnostics["worst_dev"] < 1e-12
    line = rg.line_from_chain(X, rg.find_line(X))
    assert diagnostics["metric_slack"] == 2.0 * float(np.median(np.diff(line.params)))
    out = tmp_path / "split.json"
    assert run_cli("split", FIXTURES / "suspension_circle12.json", out) == 0
    assert "diagnostics" not in out.read_text()


def test_myers_flags_the_flat_strip(tmp_path):
    out = tmp_path / "myers.json"
    assert run_cli("myers", FIXTURES / "flat_strip.json", out) == 1
    doc = json.loads(out.read_text())
    check = doc["checks"][0]
    assert doc["verdict"] is False
    assert check["violations"]
    assert abs(check["max_deficit"] - (3.9 - math.pi)) < 1e-9


def test_split_reports_a_line_too_long_for_the_strip(tmp_path):
    out = tmp_path / "split.json"
    assert run_cli("split", FIXTURES / "flat_strip.json", out) == 1
    doc = json.loads(out.read_text())
    check = doc["checks"][0]
    assert doc["verdict"] is False
    assert check["verdict"] is False
    assert "size bound pi" in check["reason"]



def two_spacelike_points(tmp_path):
    path = tmp_path / "spacelike.json"
    path.write_bytes(doc_bytes(square_doc(2)))
    return path


def null_step_chain(tmp_path):
    """a << c with b on a null step from a: valid input whose longest
    chain a, b, c is no line sample."""
    path = tmp_path / "null_step.json"
    path.write_bytes(doc_bytes({
        "kind": "finite_causal",
        "labels": ["a", "b", "c"],
        "tau": [[0, 0, 2.5], [None, 0, 2.5], [None, None, 0]],
        "leq": [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        "coords": [[0.0], [0.5], [2.5]],
    }))
    return path


@pytest.mark.parametrize("make_input, reason", [
    pytest.param(lambda tmp_path: FIXTURES / "ads_diamond_81.json", "below min_value",
                 id="diamond"),
    pytest.param(two_spacelike_points, "no timelike related pair", id="spacelike"),
    pytest.param(null_step_chain, "chain contains a null step", id="null-step"),
])
def test_split_without_a_usable_line_fails_the_check(tmp_path, make_input, reason):
    infile = make_input(tmp_path)
    out = tmp_path / "split.json"
    assert run_cli("split", infile, out) == 1
    check = json.loads(out.read_text())["checks"][0]
    assert check["verdict"] is False
    assert reason in check["reason"]

def uniform_time_product(seed, per_fiber=41):
    """Exact cos warped product over the fixture's circle net, each fiber
    sampled at its own independent uniform times."""
    base = cli.parse_space_file((FIXTURES / "suspension_circle12.json").read_bytes()).base
    m = base.size
    rng = np.random.default_rng(seed)
    fiber = np.repeat(np.arange(m), per_fiber)
    t = rng.uniform(-ms.HALF_PI + 0.05, ms.HALF_PI - 0.05, m * per_fiber)
    leq, _, tau = ms.ads_separation(
        t[:, None], t, base.dist[np.ix_(fiber, fiber)], t[:, None] <= t[None, :]
    )
    labels = [f"{base.labels[b]}.{k:02d}" for b in range(m) for k in range(per_fiber)]
    return cs.FiniteCausalSpace(labels, tau, leq, t[:, None])


def test_split_without_converging_asymptotes_fails_the_check(tmp_path):
    # a valid space off a grid whose longest chain has two points: the
    # times fitted against it are off by up to 0.04, so the fibers break
    # into pieces, some of which share no timelike pair
    infile = tmp_path / "uniform.json"
    infile.write_bytes(cli.render_space(uniform_time_product(0)))
    assert run_cli("validate", infile, tmp_path / "validate.json") == 0
    out = tmp_path / "split.json"
    assert run_cli("split", infile, out) == 1
    doc = json.loads(out.read_text())
    assert doc["verdict"] is False
    check = doc["checks"][0]
    assert check["verdict"] is False
    assert check["reason"] == "the lines share no timelike related parameter pairs"


def test_split_audits_every_point_of_the_line_domain(tmp_path):
    # an exact cos product off any grid, whose line is one whole fiber:
    # the fibers come out whole, and all 443 points of the line's domain
    # are audited
    X = uniform_time_product(5)
    infile = tmp_path / "uniform.json"
    infile.write_bytes(cli.render_space(X))
    assert run_cli("validate", infile, tmp_path / "validate.json") == 0
    out = tmp_path / "split.json"
    assert run_cli("split", infile, out) == 0
    check = json.loads(out.read_text())["checks"][0]
    assert check["verdict"] is True
    assert len(check["slice"]["labels"]) == 12
    assert check["samples"] == 443
    assert check["mismatches"] == 0
    assert check["residual"] <= check["tol"]


def test_split_refuses_a_map_that_is_not_one_to_one(tmp_path):
    # an exact twin of c03@10: the same tau and leq to every other point,
    # and unrelated to c03@10, so both would sit at one sample
    X = fixture_suspension()
    k, n = X.labels.index("c03@10"), X.size
    rows = list(range(n)) + [k]
    tau = X.tau[np.ix_(rows, rows)]
    leq = X.leq[np.ix_(rows, rows)]
    leq[k, n] = leq[n, k] = False
    twin = cs.FiniteCausalSpace(X.labels + ("c03@10+",), tau, leq, X.coords[rows])
    infile = tmp_path / "twin.json"
    infile.write_bytes(cli.render_space(twin))
    assert run_cli("validate", infile, tmp_path / "validate.json") == 0
    out = tmp_path / "split.json"
    assert run_cli("split", infile, out) == 1
    check = json.loads(out.read_text())["checks"][0]
    assert check["verdict"] is False
    assert "'c03@10'" in check["reason"] and "'c03@10+'" in check["reason"]


def coarse_table_request(tmp_path):
    """The fixture's suspension request with its warping swapped for a
    33-knot cos table."""
    doc = json.loads((FIXTURES / "suspension_circle12.json").read_text())
    knots = np.linspace(-ms.HALF_PI + 1e-9, ms.HALF_PI - 1e-9, 33)
    doc["warping"] = {"kind": "table", "knots": knots.tolist(), "values": np.cos(knots).tolist()}
    path = tmp_path / "coarse.json"
    path.write_bytes(doc_bytes(doc))
    return path


def test_split_on_two_levels_fails_the_check(tmp_path):
    out = tmp_path / "split.json"
    assert run_cli("split", FIXTURES / "suspension_circle12.json", out, "--grid", "2") == 1
    check = json.loads(out.read_text())["checks"][0]
    assert check["verdict"] is False
    assert check["reason"] == "no point lies in the line's timelike domain"


@pytest.mark.parametrize("fixture", ["flat_strip.json", "ads_diamond_81.json", "suspension_circle12.json"])
def test_chain_audits_run_at_zero_tol_disc(tmp_path, capsys, fixture):
    # chains along tied realizers drift ulps below tau; at eps 0 they
    # still count as maximizing, so curvature reports instead of stopping
    out = tmp_path / "curvature.json"
    assert run_cli("curvature", FIXTURES / fixture, out, "--tol-disc", "0") in (0, 1)
    assert json.loads(out.read_text())["checks"]
    # subdivide may still draw an inadmissible point, but no chain is stale
    run_cli("subdivide", FIXTURES / fixture, tmp_path / "subdivide.json", "--tol-disc", "0")
    assert "ChainError" not in capsys.readouterr().err


def test_split_fails_the_check_when_the_slice_cannot_be_metrized(tmp_path):
    # b and c sit 6.8 apart, so their fibers share no timelike pair
    doc = json.loads((FIXTURES / "suspension_circle12.json").read_text())
    doc["base"] = {
        "labels": ["a", "b", "c"],
        "dist": [[0.0, 3.4, 3.4], [3.4, 0.0, 6.8], [3.4, 6.8, 0.0]],
    }
    infile = tmp_path / "apart.json"
    infile.write_bytes(doc_bytes(doc))
    assert run_cli("validate", infile, tmp_path / "validate.json") == 0
    out = tmp_path / "split.json"
    assert run_cli("split", infile, out) == 1
    check = json.loads(out.read_text())["checks"][0]
    assert check["verdict"] is False
    assert check["reason"] == "the lines share no timelike related parameter pairs"


def test_split_metrizes_the_coarse_table_at_seven_levels(tmp_path):
    # every fiber pair of the 33-knot table shares a timelike pair once
    # the fibers hold all their points
    infile = coarse_table_request(tmp_path)
    out = tmp_path / "split.json"
    assert run_cli("split", infile, out, "--grid", "7") == 0
    check = json.loads(out.read_text())["checks"][0]
    assert len(check["slice"]["labels"]) == 12
    assert check["residual"] < 1e-5


def test_grid_flag_refines_the_time_grid(tmp_path):
    out = tmp_path / "split11.json"
    assert (
        run_cli("split", FIXTURES / "suspension_circle12.json", out, "--grid", "11")
        == 0
    )
    doc = json.loads(out.read_text())
    assert len(doc["checks"][0]["line"]["labels"]) == 11


def test_suspend_then_validate_passes(tmp_path):
    materialized = tmp_path / "materialized.json"
    assert run_cli("suspend", FIXTURES / "suspension_circle12.json", materialized) == 0
    doc = json.loads(materialized.read_text())
    assert doc["kind"] == "finite_causal"
    assert len(doc["labels"]) == 12 * 21
    out = tmp_path / "validate.json"
    assert run_cli("validate", materialized, out) == 0


def test_suspend_rejects_sampled_spaces(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run_cli("suspend", FIXTURES / "ads_diamond_81.json", out) == 2
    assert "suspension_request" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("curvature", ("--samples", "-5")),
        ("curvature", ("--samples", "0")),
        ("subdivide", ("--samples", "0")),
        ("curvature", ("--jobs", "0")),
        ("validate", ("--jobs", "-1")),
    ],
)
def test_nonpositive_samples_or_jobs_are_usage_errors(tmp_path, capsys, command, flags):
    out = tmp_path / "x.json"
    assert run_cli(command, FIXTURES / "ads_diamond_81.json", out, *flags) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "llk.errors.ParameterError" in err
    assert f"{flags[0]} must be at least 1" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("validate", "--tol-exact", "nan"),
        ("validate", "--tol-exact", "-0.5"),
        ("curvature", "--tol-disc", "inf"),
        ("curvature", "--tol-disc", "-1"),
        ("split", "--tol-disc", "nan"),
    ],
)
def test_nonfinite_or_negative_tolerances_are_usage_errors(
    tmp_path, capsys, command, flag, value
):
    out = tmp_path / "x.json"
    assert run_cli(command, FIXTURES / "ads_diamond_81.json", out, flag, value) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error [llk.errors.ParameterError] {flag} must be a finite number >= 0" in err


@pytest.mark.parametrize(
    "command, grid", [("validate", "1"), ("split", "41"), ("curvature", "21")]
)
def test_grid_on_a_sampled_space_is_a_usage_error(tmp_path, capsys, command, grid):
    out = tmp_path / "x.json"
    assert run_cli(command, FIXTURES / "ads_diamond_81.json", out, "--grid", grid) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "llk.errors.ParameterError" in err
    assert "--grid applies to a suspension_request input" in err


def _refuse_sampling(*args):
    raise AssertionError("the space was sampled")


@pytest.mark.parametrize("command", ["suspend", "validate"])
def test_too_many_points_are_a_usage_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(wp, "sample_warped_product", _refuse_sampling)
    out = tmp_path / "x.json"
    infile = FIXTURES / "suspension_circle12.json"
    assert run_cli(command, infile, out, "--grid", "100000") == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error [llk.errors.ParameterError] 12 base points at 100000 times" in err


def test_point_bound_counts_base_points_times_levels(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(wp, "sample_warped_product", lambda f, S, t_grid: len(t_grid))
    parsed = cli.parse_space_file((FIXTURES / "suspension_circle12.json").read_bytes())
    most = cli.MAX_SPACE_POINTS // parsed.base.size
    assert cli._materialize(parsed, types.SimpleNamespace(grid=most)) == most
    with pytest.raises(ParameterError, match=f"more than {cli.MAX_SPACE_POINTS} points"):
        cli._materialize(parsed, types.SimpleNamespace(grid=most + 1))
    # a request's own time grid is bounded too
    doc = json.loads((FIXTURES / "suspension_circle12.json").read_text())
    doc["t_grid"] = np.linspace(-1.5, 1.5, most + 1).tolist()
    monkeypatch.setattr(wp, "sample_warped_product", _refuse_sampling)
    infile = tmp_path / "long.json"
    infile.write_bytes(doc_bytes(doc))
    assert run_cli("suspend", infile, tmp_path / "x.json") == 2
    assert "llk.errors.ParameterError" in capsys.readouterr().err


def test_missing_input_is_a_usage_error(tmp_path, capsys):
    assert run_cli("validate", tmp_path / "absent.json", tmp_path / "x.json") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["geodesics"], ["validate", "--step", "0.05"]],
    ids=["geodesics-command", "step-option"],
)
def test_removed_command_and_option_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    infile = FIXTURES / "ads_diamond_81.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--in", str(infile), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "usage: llk" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1" + "0" * 400, "tau[0][0]: integer beyond the float range"),
        (
            "1" + "0" * 4400,
            "<input>: unreadable number: Exceeds the limit (4300 digits) "
            "for integer string conversion",
        ),
    ],
    ids=["beyond-float", "beyond-int-digits"],
)
def test_oversized_integers_are_usage_errors(tmp_path, capsys, entry, message):
    infile = tmp_path / "one.json"
    infile.write_text(
        '{"kind": "finite_causal", "labels": ["a"], "leq": [[1]], "tau": [[%s]]}' % entry
    )
    out = tmp_path / "x.json"
    assert run_cli("validate", infile, out) == 2
    assert not out.exists()
    assert f"error [llk.errors.StructuralError] {message}" in capsys.readouterr().err


def space_with(**fields):
    """A two-point finite_causal document with some fields replaced."""
    return doc_bytes({**square_doc(2), **fields})


def request_with(**fields):
    """The fixture's suspension request with some fields replaced."""
    doc = json.loads((FIXTURES / "suspension_circle12.json").read_text())
    return doc_bytes({**doc, **fields})


PARSER_REFUSALS = [
    (
        "validate",
        b"\xff",
        "<input>: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte",
    ),
    (
        "validate",
        b"{",
        "<input>: not JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    ("validate", b"[]", "<input>: expected a JSON object"),
    ("validate", space_with(labels=[]), "labels: expected a nonempty list of labels"),
    ("validate", space_with(labels=["a", 1]), "labels[1]: expected a string, got 1"),
    ("validate", space_with(tau=[[0, 0]]), "tau: expected 2 rows"),
    ("validate", space_with(coords=[[0.0]]), "coords: expected 2 rows"),
    (
        "validate",
        space_with(coords=[[], [0.0]]),
        "coords[0]: expected a nonempty row of numbers",
    ),
    ("validate", space_with(coords=[[0.0], [0.0, 1.0]]), "coords[1]: expected 1 entries, got 2"),
    ("suspend", request_with(warping=1), "warping: expected an object"),
    ("suspend", request_with(warping={"kind": "sin"}), "warping.kind: unknown warping kind 'sin'"),
    # each warping error names its path once
    (
        "suspend",
        request_with(warping={"kind": "constant", "value": 1.0, "interval": [0.0]}),
        "warping.interval: expected [a, b]",
    ),
    (
        "suspend",
        request_with(warping={"kind": "table", "knots": [0.0, 1.0]}),
        "warping: table warping needs knots and values lists",
    ),
    (
        "suspend",
        request_with(warping={"kind": "table", "knots": [], "values": []}),
        "warping: table needs equally many knots and values, at least two",
    ),
    (
        "suspend",
        request_with(warping={"kind": "table", "knots": [0], "values": [1]}),
        "warping: table needs equally many knots and values, at least two",
    ),
    ("suspend", request_with(base=[]), "base: expected an object with labels and dist"),
    (
        "suspend",
        request_with(
            base={"labels": ["a", "b", "c"], "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
        ),
        "base: triangle inequality fails: d(0,2) > d(0,1) + d(1,2)",
    ),
    (
        # d(a, b) exceeds d(a, c) + d(c, b) by 50 METRIC_TOL
        "suspend",
        request_with(
            base={"labels": ["a", "b", "c"],
                  "dist": [[0, 2 + 5e-8, 1], [2 + 5e-8, 0, 1], [1, 1, 0]]}
        ),
        "base: triangle inequality fails: d(0,1) > d(0,2) + d(2,1)",
    ),
    ("suspend", request_with(t_grid=[]), "t_grid: expected a nonempty list of times"),
]


@pytest.mark.parametrize(
    "command, raw, message", PARSER_REFUSALS, ids=[case[2] for case in PARSER_REFUSALS]
)
def test_parser_refusals_are_usage_errors(tmp_path, capsys, command, raw, message):
    infile, out = tmp_path / "in.json", tmp_path / "out"
    infile.write_bytes(raw)
    assert run_cli(command, infile, out) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error [llk.errors.StructuralError] {message}\n"


def test_base_within_metric_tol_of_the_triangle_inequality_is_accepted(tmp_path):
    # d(a, b) exceeds d(a, c) + d(c, b) by half of METRIC_TOL
    infile, out = tmp_path / "in.json", tmp_path / "out"
    infile.write_bytes(request_with(
        base={"labels": ["a", "b", "c"],
              "dist": [[0, 2 + 5e-10, 1], [2 + 5e-10, 0, 1], [1, 1, 0]]}
    ))
    assert run_cli("suspend", infile, out) == 0
    assert json.loads(out.read_bytes())["kind"] == "finite_causal"

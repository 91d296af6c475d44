"""Tests for the batch front door: parsing, dispatch, reports, tables.

Fixture files under fixtures/ are the integration oracle: each parses,
runs its representative command, and must reproduce its committed golden
report byte for byte, independently of the worker count.  Small inline
documents exercise the diagnostic paths.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from llk import cli
from llk import model_space as ms
from llk.errors import ParameterError, StructuralError

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"

GOLDEN_RUNS = (
    ("ads_diamond_81.validate.json", "validate", "ads_diamond_81.json", (), 0),
    (
        "ads_diamond_81.curvature.json",
        "curvature",
        "ads_diamond_81.json",
        ("--samples", "50", "--seed", "0"),
        0,
    ),
    ("suspension_circle12.split.json", "split", "suspension_circle12.json", (), 0),
    ("flat_strip.myers.json", "myers", "flat_strip.json", (), 1),
)


def run_cli(command, infile, out, *extra):
    return cli.main([command, "--in", str(infile), "--out", str(out), *extra])


def doc_bytes(doc):
    return (json.dumps(doc) + "\n").encode()


# ---------------------------------------------------------------- parsing


def test_round_trip_preserves_space_files():
    raw = (FIXTURES / "ads_diamond_81.json").read_bytes()
    first = cli.parse_space_file(raw)
    again = cli.parse_space_file(cli._render_json(cli.space_payload(first.space)))
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


# ---------------------------------------------------------------- reports


def test_golden_reports_replay_byte_identical(tmp_path):
    for golden, command, fixture, extra, expected in GOLDEN_RUNS:
        out = tmp_path / golden
        code = run_cli(command, FIXTURES / fixture, out, *extra)
        assert code == expected, (command, fixture)
        assert out.read_bytes() == (GOLDEN / golden).read_bytes(), golden


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


def test_split_reports_residual_and_passes(tmp_path):
    out = tmp_path / "split.json"
    assert run_cli("split", FIXTURES / "suspension_circle12.json", out) == 0
    doc = json.loads(out.read_text())
    check = doc["checks"][0]
    assert doc["verdict"] is True
    assert check["residual"] <= check["tol"]
    assert check["mismatches"] == 0
    assert len(check["slice"]["labels"]) == 12


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


def test_grid_flag_refines_the_time_grid(tmp_path):
    out = tmp_path / "split11.json"
    assert (
        run_cli("split", FIXTURES / "suspension_circle12.json", out, "--grid", "11")
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["line"]["size"] == 11


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


def test_missing_input_is_a_usage_error(tmp_path, capsys):
    assert run_cli("validate", tmp_path / "absent.json", tmp_path / "x.json") == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- geodesics


def test_geodesic_table_groups_curves_in_order(tmp_path):
    request = tmp_path / "curves.json"
    request.write_bytes(
        doc_bytes({"curves": [{"omega": 0.0, "c": 0.0}, {"omega": 1.0, "c": 2.0}]})
    )
    out = tmp_path / "geo.csv"
    assert run_cli("geodesics", request, out, "--step", "0.1") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "curve_id,lambda,t,x"
    ids = [row.split(",")[0] for row in lines[1:]]
    assert ids == sorted(ids)
    assert set(ids) == {"0", "1"}
    for row in lines[1:]:
        cid, _, _, x = row.split(",")
        if cid == "0":
            assert float(x) == 0.0


def test_geodesic_rows_climb_toward_the_strip_edge():
    table = cli.emit_geodesic_table([ms.GeodesicParams(1.3169578969248166, 0.0)], 0.02)
    rows = table.decode().splitlines()[1:]
    t_vals = [float(r.split(",")[2]) for r in rows]
    x_vals = [float(r.split(",")[3]) for r in rows]
    assert t_vals[-1] > 1.4
    assert x_vals[-1] > x_vals[len(x_vals) // 2]


def test_geodesic_step_must_be_positive():
    with pytest.raises(ParameterError):
        cli.emit_geodesic_table([ms.GeodesicParams(0.0, 0.0)], 0.0)

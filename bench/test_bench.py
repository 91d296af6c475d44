"""Self-tests of the benchmark: its correctness gate and what it prints.

Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

import json
import pathlib
import shutil
import sys
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from llk import cli  # noqa: E402

SHORT_RUN = ["--workload", "triangle-sampling", "--seed", "0", "--seconds", "1"]


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda root: [0.5])


def _printed_result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _assert_run_fails(capsys):
    assert run.main([*SHORT_RUN, "--trace", "0"]) != 0
    out = capsys.readouterr().out
    assert '"metrics"' not in out


def _tampered_fixtures(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(ROOT / "fixtures", fixtures)
    golden = fixtures / "golden" / "ads_diamond_81.validate.json"
    data = bytearray(golden.read_bytes())
    data[len(data) // 2] ^= 0x01
    golden.write_bytes(bytes(data))
    return fixtures


def test_goldens_replay_at_one_and_two_workers(tmp_path):
    assert workloads.replay_goldens(cli, ROOT / "fixtures", tmp_path, [1, 2]) == 8


def test_golden_with_one_changed_byte_fails_the_run(tmp_path, monkeypatch, capsys, quick_setup):
    fixtures = _tampered_fixtures(tmp_path)
    with pytest.raises(workloads.GateFailure, match="golden"):
        workloads.replay_goldens(cli, fixtures, tmp_path, [1])

    replay = workloads.replay_goldens
    monkeypatch.setattr(
        workloads, "replay_goldens",
        lambda cli_, _fixtures, out_dir, jobs: replay(cli_, fixtures, out_dir, jobs),
    )
    _assert_run_fails(capsys)


def _flat_curvature(tmp_path, exits):
    path = tmp_path / "flat.json"
    inputs.write_json(path, inputs.flat_strip_request(inputs.circle_net(0)))
    argv = ("curvature", "--in", str(path), "--grid", "21", "--samples", "20")
    return workloads.Request("curvature.flat21", "curvature_s", argv, frozenset(exits))


def test_wrong_exit_code_fails_the_run(tmp_path, monkeypatch, capsys, quick_setup):
    # the flat strip fails the curvature check: it must exit 1, not 0
    with pytest.raises(workloads.GateFailure, match="exit 1"):
        workloads.send(cli, _flat_curvature(tmp_path, {0}), tmp_path / "out.json")
    assert workloads.send(cli, _flat_curvature(tmp_path, {1}), tmp_path / "out.json").code == 1

    monkeypatch.setattr(
        workloads, "build", lambda *args: [_flat_curvature(tmp_path, {0})]
    )
    _assert_run_fails(capsys)


def test_result_line_rejects_unprintable_names():
    with pytest.raises(ValueError):
        run.result_line(1, 0, {"pass s": {"value": 1.0, "unit": "s"}})


def test_declared_metrics_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_are_well_formed(trace, capsys, quick_setup):
    assert run.main([*SHORT_RUN, "--trace", str(trace)]) == 0
    result = _printed_result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert run.METRIC_NAME.fullmatch(name), name
        assert metric["unit"] == expected[name]


def test_inputs_repeat_for_a_seed_and_change_with_it():
    assert inputs.circle_net(3) == inputs.circle_net(3)
    assert inputs.circle_net(3) != inputs.circle_net(4)


FAKE_INNER = """
import time

def work():
    time.sleep(0.02)
"""

FAKE_CLI = """
import threading
import time

def main(inner, threads):
    time.sleep(0.01)
    if not threads:
        inner.work()
        inner.work()
        return
    workers = [threading.Thread(target=inner.work) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(5)
"""


def _fake_layers():
    layers = []
    for name, code in (("cli", FAKE_CLI), ("inner", FAKE_INNER)):
        module = types.ModuleType(f"fake_{name}")
        exec(code, module.__dict__)
        layers.append((name, module))
    return layers


@pytest.mark.parametrize("threads", [False, True])
def test_tracer_splits_self_time_by_layer_and_restores(threads):
    layers = _fake_layers()
    (_, fake_cli), (_, fake_inner) = layers
    original = fake_inner.work
    t = tracer.Tracer()
    t.install(layers)
    try:
        fake_cli.main(fake_inner, threads)
    finally:
        t.remove()
    assert fake_inner.work is original
    assert t.calls["inner.work"] == 2
    assert t.layer_self["inner"] >= 0.04
    assert t.layer_self["cli"] >= 0.01
    if not threads:
        # sequential children: self times add up to the root span
        total = t.layer_self["cli"] + t.layer_self["inner"]
        assert t.inclusive["cli.main"] == pytest.approx(total)
    else:
        # parallel children cover the root once, not twice
        assert t.inclusive["cli.main"] < t.layer_self["cli"] + t.layer_self["inner"]

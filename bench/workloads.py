"""Workloads, the requests they send, and the checks on every answer.

A workload is a fixed list of requests to the public front door
``llk.cli.main``.  A pass sends each request once, in order, one at a
time: a closed loop with a single client.  Every request names the exit
codes it may return and, where its content is known, a check on its
output.  Every pass must reproduce the first pass's outputs byte for
byte, so checking the first pass's outputs checks them all; that check
runs after the timed passes, so that parsing large outputs does not
raise the peak memory the benchmark reports.
"""

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass
from typing import Callable

import inputs

NAMES = ("dense-cos", "table-warp", "triangle-sampling")

# The four committed golden reports, with the command and options that
# produced them and the exit code that goes with them.
GOLDEN_RUNS = (
    ("ads_diamond_81.validate.json", "validate", "ads_diamond_81.json", (), 0),
    (
        "ads_diamond_81.curvature.json", "curvature", "ads_diamond_81.json",
        ("--samples", "50", "--seed", "0"), 0,
    ),
    ("suspension_circle12.split.json", "split", "suspension_circle12.json", (), 0),
    ("flat_strip.myers.json", "myers", "flat_strip.json", (), 1),
)

ERROR_LINE = re.compile(r"^error \[llk\.errors\.(\w+)\]", re.MULTILINE)

TABLE_TAU_TOL = 1e-5

# Time levels of the table-warp requests.  Every seeded net has 13 distinct
# distances, and the solver runs once per (time pair, distance): at 11
# levels one pass takes about 25 s on a 2-core Xeon, at 7 about 13 s,
# which leaves room for two passes in a run.
TABLE_GRID = 7

# Nets per triangle-sampling pass.  How long a sampled run takes depends
# on the triangles its seed draws and on the sample at which subdivide
# aborts, so one pass covers several nets and sampling seeds.
TRIANGLE_NETS = 3


class GateFailure(Exception):
    """An answer the benchmark does not accept; the run reports no numbers."""


@dataclass(frozen=True)
class Request:
    """One call of ``llk.cli.main``; ``--out`` is added when it is sent."""

    name: str
    metric: str
    argv: tuple
    exits: frozenset
    check: Callable = None  # check(output bytes, outputs of the pass by name)
    parallel: bool = False


@dataclass
class Answer:
    request: Request
    wall: float
    cpu: float
    code: int
    error: str  # llk.errors class name when the request exited 2
    output: bytes  # dropped once compared with the first pass
    size: int


def send(cli, request: Request, out_path) -> Answer:
    """Send one request and time it; the output is read back untimed."""
    if out_path.exists():
        out_path.unlink()
    argv = [*request.argv, "--out", str(out_path)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        cpu = time.process_time()
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
    stderr = err.getvalue()
    error = None
    if code not in request.exits:
        raise GateFailure(
            f"{request.name}: exit {code}, expected one of {sorted(request.exits)}"
            + (f" ({stderr.strip()})" if stderr else "")
        )
    if code == 2:
        match = ERROR_LINE.search(stderr)
        if match is None:
            raise GateFailure(f"{request.name}: exit 2 without an llk.errors line: {stderr!r}")
        error = match.group(1)
        output = b""
    else:
        output = out_path.read_bytes()
    return Answer(request, wall, cpu, code, error, output, len(output))


def check_repeat(answer: Answer, first: dict) -> None:
    """Keep the first output of each request; later ones must equal it."""
    name = answer.request.name
    if first.setdefault(name, answer.output) != answer.output:
        raise GateFailure(f"{name}: output differs from the first pass")
    answer.output = None


def check_outputs(requests, first: dict) -> None:
    """Run each request's check on its output, given all outputs of the pass."""
    for request in requests:
        if request.check is not None:
            request.check(first[request.name], first)


def replay_goldens(cli, fixtures, out_dir, jobs_values) -> int:
    """Replay every golden report at each worker count; compare bytes."""
    replayed = 0
    for golden, command, fixture, extra, code in GOLDEN_RUNS:
        expected = (fixtures / "golden" / golden).read_bytes()
        for jobs in jobs_values:
            request = Request(
                f"golden {golden} --jobs {jobs}", "golden",
                (command, "--in", str(fixtures / fixture), *extra, "--jobs", str(jobs)),
                frozenset({code}),
            )
            answer = send(cli, request, out_dir / "golden.json")
            if answer.output != expected:
                raise GateFailure(f"{request.name}: report differs from the golden file")
            replayed += 1
    return replayed


# ---------------------------------------------------------------- checks


def _report(output: bytes, name: str) -> dict:
    doc = json.loads(output)
    if not isinstance(doc, dict) or "checks" not in doc:
        raise GateFailure(f"{name}: not a report")
    return doc


def _space(output: bytes, name: str, points: int) -> dict:
    doc = json.loads(output)
    if doc.get("kind") != "finite_causal" or len(doc.get("labels", ())) != points:
        raise GateFailure(f"{name}: not a finite_causal space of {points} points")
    return doc


def _expect_space(points):
    def check(output, outputs):
        _space(output, "suspend", points)

    return check


def _expect_verdict(verdict: bool):
    def check(output, outputs):
        if _report(output, "report")["verdict"] is not verdict:
            raise GateFailure(f"report verdict is not {verdict}")

    return check


def _expect_split(slice_points: int):
    def check(output, outputs):
        doc = _report(output, "split")
        labels = doc["checks"][0]["slice"]["labels"]
        if doc["verdict"] is not True or len(labels) != slice_points:
            raise GateFailure(
                f"split: verdict {doc['verdict']} with a {len(labels)}-point slice, "
                f"expected true with {slice_points}"
            )

    return check


def _expect_same_as(other: str):
    def check(output, outputs):
        if output != outputs[other]:
            raise GateFailure(f"output differs from {other}")

    return check


def _expect_table_matches(reference: bytes):
    """The fine cos table must reproduce the cos closed form."""
    ref = json.loads(reference)

    def check(output, outputs):
        got = _space(output, "table suspend", len(ref["labels"]))
        if got["leq"] != ref["leq"]:
            raise GateFailure("fine table: causal relation differs from the cos closed form")
        worst = 0.0
        for row_got, row_ref in zip(got["tau"], ref["tau"]):
            for a, b in zip(row_got, row_ref):
                if (a is None) != (b is None):
                    raise GateFailure("fine table: related pairs differ from the cos closed form")
                if a is not None:
                    worst = max(worst, abs(a - b))
        if not worst <= TABLE_TAU_TOL:
            raise GateFailure(
                f"fine table: tau differs from the cos closed form by {worst!r}"
            )

    return check


# ---------------------------------------------------------------- workloads


def _write(tmp, name, doc):
    path = tmp / name
    inputs.write_json(path, doc)
    return str(path)


def _triangle_requests(tmp, fixtures, seed: int, nproc: int) -> list:
    base = inputs.circle_net(seed)
    cos = _write(tmp, f"cos-{seed}.json", inputs.cos_request(base))
    flat = _write(tmp, f"flat-{seed}.json", inputs.flat_strip_request(base))
    spaces = (
        ("ads81", str(fixtures / "ads_diamond_81.json"), (), 0),
        ("cos41", cos, ("--grid", "41"), 0),
        ("flat41", flat, ("--grid", "41"), 1),
    )
    sampling = ("--samples", "100", "--seed", str(seed))
    requests = []
    for label, path, grid, code in spaces:
        args = ("--in", path, *grid, *sampling)
        serial = f"curvature.{label}.{seed}.serial"
        requests += [
            Request(serial, "curvature_s", ("curvature", *args, "--jobs", "1"),
                    frozenset({code})),
            Request(f"curvature.{label}.{seed}.parallel", "curvature_par_s",
                    ("curvature", *args, "--jobs", str(nproc)), frozenset({code}),
                    _expect_same_as(serial), parallel=True),
            # subdivide aborts with exit 2 on sampled configurations it
            # cannot subdivide; that is counted as a failure, not hidden.
            Request(f"subdivide.{label}.{seed}", "subdivide_s", ("subdivide", *args),
                    frozenset({0, 1, 2})),
        ]
    return requests


def build(cli, name: str, seed: int, tmp, fixtures, nproc: int) -> list:
    """Write the workload's seeded input files and return its requests."""
    base = inputs.circle_net(seed)
    ok = frozenset({0})
    if name == "dense-cos":
        cos = _write(tmp, "cos.json", inputs.cos_request(base))
        grid = ("--grid", "81")
        return [
            Request("suspend.cos81", "suspend_s", ("suspend", "--in", cos, *grid), ok,
                    _expect_space(972)),
            Request("validate.cos81", "validate_s", ("validate", "--in", cos, *grid), ok,
                    _expect_verdict(True)),
            Request("split.cos81", "split_s", ("split", "--in", cos, *grid), ok,
                    _expect_split(inputs.NET_POINTS)),
        ]
    if name == "table-warp":
        grid = ("--grid", str(TABLE_GRID))
        cos = _write(tmp, "cos.json", inputs.cos_request(base))
        coarse = _write(tmp, "coarse.json", inputs.cos_table_request(base, 33))
        fine = _write(tmp, "fine.json", inputs.cos_table_request(base, 2049))
        flat = _write(tmp, "flat.json", inputs.flat_table_request(base, 9))
        closed_form = Request("reference.cos", "reference", ("suspend", "--in", cos, *grid), ok)
        reference = send(cli, closed_form, tmp / "reference.json").output
        points = inputs.NET_POINTS * TABLE_GRID
        return [
            Request("suspend.coarse", "suspend_s", ("suspend", "--in", coarse, *grid), ok,
                    _expect_space(points)),
            Request("suspend.fine", "suspend_s", ("suspend", "--in", fine, *grid), ok,
                    _expect_table_matches(reference)),
            Request("suspend.flat", "suspend_s", ("suspend", "--in", flat, *grid), ok,
                    _expect_space(points)),
            Request("split.fine", "split_s", ("split", "--in", fine, *grid), ok,
                    _expect_split(inputs.NET_POINTS)),
        ]
    if name == "triangle-sampling":
        requests = []
        for k in range(TRIANGLE_NETS):
            requests += _triangle_requests(tmp, fixtures, seed * TRIANGLE_NETS + k, nproc)
        return requests
    raise ValueError(f"unknown workload {name!r}")


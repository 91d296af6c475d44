"""Benchmark of the llk command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload dense-cos --seed 0 --seconds 20 --trace 0

Each invocation is one fresh interpreter running one workload.  It

1. caps the BLAS/OpenMP thread variables at the number of usable cores
   and records the machine;
2. times ``import llk.cli`` in several fresh interpreters (``setup_s``);
3. replays the golden reports under ``fixtures/golden/`` at one worker
   and at one worker per core and compares them byte for byte;
4. writes the workload's seeded inputs into a temporary directory and
   sends its requests through ``llk.cli.main`` in passes, one request at
   a time, until ``--seconds`` have passed, checking every answer.

Any rejected answer stops the run with exit code 1 and no numbers.
With ``--trace 0`` the passes run untraced and the last line carries the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate: the traced ones give the per-layer metrics (see tracer.py),
and the two kinds together give the tracing overhead.  The lines before
the last one hold the full report: environment, per-command times with
sample counts, failures by ``llk.errors`` class.
"""

import argparse
import json
import math
import os
import pathlib
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from statistics import median

import tracer
import workloads

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_RUNS = 7
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import llk.cli; "
    "print(time.perf_counter() - t)"
)

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Reported per command, next to the end-to-end metrics, on the workloads
# that send the command.
COMMAND_METRICS = (
    "suspend_s", "validate_s", "split_s", "curvature_s", "curvature_par_s", "subdivide_s",
)

SUBDIVISION_ERRORS = ("ParameterError", "ChainError", "SizeBoundError")

PER_LAYER = {
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.cpu_per_wall": "ratio",
    "warped_product.sample_s": "s",
    "warped_product.solve_calls": "count",
    "warped_product.solve_s": "s",
    "warped_product.null_offset_calls": "count",
    "warped_product.self_s": "s",
    "causal_space.validate_s": "s",
    "causal_space.validate_checked": "count",
    "causal_space.chain_calls": "count",
    "causal_space.chain_s": "s",
    "causal_space.compare_s": "s",
    "causal_space.subdivision_s": "s",
    **{f"causal_space.subdivision_failed.{name}": "count" for name in SUBDIVISION_ERRORS},
    "causal_space.subdivision_failed.other": "count",
    "causal_space.self_s": "s",
    "rigidity.find_line_s": "s",
    "rigidity.extract_slice_s": "s",
    "rigidity.c_functions_calls": "count",
    "rigidity.c_functions_s": "s",
    "rigidity.build_splitting_self_s": "s",
    "rigidity.slice_points": "count",
    "rigidity.self_s": "s",
    "model_space.interval_calls": "count",
    "model_space.comparison_point_calls": "count",
    "model_space.realize_calls": "count",
    "model_space.self_s": "s",
    "trace.overhead_frac": "frac",
}


def cap_thread_vars(nproc: int) -> dict:
    """Set every BLAS/OpenMP thread variable to at most nproc."""
    record = {}
    for var in THREAD_VARS:
        was = os.environ.get(var)
        try:
            now = min(int(was), nproc) if was is not None else nproc
        except ValueError:
            now = nproc
        now = max(now, 1)
        os.environ[var] = str(now)
        record[var] = {"was": was, "now": str(now)}
    return record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure_setup(root: pathlib.Path) -> list:
    """Seconds to import llk.cli, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=root, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout))
    return samples


def tail_percentile(values):
    """Highest of p50/p90/p99 with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    for p in (99, 90, 50):
        if len(ordered) * (100 - p) >= 1000:
            return p, ordered[math.ceil(p * len(ordered) / 100) - 1]
    return None


def run_pass(cli, requests, out_dir, first) -> list:
    answers = []
    for request in requests:
        answer = workloads.send(cli, request, out_dir / f"{request.name}.json")
        workloads.check_repeat(answer, first)
        answers.append(answer)
    return answers


def pass_seconds(answers) -> float:
    return sum(a.wall for a in answers)


def typical_pass_seconds(passes) -> float:
    """Each request's median time over the passes, summed over requests.

    A burst of load on the machine slows the requests that it overlaps,
    so the per-request median discards it where a median of pass totals
    would need a majority of clean passes.
    """
    return sum(median([answers[k].wall for answers in passes]) for k in range(len(passes[0])))


def command_metrics(passes) -> dict:
    """<cmd>_s: median over passes of the summed time of completed requests."""
    out = {}
    for metric in COMMAND_METRICS:
        per_pass, completed, failed = [], 0, 0
        for answers in passes:
            mine = [a for a in answers if a.request.metric == metric]
            if not mine:
                break
            done = [a for a in mine if a.code != 2]
            completed += len(done)
            failed += len(mine) - len(done)
            per_pass.append(sum((a.wall for a in done), 0.0))
        if not per_pass:
            continue
        tail = tail_percentile(per_pass)
        out[metric] = {
            "value": median(per_pass),
            "unit": "s",
            "samples": len(per_pass),
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            "completed": completed,
            "failed": failed,
        }
    return out


def failure_metrics(passes) -> dict:
    answers = [a for p in passes for a in p]
    failed = [a for a in answers if a.code == 2]
    return {
        "value": len(failed) / len(answers),
        "unit": "frac",
        "attempted": len(answers),
        "failed": len(failed),
        "by_class": dict(sorted(Counter(a.error for a in failed).items())),
        "by_request": dict(sorted(Counter(a.request.name for a in failed).items())),
    }


def layer_metrics(t: tracer.Tracer) -> dict:
    """Per-layer figures of one traced pass."""
    incl, calls, raised = t.inclusive, t.calls, t.raised
    failed = Counter(
        {cls: n for (key, cls), n in raised.items() if key == "causal_space.check_subdivision"}
    )
    out = {
        "cli.parse_s": incl["cli.parse_space_file"],
        "cli.self_s": t.layer_self["cli"],
        "warped_product.sample_s": incl["warped_product.sample"],
        "warped_product.solve_calls": calls["warped_product.comparison_space_tau"],
        "warped_product.solve_s": incl["warped_product.comparison_space_tau"],
        "warped_product.null_offset_calls": calls["warped_product.null_offset"],
        "warped_product.self_s": t.layer_self["warped_product"],
        "causal_space.validate_s": incl["causal_space.validate_space"],
        "causal_space.validate_checked": sum(t.returned["causal_space.validate_space"]),
        "causal_space.chain_calls": calls["causal_space.longest_chain"],
        "causal_space.chain_s": incl["causal_space.longest_chain"],
        "causal_space.compare_s": incl["causal_space.compare"],
        "causal_space.subdivision_s": incl["causal_space.check_subdivision"],
        "causal_space.subdivision_failed.other": sum(
            n for cls, n in failed.items() if cls not in SUBDIVISION_ERRORS
        ),
        "causal_space.self_s": t.layer_self["causal_space"],
        "rigidity.find_line_s": incl["rigidity.find_line"],
        "rigidity.extract_slice_s": incl["rigidity.extract_slice"],
        "rigidity.c_functions_calls": calls["rigidity.c_functions"],
        "rigidity.c_functions_s": incl["rigidity.c_functions"],
        "rigidity.build_splitting_self_s": t.exclusive["rigidity.build_splitting"],
        "rigidity.slice_points": sum(t.returned["rigidity.build_splitting"]),
        "rigidity.self_s": t.layer_self["rigidity"],
        "model_space.interval_calls": calls["model_space.ads_interval"],
        "model_space.comparison_point_calls": calls["model_space.comparison_point"],
        "model_space.realize_calls": calls["model_space.realize_triangle"],
        "model_space.self_s": t.layer_self["model_space"],
    }
    for name in SUBDIVISION_ERRORS:
        out[f"causal_space.subdivision_failed.{name}"] = failed[name]
    return out


def cpu_per_wall(passes) -> float:
    """Process CPU over wall time of the parallel requests (all if none)."""
    answers = [a for p in passes for a in p]
    chosen = [a for a in answers if a.request.parallel] or answers
    return sum(a.cpu for a in chosen) / sum(a.wall for a in chosen)


def result_line(attempted, failed, metrics) -> str:
    """The last output line; printed only when every answer was accepted."""
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"metric name {name!r} is not printable")
    return json.dumps(
        {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def measure(args, root, tmp, nproc) -> tuple:
    """Gate, timed passes, output checks; returns (report, metrics)."""
    from llk import causal_space, cli, model_space, rigidity, warped_product

    layers = (
        ("cli", cli),
        ("warped_product", warped_product),
        ("causal_space", causal_space),
        ("rigidity", rigidity),
        ("model_space", model_space),
    )
    fixtures = root / "fixtures"
    replayed = workloads.replay_goldens(cli, fixtures, tmp, sorted({1, nproc}))
    requests = workloads.build(cli, args.workload, args.seed, tmp, fixtures, nproc)
    out_dir = tmp / "out"
    out_dir.mkdir()

    first = {}
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(plain) > len(traced):
            t = tracer.Tracer()
            t.install(layers)
            try:
                answers = run_pass(cli, requests, out_dir, first)
            finally:
                t.remove()
            traced.append((answers, t))
        else:
            plain.append(run_pass(cli, requests, out_dir, first))
        enough = plain and (traced or not args.trace)
        if enough and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workloads.check_outputs(requests, first)

    sent = plain + [answers for answers, _ in traced]
    report = {
        "gate": {"golden_replays": replayed, "passes_checked": len(sent)},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_totals_s": [pass_seconds(p) for p in plain],
        "commands": command_metrics(plain),
        "failed_frac": failure_metrics(sent),
    }
    if not args.trace:
        metrics = {"pass_s": typical_pass_seconds(plain), "peak_rss_mb": peak_rss_mb}
        return report, metrics
    per_pass = [layer_metrics(t) for _, t in traced]
    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    metrics["cli.output_bytes"] = sum(a.size for a in plain[0])
    metrics["cli.cpu_per_wall"] = cpu_per_wall(plain)
    traced_s = typical_pass_seconds([answers for answers, _ in traced])
    metrics["trace.overhead_frac"] = traced_s / typical_pass_seconds(plain) - 1.0
    report["traced_pass_totals_s"] = [pass_seconds(answers) for answers, _ in traced]
    report["functions"] = {
        key: {"calls": n, "exclusive_s": traced[-1][1].exclusive[key]}
        for key, n in sorted(traced[-1][1].calls.items())
    }
    return report, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path(__file__).resolve().parents[1]
    if not (root / "src" / "llk" / "cli.py").is_file() or not (
        root / "fixtures" / "golden"
    ).is_dir():
        print(f"bench: {root} has no src/llk or fixtures/golden to measure", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = cap_thread_vars(nproc)
    sys.path.insert(0, str(root / "src"))
    import numpy

    from llk import cli  # noqa: F401  (first import writes the bytecode cache)

    setup = measure_setup(root)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=root) as tmp:
        try:
            report, metrics = measure(args, root, pathlib.Path(tmp), nproc)
        except workloads.GateFailure as exc:
            print(f"bench: correctness gate failed: {exc}", file=sys.stderr)
            return 1
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        metrics["setup_s"] = median(setup)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(units)}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": nproc,
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "thread_vars": threads,
        },
        "setup_s": setup,
        **report,
    }
    print(json.dumps(report, indent=2))
    failures = report["failed_frac"]
    metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(result_line(failures["attempted"], failures["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

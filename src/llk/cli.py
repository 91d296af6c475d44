"""Batch front door: parse space files, run checks, emit reports.

Input files are UTF-8 JSON describing either a sampled causal space
("finite_causal": labels, tau and leq matrices, optional coords; a null
tau entry encodes the +inf of an unrelated pair) or a request to build
one ("suspension_request": warping spec, base metric space, time grid).
Check commands answer with a ReportFile: a JSON document carrying the
tool version, the input digest, the effective tolerances and per-check
verdicts with violation lists, so a report is byte-identical for a
fixed input, command, seed, and tolerance set regardless of worker
count.  suspend answers with the materialized finite_causal SpaceFile,
equally deterministic.

Randomized sweeps draw each sample from its own counter-based stream
keyed by (seed, sample index) and run the samples in order in one
thread; curvature then audits its drawn triangles in blocks and merges
one report per block.  --jobs is accepted but does not change the
report.
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import causal_space as cs
from . import rigidity as rg
from . import warped_product as wp
from .errors import (
    ChainError,
    ExtractionError,
    GeometryError,
    InfeasibleError,
    ParameterError,
    SizeBoundError,
    StructuralError,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DRAW_TRIES = 64

# curvature audits its drawn triangles in blocks of about this many
# comparison pairs and angle grid cells
_AUDIT_CELLS = 1 << 16

# a materialized space holds n x n matrices: suspend and split peak at
# 100 and 107 MB at 1,932 points, and at 323 and 324 MB at 4,092 (peak
# RSS in a fresh interpreter, cos suspension over a 12-point net)
MAX_SPACE_POINTS = 4096

# the largest tau entry of a finite_causal file: half the float range, so
# that every sum of two separations, and twice their median, stays finite
MAX_TAU = sys.float_info.max / 2


@dataclass(frozen=True)
class SpaceFile:
    """Parsed input file: a causal space or a request to build one."""

    kind: str
    space: cs.FiniteCausalSpace = None
    warping: wp.WarpingSpec = None
    base: wp.FiniteMetricSpace = None
    t_grid: tuple = None


# ---------------------------------------------------------------- parsing


def _fail(path: str, message: str):
    raise StructuralError(f"{path}: {message}")


def _reject_constant(token):
    raise StructuralError(
        f"non-finite number {token} outside the null (+inf) encoding"
    )


def _load_json(raw: bytes):
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail("<input>", f"not UTF-8: {exc}")
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        _fail("<input>", f"not JSON: {exc}")
    except StructuralError:
        raise
    except ValueError as exc:  # an integer with more digits than int() reads
        _fail("<input>", f"unreadable number: {exc}")


def _number(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        _fail(path, "integer beyond the float range")
    if not math.isfinite(value):
        _fail(path, "non-finite number outside the null (+inf) encoding")
    return value


def _entries(row, path: str, entry):
    """entry(v, path) over a row; entry paths are built only to name a bad one."""
    try:
        return [entry(v, path) for v in row]
    except StructuralError:
        for c, v in enumerate(row):
            entry(v, f"{path}[{c}]")
        raise


def _matrix(rows, n: int, path: str, entry):
    if not isinstance(rows, list) or len(rows) != n:
        _fail(path, f"expected {n} rows")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            got = len(row) if isinstance(row, list) else type(row).__name__
            _fail(f"{path}[{r}]", f"expected {n} entries, got {got}")
        out.append(_entries(row, f"{path}[{r}]", entry))
    return out


def _string_list(values, path: str):
    if not isinstance(values, list) or not values:
        _fail(path, "expected a nonempty list of labels")
    for k, v in enumerate(values):
        if not isinstance(v, str):
            _fail(f"{path}[{k}]", f"expected a string, got {v!r}")
    return list(values)


def _parse_finite_causal(doc) -> SpaceFile:
    labels = _string_list(doc.get("labels"), "labels")
    n = len(labels)

    def tau_entry(v, path):
        return None if v is None else _number(v, path)

    def leq_entry(v, path):
        if isinstance(v, bool) or v not in (0, 1):
            _fail(path, f"expected 0 or 1, got {v!r}")
        return int(v)

    tau_rows = _matrix(doc.get("tau"), n, "tau", tau_entry)
    leq_rows = _matrix(doc.get("leq"), n, "leq", leq_entry)
    tau = np.array(tau_rows, dtype=float)  # null entries become NaN
    leq = np.array(leq_rows, dtype=bool)
    null = np.isnan(tau)
    bad = np.where(null, leq, (tau > 0.0) & ~leq)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n)  # the first in row-major order
        if null[i, j]:
            _fail(f"tau[{i}][{j}]", "null (+inf) entry on a related pair")
        _fail(f"tau[{i}][{j}]", "positive entry on an unrelated pair")
    tau[null] = 0.0
    if tau.max() > MAX_TAU:
        i, j = divmod(int(np.argmax(tau > MAX_TAU)), n)
        _fail(f"tau[{i}][{j}]", f"entry above {MAX_TAU!r}, half the float range")
    coords = None
    if doc.get("coords") is not None:
        rows = doc["coords"]
        if not isinstance(rows, list) or len(rows) != n:
            _fail("coords", f"expected {n} rows")
        width = None
        coords = []
        for r, row in enumerate(rows):
            if not isinstance(row, list) or not row:
                _fail(f"coords[{r}]", "expected a nonempty row of numbers")
            if width is None:
                width = len(row)
            elif len(row) != width:
                _fail(f"coords[{r}]", f"expected {width} entries, got {len(row)}")
            coords.append(_entries(row, f"coords[{r}]", _number))
    space = cs.FiniteCausalSpace(tuple(labels), tau, leq, coords)
    return SpaceFile(kind="finite_causal", space=space)


def _parse_warping(doc):
    if not isinstance(doc, dict):
        _fail("warping", "expected an object")
    kind = doc.get("kind")
    if kind == "cos":
        make, args = wp.cos_warping, ()
    elif kind == "constant":
        interval = doc.get("interval")
        if not isinstance(interval, list) or len(interval) != 2:
            _fail("warping.interval", "expected [a, b]")
        make, args = wp.constant_warping, (
            _number(doc.get("value"), "warping.value"),
            (
                _number(interval[0], "warping.interval[0]"),
                _number(interval[1], "warping.interval[1]"),
            ),
        )
    elif kind == "table":
        knots = doc.get("knots")
        values = doc.get("values")
        if not isinstance(knots, list) or not isinstance(values, list):
            _fail("warping", "table warping needs knots and values lists")
        make, args = wp.table_warping, (
            _entries(knots, "warping.knots", _number),
            _entries(values, "warping.values", _number),
        )
    else:
        _fail("warping.kind", f"unknown warping kind {kind!r}")
    # the constructors' own errors name no path
    try:
        return make(*args)
    except StructuralError as exc:
        _fail("warping", str(exc))


def _parse_suspension_request(doc) -> SpaceFile:
    warping = _parse_warping(doc.get("warping"))
    base_doc = doc.get("base")
    if not isinstance(base_doc, dict):
        _fail("base", "expected an object with labels and dist")
    labels = _string_list(base_doc.get("labels"), "base.labels")
    dist = _matrix(base_doc.get("dist"), len(labels), "base.dist", _number)
    try:
        base = wp.FiniteMetricSpace(tuple(labels), np.array(dist))
    except StructuralError as exc:
        _fail("base", str(exc))
    grid_doc = doc.get("t_grid")
    if not isinstance(grid_doc, list) or not grid_doc:
        _fail("t_grid", "expected a nonempty list of times")
    t_grid = tuple(_entries(grid_doc, "t_grid", _number))
    return SpaceFile(
        kind="suspension_request", warping=warping, base=base, t_grid=t_grid
    )


def parse_space_file(raw: bytes) -> SpaceFile:
    """Parse and validate a SpaceFile, with path-to-field diagnostics."""
    doc = _load_json(raw)
    if not isinstance(doc, dict):
        _fail("<input>", "expected a JSON object")
    kind = doc.get("kind")
    if kind == "finite_causal":
        return _parse_finite_causal(doc)
    if kind == "suspension_request":
        return _parse_suspension_request(doc)
    _fail("kind", f"unknown kind {kind!r}")


_ROW_ENCODER = json.JSONEncoder(allow_nan=False)

# the space writer collects the distinct related separations over row
# blocks of about this many cells, never over all related entries at once
_UNIQUE_CELLS = 1 << 16


def _encode_numbers(values) -> list:
    """JSON text of each number, from one C-encoder call; NaN and inf raise."""
    return _ROW_ENCODER.encode(values)[1:-1].split(", ")


def _row_chunks(rows):
    """Rows of encoded numbers as the items of an indent-2 list under a
    top-level key, one chunk per row, each after the first led by its comma."""
    lead = b""
    for row in rows:
        yield lead + ("    [\n      " + ",\n      ".join(row) + "\n    ]").encode()
        lead = b",\n"


def _space_chunks(X: cs.FiniteCausalSpace):
    """render_space's bytes, chunk by chunk, each row built as it is asked for."""
    bits = X.tau.view(np.uint64)
    n = len(X.labels)
    rows = max(1, _UNIQUE_CELLS // n)
    uniq = np.unique(np.concatenate([
        np.unique(bits[lo:lo + rows][X.leq[lo:lo + rows]]) for lo in range(0, n, rows)
    ]))
    tokens = np.array(_encode_numbers(uniq.view(np.float64).tolist()) + ["null"], dtype=object)
    null = len(tokens) - 1
    tau = (
        tokens[np.where(leq_row, np.searchsorted(uniq, bits_row), null)].tolist()
        for bits_row, leq_row in zip(bits, X.leq)
    )
    digits = np.array(["0", "1"], dtype=object)
    leq = (digits[row].tolist() for row in X.leq.view(np.uint8))
    yield b"{\n"
    if X.coords is not None:
        yield b'  "coords": [\n'
        yield from _row_chunks(_encode_numbers(row) for row in X.coords.tolist())
        yield b"\n  ],\n"
    labels = ",\n    ".join(json.dumps(label) for label in X.labels)
    yield b'  "kind": "finite_causal",\n  "labels": [\n    ' + labels.encode() + b"\n  ],\n"
    yield b'  "leq": [\n'
    yield from _row_chunks(leq)
    yield b"\n  ],\n"
    yield b'  "tau": [\n'
    yield from _row_chunks(tau)
    yield b"\n  ]\n}\n"


def render_space(X: cs.FiniteCausalSpace) -> bytes:
    """finite_causal SpaceFile of a sampled space.

    The bytes are those of _render_json on the document with the keys
    coords (when present), kind, labels, leq and tau, written without the
    pure-Python encoder that json.dumps falls back to when it indents.

    Each distinct tau value on a related pair is encoded once, keyed by
    its bit pattern (so -0.0 stays apart from 0.0), and each tau row is
    then assembled by lookup, an unrelated cell reading null whatever it
    holds; leq rows look up "0" and "1".  NaN or inf on a related pair or
    in coords raises ValueError.  The lookup pays off because a grid
    suspension repeats its separations: it has at most levels^2 x
    (distinct base distances) of them.  A space whose related values are
    nearly all distinct is written slower than by encoding each row
    directly.  suspend writes the same bytes from _space_chunks one row at
    a time, so no n x n table of strings and no copy of the whole output
    is ever held.
    """
    return b"".join(_space_chunks(X))


# ---------------------------------------------------------------- reports


def _violation_dict(v: cs.Violation) -> dict:
    return {
        "pair": list(v.pair),
        "lhs": float(v.lhs),
        "rhs": float(v.rhs),
        "deficit": float(v.deficit),
        "note": v.note,
    }


def _check_dict(name: str, rep: cs.ComparisonReport, **extra) -> dict:
    out = {
        "name": name,
        "verdict": bool(rep.verdict),
        "checked": int(rep.checked),
        "skipped": int(rep.skipped),
        "violation_count": int(rep.violation_count),
        "excess_count": int(rep.excess_count),
        "max_deficit": float(rep.max_deficit),
        "max_excess": float(rep.max_excess),
        "violations": [_violation_dict(v) for v in rep.violations],
        "notes": list(rep.notes),
    }
    out.update(extra)
    return out


def report_payload(command, options, kind, points, checks, digest) -> dict:
    """ReportFile of one check command; points counts the space it ran on."""
    verdict = all(c["verdict"] for c in checks)
    return {
        "tool": {"name": "llk", "version": __version__},
        "command": command,
        "input": {"digest": f"sha256:{digest}", "kind": kind, "points": points},
        "options": {
            "tol_exact": options.tol_exact,
            "tol_disc": options.tol_disc,
            "samples": options.samples,
            "seed": options.seed,
            "grid": options.grid,
        },
        "checks": checks,
        "verdict": verdict,
    }


def _render_json(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


# ---------------------------------------------------------------- sampling


def _sample_streams(seed: int, samples: int):
    """The random stream of each sample index k in turn, keyed by (seed, k)."""
    for k in range(samples):
        key = np.array([seed & (2**63 - 1), k], dtype=np.uint64)
        yield np.random.Generator(np.random.Philox(key=key))


def _draw_triangle(X: cs.FiniteCausalSpace, rng, min_sep: float):
    n = X.size
    for _ in range(DRAW_TRIES):
        trio = rng.integers(0, n, size=3).tolist()
        if len(set(trio)) < 3:
            continue
        for a, b, c in itertools.permutations(trio):
            if (
                X.tau[a, b] > min_sep
                and X.tau[b, c] > min_sep
                and X.tau[a, c] > min_sep
            ):
                return a, b, c
    return None


def _side_chains(X, verts):
    i, j, k = verts
    return (
        cs.longest_chain(X, i, j),
        cs.longest_chain(X, j, k),
        cs.longest_chain(X, i, k),
    )


def _curvature_sample(X, rng, tol):
    """(cells, (triangle audit, fan audit)) of one drawn triangle, after
    every check of its two audits that can raise, or None when no
    triangle is drawn."""
    verts = _draw_triangle(X, rng, tol)
    if verts is None:
        return None
    chains = _side_chains(X, verts)
    triangle = cs.triangle_audit(X, verts, chains, tol)
    fan = cs.fan_audit(verts[0], chains[0], chains[2])
    return triangle.cells + fan.cells, (triangle, fan)


def _curvature_audits(X, block, tol) -> tuple:
    """(triangles, triangle report, triangles violated, monotonicity
    report) of a block of audited triangles."""
    triangle, violated = cs.check_triangle_comparisons(X, [t for t, _ in block], tol)
    return len(block), triangle, violated, cs.check_monotonicities(X, [f for _, f in block], tol)


def _subdivision_sample(X, rng, tol):
    """("across" or "future", report) of one drawn subdivision, or None
    when none is drawn."""
    for _ in range(DRAW_TRIES):
        verts = _draw_triangle(X, rng, tol)
        if verts is None:
            return None
        chains = _side_chains(X, verts)
        which = "across" if int(rng.integers(0, 2)) == 0 else "future"
        for attempt in (which, "future" if which == "across" else "across"):
            host = chains[2] if attempt == "across" else chains[0]
            interior = host.indices[1:-1]
            if not interior:
                continue
            p = int(interior[int(rng.integers(0, len(interior)))])
            return attempt, cs.check_subdivision(X, verts, chains, p, attempt, tol)
    return None


def _effective_tol_disc(options, X: cs.FiniteCausalSpace) -> float:
    if options.tol_disc is not None:
        return options.tol_disc
    gaps = np.min(X.tau, axis=1, where=X.tau > 0.0, initial=np.inf)
    gaps = gaps[np.isfinite(gaps)]
    if gaps.size == 0:
        return options.tol_exact
    return 2.0 * float(np.median(gaps))


def _sweep(X, options, sample, audit=None):
    """Run sample(X, rng, tol) for every sample index, in order.

    tol is the effective --tol-disc, which also bounds the sides a
    triangle is drawn with from below; each sample reads its own stream
    of _sample_streams.  Returns (tol, results, counts): the results
    of the samples that drew, and counts of the others, "unrealizable"
    for a SizeBoundError and "undrawn" for a None.

    With audit, a sample returns (cells, item), and the results are
    those of audit(X, items, tol), one per block of items of about
    _AUDIT_CELLS cells, in order.  Every check that can raise runs in
    sample, so the first sample to raise stops the sweep; audit does not
    raise.
    """
    tol = _effective_tol_disc(options, X)
    results, block, cells = [], [], 0
    counts = {"unrealizable": 0, "undrawn": 0}
    for rng in _sample_streams(options.seed, options.samples):
        try:
            result = sample(X, rng, tol)
        except SizeBoundError:
            counts["unrealizable"] += 1
            continue
        if result is None:
            counts["undrawn"] += 1
        elif audit is None:
            results.append(result)
        else:
            block.append(result[1])
            cells += result[0]
            if cells >= _AUDIT_CELLS:
                full, block, cells = block, [], 0
                results.append(audit(X, full, tol))
    if block:
        results.append(audit(X, block, tol))
    return tol, results, counts


# ---------------------------------------------------------------- commands


def _materialize(parsed: SpaceFile, options) -> cs.FiniteCausalSpace:
    if parsed.kind == "finite_causal":
        if options.grid is not None:
            raise ParameterError(
                "--grid applies to a suspension_request input, not finite_causal "
                f"(got --grid {options.grid})"
            )
        return parsed.space
    t_grid = parsed.t_grid
    if options.grid is not None and options.grid < 2:
        raise ParameterError(f"--grid must be at least 2, got {options.grid}")
    times = len(t_grid) if options.grid is None else options.grid
    if parsed.base.size * times > MAX_SPACE_POINTS:
        raise ParameterError(
            f"{parsed.base.size} base points at {times} times would give more than "
            f"{MAX_SPACE_POINTS} points"
        )
    if options.grid is not None:
        t_grid = tuple(np.linspace(t_grid[0], t_grid[-1], options.grid))
    return wp.sample_warped_product(parsed.warping, parsed.base, t_grid)


def _cmd_validate(X, options):
    rep = cs.validate_space(X, tol=options.tol_exact)
    return [_check_dict("causal_axioms", rep, tol=options.tol_exact)]


def _cmd_myers(X, options):
    rep = cs.myers_check(X, tol=options.tol_exact)
    return [_check_dict("diameter_bound", rep, tol=options.tol_exact)]


def _cmd_curvature(X, options):
    tol, results, counts = _sweep(X, options, _curvature_sample, _curvature_audits)
    triangle = cs.merge_reports([r[1] for r in results])
    monotone = cs.merge_reports([r[3] for r in results])
    return [
        _check_dict(
            "triangle_comparison",
            triangle,
            tol=tol,
            triangles=sum(r[0] for r in results),
            triangles_violated=sum(r[2] for r in results),
            **counts,
        ),
        _check_dict("monotonicity", monotone, tol=tol),
    ]


def _cmd_subdivide(X, options):
    tol, results, counts = _sweep(X, options, _subdivision_sample)
    checks = []
    for which in ("across", "future"):
        reps = [rep for attempt, rep in results if attempt == which]
        checks.append(
            _check_dict(
                f"subdivision_{which}", cs.merge_reports(reps), tol=tol, triangles=len(reps)
            )
        )
    checks[0].update(counts)
    return checks


def _cmd_split(X, options):
    try:
        gamma = rg.find_line(X)
        # nothing after find_line takes a chain, so the chain index, one
        # n x n matrix, need not outlive it
        vars(X).pop("_chain_index", None)
        result = rg.build_splitting(X, gamma, tol=options.tol_disc)
    except (InfeasibleError, ChainError, ExtractionError) as exc:
        # no usable line, one at least pi long or with a null step, or
        # fibers, taken by the closed-form fiber distance, that cannot be
        # metrized or that put two points on one sample: the geometry
        # failing, not bad input
        return [{"name": "splitting", "verdict": False, "reason": str(exc)}]
    S = result.slice_space
    check = {
        "name": "splitting",
        "verdict": bool(result.verdict),
        "tol": float(result.tol),
        "collar": float(result.collar),
        "residual": float(result.residual),
        "mismatches": int(result.mismatches),
        "forgiven": int(result.forgiven),
        "line": {
            "value": float(gamma.value),
            "labels": [X.labels[i] for i in gamma.indices],
        },
        "slice": {
            "labels": list(S.labels),
            "dist": [[float(v) for v in row] for row in S.dist],
        },
        "samples": len(result.samples),
    }
    return [check]


# ---------------------------------------------------------------- driver


_CHECK_COMMANDS = {
    "validate": _cmd_validate,
    "curvature": _cmd_curvature,
    "myers": _cmd_myers,
    "subdivide": _cmd_subdivide,
    "split": _cmd_split,
}

COMMANDS = (*_CHECK_COMMANDS, "suspend")


def _run_chunks(command: str, raw: bytes, options) -> tuple:
    """run_command with the output as an iterable of byte chunks.

    Every input error is raised before the first chunk; a suspend space
    is rendered lazily, row by row, as the chunks are taken.
    """
    for flag, value in (("--samples", options.samples), ("--jobs", options.jobs)):
        if value < 1:
            raise ParameterError(f"{flag} must be at least 1, got {value}")
    for flag, value in (("--tol-exact", options.tol_exact), ("--tol-disc", options.tol_disc)):
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ParameterError(f"{flag} must be a finite number >= 0, got {value}")
    parsed = parse_space_file(raw)
    if command == "suspend" and parsed.kind != "suspension_request":
        raise ParameterError("suspend needs a suspension_request input")
    X = _materialize(parsed, options)
    if command == "suspend":
        return _space_chunks(X), EXIT_PASS
    checks = _CHECK_COMMANDS[command](X, options)
    digest = hashlib.sha256(raw).hexdigest()
    report = report_payload(command, options, parsed.kind, X.size, checks, digest)
    code = EXIT_PASS if report["verdict"] else EXIT_FAIL
    return [_render_json(report)], code


def run_command(command: str, raw: bytes, options) -> tuple:
    """Dispatch one command over raw input bytes.

    Returns (output bytes, exit code): a ReportFile for check commands,
    a SpaceFile for suspend.
    """
    chunks, code = _run_chunks(command, raw, options)
    return b"".join(chunks), code


def _write_output(chunks, outfile) -> None:
    """Write the chunks to outfile, or to stdout without one, as they come.

    A write that fails part-way removes the partial file and re-raises.
    """
    if not outfile:
        for chunk in chunks:
            sys.stdout.write(chunk.decode("utf-8"))
        return
    handle = open(outfile, "wb")
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(outfile)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llk",
        description="Checks and reconstructions over sampled causal spaces.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--in", dest="infile", required=True, help="input JSON file")
    parser.add_argument("--out", dest="outfile", help="output file (default stdout)")
    parser.add_argument("--tol-exact", dest="tol_exact", type=float, default=1e-8)
    parser.add_argument("--tol-disc", dest="tol_disc", type=float, default=None)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--grid", type=int, default=None)
    return parser


def main(argv=None) -> int:
    options = _build_parser().parse_args(argv)
    try:
        with open(options.infile, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        print(f"error [cli.input] {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        chunks, code = _run_chunks(options.command, raw, options)
    except GeometryError as exc:
        qualified = f"{type(exc).__module__}.{type(exc).__name__}"
        print(f"error [{qualified}] {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write_output(chunks, options.outfile)
    except OSError as exc:
        print(f"error [cli.output] {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

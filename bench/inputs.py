"""Seeded input files for the benchmark workloads.

Every generated space rests on the same kind of base: twelve points on a
circle of circumference 4 with the circular distance as the metric.
Point k sits at lattice site 2k or 2k + 1 of 24 equally spaced sites, the
choice drawn from the seed.  This is the net of
``fixtures/suspension_circle12.json`` with each point jittered by zero or
half a spacing, so every seed gives a different, irregular space of the
same size.  Distances are whole multiples of the site spacing, so the
table-warping solver, which runs once per distinct distance and time
pair, meets at most 13 distances rather than 66.  Only plain ``random``
is used, so the inputs do not depend on the numpy version.
"""

import json
import math
import random

NET_POINTS = 12
SITES = 24
CIRCUMFERENCE = 4.0

COS_MARGIN = 0.05  # request grids stay this far inside (-pi/2, pi/2)
FLAT_HEIGHT = 4.0
REQUEST_TIMES = 21


def circle_net(seed: int) -> dict:
    """Base metric space: seeded lattice positions, circular distances."""
    rng = random.Random(seed)
    sites = [2 * k + rng.randrange(2) for k in range(NET_POINTS)]
    spacing = CIRCUMFERENCE / SITES
    dist = [
        [min(abs(a - b), SITES - abs(a - b)) * spacing for b in sites]
        for a in sites
    ]
    return {"labels": [f"c{k:02d}" for k in range(NET_POINTS)], "dist": dist}


def _linspace(lo: float, hi: float, n: int) -> list:
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _request(warping: dict, base: dict, lo: float, hi: float) -> dict:
    return {
        "kind": "suspension_request",
        "warping": warping,
        "base": base,
        "t_grid": _linspace(lo, hi, REQUEST_TIMES),
    }


def cos_request(base: dict) -> dict:
    """Cosine suspension: the closed-form warped product over the net."""
    half = math.pi / 2
    return _request({"kind": "cos"}, base, -half + COS_MARGIN, half - COS_MARGIN)


def cos_table_request(base: dict, knots: int) -> dict:
    """The cosine suspension given as a piecewise-linear table of cos."""
    half = math.pi / 2
    ts = _linspace(-half + 1e-9, half - 1e-9, knots)
    warping = {"kind": "table", "knots": ts, "values": [math.cos(t) for t in ts]}
    return _request(warping, base, -half + COS_MARGIN, half - COS_MARGIN)


def flat_table_request(base: dict, knots: int) -> dict:
    """A constant-1 table on [0, 4]: every table piece is flat."""
    ts = _linspace(0.0, FLAT_HEIGHT, knots)
    warping = {"kind": "table", "knots": ts, "values": [1.0] * knots}
    return _request(warping, base, COS_MARGIN, FLAT_HEIGHT - COS_MARGIN)


def flat_strip_request(base: dict) -> dict:
    """Constant warping 1 on (0, 4): a flat strip, which fails curvature."""
    warping = {"kind": "constant", "value": 1.0, "interval": [0.0, FLAT_HEIGHT]}
    return _request(warping, base, COS_MARGIN, FLAT_HEIGHT - COS_MARGIN)


def write_json(path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

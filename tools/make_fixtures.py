"""Regenerate the fixture SpaceFiles and their golden reports.

Run from the repository root:

    python3 tools/make_fixtures.py

Fixtures are small by design: a 9x9 null-coordinate diamond sample of
the model strip, a cos-suspension request over a 12-point circle net,
and a constant-warping (flat) strip request of height 4 over the same
net.  Golden reports freeze representative commands per fixture, one
entry each in fixtures/golden/runs.json, which the tests and CI replay
with 1 and 8 workers and compare byte for byte.
"""

import json
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from llk import causal_space as cs  # noqa: E402
from llk import cli  # noqa: E402
from llk import model_space as ms  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"


def diamond_space(n=9, half_width=0.6):
    """Null-coordinate grid sample of the model strip."""
    u = np.linspace(-half_width, half_width, n)
    points = [
        ms.AdsPrimePoint((a + b) / 2.0, (b - a) / 2.0) for a in u for b in u
    ]
    return cs.sample_model_points(points)


def circle_base(n=12, circumference=4.0):
    dist = [
        [
            (circumference / n) * min(abs(i - j), n - abs(i - j))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return {"labels": [f"c{i:02d}" for i in range(n)], "dist": dist}


def suspension_request(n_times=21, delta=0.05):
    grid = np.linspace(-ms.HALF_PI + delta, ms.HALF_PI - delta, n_times)
    return {
        "kind": "suspension_request",
        "warping": {"kind": "cos"},
        "base": circle_base(),
        "t_grid": [float(t) for t in grid],
    }


def flat_strip_request(n_times=21, height=4.0, margin=0.05):
    grid = np.linspace(margin, height - margin, n_times)
    return {
        "kind": "suspension_request",
        "warping": {"kind": "constant", "value": 1.0, "interval": [0.0, height]},
        "base": circle_base(),
        "t_grid": [float(t) for t in grid],
    }


def write_bytes(path, raw):
    path.write_bytes(raw)
    print(f"wrote {path.relative_to(ROOT)}")


def main():
    diamond = FIXTURES / "ads_diamond_81.json"
    write_bytes(diamond, cli.render_space(diamond_space()))
    suspension = FIXTURES / "suspension_circle12.json"
    write_bytes(suspension, cli._render_json(suspension_request()))
    strip = FIXTURES / "flat_strip.json"
    write_bytes(strip, cli._render_json(flat_strip_request()))

    for run in json.loads((GOLDEN / "runs.json").read_text()):
        out = GOLDEN / run["golden"]
        argv = [run["command"], "--in", str(FIXTURES / run["fixture"]), "--out", str(out)]
        code = cli.main([*argv, *run["extra"]])
        print(f"wrote {out.relative_to(ROOT)} (exit {code})")


if __name__ == "__main__":
    main()

"""Pinned CLI output: ``slice``, ``coarea`` and ``report`` on the fixtures,
and both verification batteries.

``cli_pinned.json`` holds, for each invocation, the argument list, the
exit code and the exact stdout and stderr the CLI gave when the file was
written.  The deterministic commands must keep giving them byte for
byte, so a change to the slicing kernels that moves a digit, a vertex or
a message fails here.  The cases cover both slice sides on the three
fixtures (a horizontal, a mixed and a vertical f on the cube), two
float slice masses on the cube (f = t, whose tangent varies, and
x1 + 2y1, whose constant norm is sqrt(5)), four levels that hit a
vertex (exit 2), a ``coarea`` sweep with rational
norms, two with irrational norms (x1 + y1, and x1 + 2y1, whose slice
masses are float sums) and the grid-3 sweep that prints
``[FAIL]`` (exit 1), two sweeps off the cube (x1 + 2x2 + 3y1 on the
square, whose sqrt(5) rows come from slicing each level, and x1 on the
segment, whose point sections take the closed-form rows), and
``report`` on each fixture.  Four more
``report`` runs take a vertical or mixed f, so they read f's values at
the vertices in the atoms (P0), the crossing test (P2) and the default
sweep (P5): f = t on the cube with properties 0-3, and in full, where
P4's closed-form constant is refused (exit 2), x1 + 2x2 + 3y1 on the
square, and 3x1 + 4y1 on the cube at 20 levels.  The f
1/2*x1+2/3*y1+1/5 on the cube has fractional coefficients and a
constant: both slices at 3/5, a sweep and the refused level 7/10.
``verify-complex`` and ``verify-lemmas`` are pinned at fixed seeds over
H^1, H^2 and H^3, with small counts.  Fixture paths are relative to the
repository root, where the tests run them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ruminslice.cli import main

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((Path(__file__).resolve().parent / "cli_pinned.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["args"]) for c in CASES])
def test_cli_output_is_pinned(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(case["args"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


def test_pinned_cases_cover_every_exit_code():
    assert {c["exit"] for c in CASES} == {0, 1, 2}
    assert {c["args"][0] for c in CASES} == {"slice", "coarea", "report",
                                            "verify-complex", "verify-lemmas"}

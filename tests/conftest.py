"""Shared test paths and oracles."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def constant_blade_forms(params, grade: int):
    """All coordinate-blade covectors of a grade, as constant forms."""
    from ruminslice.forms import PolyForm
    from ruminslice.polys import Poly
    from ruminslice.rumin import full_blades

    one = Poly.const(params.dim, 1)
    return [PolyForm.single(params, blade, one) for blade in full_blades(params.n, grade)]


def tangent_at(params, simplex, coords):
    """Wedge of the frame images of a simplex's edge vectors at a point.

    The oracle for the library's tangents, which frame the simplex's
    coordinate k-vector instead of wedging framed edges.
    """
    from ruminslice.algebra import MultiVector, wedge
    from ruminslice.heis import Point, frame_change

    point = Point.from_coords(coords)
    result = MultiVector.blade(params.dim, ())
    for edge in simplex.edges():
        framed = frame_change(point, edge)
        grade_one = MultiVector(params.dim, 1,
                                {(i,): c for i, c in enumerate(framed) if c != 0})
        result = wedge(result, grade_one)
    return result

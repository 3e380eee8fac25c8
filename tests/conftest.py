"""Shared test paths."""

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

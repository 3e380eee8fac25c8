"""Exact exterior calculus on the Heisenberg group and slicing of currents.

The library is organized in layers:

* :mod:`ruminslice.heis` -- the group, dilations, Koranyi metric, frames;
* :mod:`ruminslice.algebra` -- constant-coefficient exterior algebra;
* :mod:`ruminslice.forms` -- polynomial-coefficient differential forms;
* :mod:`ruminslice.rumin` -- the Rumin complex and its commutation identities;
* :mod:`ruminslice.currents` -- simplicial currents, mass, boundary, pairing;
* :mod:`ruminslice.slicing` -- level-set slices and the seven-property report;
* :mod:`ruminslice.formio` / :mod:`ruminslice.cli` -- expressions, chain files,
  CSV and the command-line surface.

Everything geometric is exact over the rationals: chains, half-spaces,
affine functions and levels convert float inputs exactly where they
enter (:mod:`ruminslice.heis` points alone keep float support).  All
values are immutable and every operation is a pure function, so the API
is safe to use from concurrent threads.
"""

from .algebra import (
    Covector,
    MultiVector,
    SimpleVectorSample,
    comass_estimate,
    dual_star,
    hodge_star,
    is_horizontal,
    pair,
    wedge,
)
from .clipping import HalfSpace
from .currents import (
    GammaWeight,
    Simplex,
    SimplicialCurrent,
    boundary,
    dual_boundary_functional,
    is_admissible,
    mass,
    measure_of,
    pair_current,
    pair_form,
    restrict_by_fn,
    restrict_to_set,
)
from .errors import (
    AdmissibilityError,
    ChainFormatError,
    DegenerateLevelError,
    DimensionMismatchError,
    FormSyntaxError,
    GradeMismatchError,
    InternalInvariantError,
    MiddleDimensionError,
    ParameterError,
)
from .forms import (
    PolyForm,
    derive_W,
    exterior_d,
    gradient_at,
    horizontal_gradient,
    wedge_forms,
)
from .formio import (
    chain_from_dict,
    chain_to_dict,
    load_chain,
    parse_affine,
    parse_form,
    print_form,
    save_chain,
)
from .heis import (
    HeisParams,
    Point,
    dilate,
    frame_change,
    frame_to_coords,
    group_inv,
    group_mul,
    koranyi_dist,
    koranyi_norm,
    koranyi_norm_fourth,
    left_translate,
)
from .polys import Poly
from .rumin import (
    L_apply,
    L_inv,
    RuminClass,
    canonical_rep,
    d_c,
    g_times,
    is_in_I,
    is_in_J,
    leibniz_defect,
    rumin_class,
    script_L,
)
from .slicing import (
    AffineFunction,
    band_trend,
    coarea_sweep,
    gamma_h_eval,
    lipschitz_estimate,
    property_report,
    slice_minus,
    slice_plus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

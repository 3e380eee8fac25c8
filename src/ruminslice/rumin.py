"""The Rumin complex on H^n over polynomial coefficients.

Degrees k <= n carry quotient classes modulo the contact ideal
I^k = {alpha ^ theta + beta ^ dtheta}; degrees k >= n+1 carry elements of
J^k = {phi : phi ^ theta = 0 and phi ^ dtheta = 0}.  A Low class is held
by its unique primitive horizontal representative: strip the theta
blades, then project out the image of the Lefschetz map L(beta) =
dtheta ^ beta, exactly, one polynomial monomial at a time.

The three differentials are dispatched by degree:

    k < n    [alpha] -> [d alpha]                        (first order)
    k = n    [alpha] -> d(alpha + theta ^ scr_L(alpha))  (second order)
    k > n    phi     -> d phi, restricted to J           (first order)

with scr_L(alpha) = L^(-1)( -(d alpha) restricted to horizontal blades ).
The middle lift ``alpha + theta ^ scr_L(alpha)`` places theta on the
left; for n = 1 this agrees with the usual ``scr_L(alpha) ^ theta``
spelling, and for every n it is the unique correction making the image
land in J^(n+1).  scr_L is total on grade-n forms: on a pure theta part
theta ^ beta it returns the horizontal solution of L(u) = -L(beta),
so the lift cancels theta parts automatically.

L, its middle inverse and the primitive projection are fixed linear maps
on each monomial's vector of blade coefficients.  Their exact matrices
are built once per (n, grade) from one table of constant generators
(:func:`_generator_columns`, Covector wedges with theta and dtheta) and
stored as sparse rows, so a monomial costs one product per nonzero
entry.  Every output is still checked: ``L_inv`` verifies dtheta ^ u = w,
and every high-degree class passes ``is_in_J``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .algebra import Covector, all_blades, wedge
from .errors import InternalInvariantError, ParameterError
from .forms import PolyForm, d_poly, exterior_d, wedge_forms
from .heis import HeisParams
from .polys import Poly


# -- blade space tables -------------------------------------------------


@lru_cache(maxsize=None)
def horizontal_blades(n: int, grade: int) -> tuple:
    """Sorted blades of the given grade over the 2n horizontal indices."""
    if grade < 0:
        return ()
    return tuple(all_blades(2 * n, grade))


@lru_cache(maxsize=None)
def full_blades(n: int, grade: int) -> tuple:
    if grade < 0 or grade > 2 * n + 1:
        return ()
    return tuple(all_blades(2 * n + 1, grade))


@lru_cache(maxsize=None)
def _generator_columns(n: int, generator: str, grade: int, horizontal: bool) -> tuple:
    """Columns of blade ^ theta or blade ^ dtheta, one per source blade.

    The source blades are the ``grade``-blades (horizontal ones only when
    ``horizontal``); each column holds the constant coefficients of the
    wedge over the target blades of grade ``grade + 1`` (theta) or
    ``grade + 2`` (dtheta), horizontal or full as the sources are.  The
    one table behind the ideal generators, the Lefschetz matrices and
    the J-space basis.
    """
    dim = 2 * n + 1
    if generator == "theta":
        factor, step = Covector.blade(dim, (2 * n,)), 1
    else:
        factor, step = Covector(dim, 2, {(j, n + j): Fraction(-1) for j in range(n)}), 2
    blades = horizontal_blades if horizontal else full_blades
    targets = blades(n, grade + step)
    columns = []
    for blade in blades(n, grade):
        image = wedge(Covector.blade(dim, blade), factor)
        columns.append(tuple(image.coefficient(b) for b in targets))
    return tuple(columns)


@lru_cache(maxsize=None)
def _middle_inverse_rows(n: int) -> tuple:
    """Sparse rows of the inverse of L on horizontal (n-1)-forms.

    L maps the horizontal (n-1)-blades onto the (n+1)-blades by a square,
    invertible matrix; its inverse is computed once per n and reused for
    every monomial solve.
    """
    columns = _generator_columns(n, "dtheta", n - 1, True)
    rows = linalg.transpose(columns)
    if len(rows) != len(columns):
        raise InternalInvariantError("Lefschetz middle matrix is not square")
    return linalg.sparse_rows(linalg.invert(rows))


# -- per-monomial vectorization ------------------------------------------


def _monomial_vectors(form: PolyForm, blade_index: dict):
    """Split a form into {exponent tuple: coefficient vector over blades}."""
    slices = {}
    width = len(blade_index)
    for blade, poly in form.coeffs.items():
        col = blade_index.get(blade)
        if col is None:
            raise InternalInvariantError(f"unexpected blade {blade!r}")
        for expo, coef in poly.terms.items():
            vec = slices.get(expo)
            if vec is None:
                vec = [Fraction(0)] * width
                slices[expo] = vec
            vec[col] = coef
    return slices


def _form_from_vectors(params: HeisParams, grade: int, blades, slices) -> PolyForm:
    coeffs = {}
    for expo, vec in slices.items():
        for blade, value in zip(blades, vec):
            if value:
                coeffs.setdefault(blade, {})[expo] = value
    return _form_from_terms(params, grade, coeffs)


def _form_from_terms(params: HeisParams, grade: int, terms: dict) -> PolyForm:
    """The form with coefficient dicts ``{blade: {expo: nonzero Fraction}}``."""
    dim = params.dim
    return PolyForm._trusted(params, grade,
                             {b: Poly._trusted(dim, t) for b, t in terms.items()})


# -- contact ideal membership ---------------------------------------------


@lru_cache(maxsize=None)
def _ideal_matrix(n: int, grade: int):
    """Columns of (alpha ^ theta, beta ^ dtheta) generators over k-blades."""
    columns = (_generator_columns(n, "theta", grade - 1, False)
               + _generator_columns(n, "dtheta", grade - 2, False))
    tags = tuple([("alpha", b) for b in full_blades(n, grade - 1)]
                 + [("beta", b) for b in full_blades(n, grade - 2)])
    rows = linalg.transpose(columns) if columns else []
    return rows, tags


def is_in_I(omega: PolyForm):
    """Decide omega = alpha ^ theta + beta ^ dtheta by exact linear solve.

    Returns (flag, alpha, beta); the witnesses are None when the answer
    is negative or the corresponding grade is empty.
    """
    params = omega.params
    n = params.n
    k = omega.grade
    if k == 0:
        return (omega.is_zero(), None, None)
    if omega.is_zero():
        return (True, PolyForm.zero(params, k - 1),
                PolyForm.zero(params, k - 2) if k >= 2 else None)
    rows, tags = _ideal_matrix(n, k)
    blades = full_blades(n, k)
    blade_index = {b: i for i, b in enumerate(blades)}
    slices = _monomial_vectors(omega, blade_index)
    alpha_terms = {}
    beta_terms = {}
    for expo, vec in slices.items():
        if not rows:
            return (False, None, None)
        solution = linalg.solve(rows, vec)
        if solution is None:
            return (False, None, None)
        for value, (kind, blade) in zip(solution, tags):
            if value:
                store = alpha_terms if kind == "alpha" else beta_terms
                store.setdefault(blade, {})[expo] = value
    alpha = _form_from_terms(params, k - 1, alpha_terms)
    beta = _form_from_terms(params, k - 2, beta_terms) if k >= 2 else None
    return (True, alpha, beta)


def is_in_J(omega: PolyForm) -> bool:
    """True iff omega ^ theta and omega ^ dtheta both vanish identically."""
    params = omega.params
    if not wedge_forms(omega, PolyForm.theta(params)).is_zero():
        return False
    return wedge_forms(omega, PolyForm.dtheta(params)).is_zero()


# -- canonical quotient representatives -----------------------------------


@lru_cache(maxsize=None)
def _primitive_projection(n: int, grade: int):
    """Sparse rows of the projection onto the image of L in horizontal k-forms."""
    columns = _generator_columns(n, "dtheta", grade - 2, True)
    if not columns:
        return None
    return linalg.sparse_rows(linalg.column_space_projection(columns))


def canonical_rep(omega: PolyForm) -> PolyForm:
    """Primitive horizontal representative of [omega] in Omega^k / I^k.

    Strips theta blades, then removes the exact orthogonal projection
    onto dtheta ^ (horizontal (k-2)-forms), monomial by monomial: each
    monomial's coefficient vector is multiplied by the cached sparse
    rows of the projection.  Two forms are congruent mod I^k iff their
    representatives coincide.
    """
    params = omega.params
    n = params.n
    k = omega.grade
    if k > n:
        raise ParameterError(f"canonical representative needs grade <= n, got {k}")
    horizontal = omega.strip_theta()
    projection = _primitive_projection(n, k)
    if projection is None:
        return horizontal
    blades = horizontal_blades(n, k)
    blade_index = {b: i for i, b in enumerate(blades)}
    slices = _monomial_vectors(horizontal, blade_index)
    out = {}
    for expo, vec in slices.items():
        shadow = linalg.sparse_mat_vec(projection, vec)
        out[expo] = [a - b for a, b in zip(vec, shadow)]
    return _form_from_vectors(params, k, blades, out)


# -- Lefschetz operator ----------------------------------------------------


def L_apply(beta: PolyForm) -> PolyForm:
    """L(beta) = dtheta ^ beta on horizontal forms."""
    if not beta.is_horizontal():
        raise ParameterError("Lefschetz operator expects a horizontal form")
    return wedge_forms(PolyForm.dtheta(beta.params), beta)


def L_inv(w: PolyForm) -> PolyForm:
    """Solve dtheta ^ u = w for horizontal u of grade n-1, exactly.

    Defined for horizontal w of grade n+1, where L is an isomorphism.
    Each monomial's coefficient vector is multiplied by the cached sparse
    rows of the middle inverse, and the result is verified: dtheta ^ u
    must equal w, else :class:`InternalInvariantError`.
    """
    params = w.params
    n = params.n
    if w.grade != n + 1:
        raise ParameterError(f"L_inv expects grade {n + 1}, got {w.grade}")
    if not w.is_horizontal():
        raise ParameterError("L_inv expects a horizontal form")
    inverse = _middle_inverse_rows(n)
    source = horizontal_blades(n, n - 1)
    target = horizontal_blades(n, n + 1)
    blade_index = {b: i for i, b in enumerate(target)}
    slices = _monomial_vectors(w, blade_index)
    out = {expo: linalg.sparse_mat_vec(inverse, vec) for expo, vec in slices.items()}
    result = _form_from_vectors(params, n - 1, source, out)
    if not wedge_forms(PolyForm.dtheta(params), result) == w:
        raise InternalInvariantError("Lefschetz solve failed to verify")
    return result


def script_L(alpha: PolyForm) -> PolyForm:
    """scr_L(alpha) = L^(-1)( -(d alpha)|horizontal ) for grade-n forms."""
    params = alpha.params
    if alpha.grade != params.n:
        raise ParameterError(f"scr_L expects grade {params.n}, got {alpha.grade}")
    restricted = exterior_d(alpha).strip_theta()
    return L_inv(-restricted)


def middle_lift(alpha: PolyForm) -> PolyForm:
    """The J-compatible lift alpha + theta ^ scr_L(alpha)."""
    correction = wedge_forms(PolyForm.theta(alpha.params), script_L(alpha))
    return alpha + correction


# -- classes and differentials ---------------------------------------------


@dataclass(frozen=True)
class RuminClass:
    """Element of the complex at some degree, held by a normal form.

    Low regime (degree <= n): the payload is the primitive horizontal
    representative.  High regime (degree >= n+1): the payload is a form
    certified to lie in J^degree.
    """

    params: HeisParams
    degree: int
    payload: PolyForm

    @property
    def is_low(self) -> bool:
        return self.degree <= self.params.n

    def __eq__(self, other):
        return (
            isinstance(other, RuminClass)
            and self.params == other.params
            and self.degree == other.degree
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((self.params, self.degree, self.payload))


def rumin_class(params: HeisParams, degree: int, form: PolyForm) -> RuminClass:
    """Build a class from any representative / J element of the degree."""
    if form.params != params:
        raise ParameterError("form over a different group")
    if form.grade != degree:
        raise ParameterError(f"form grade {form.grade} does not match degree {degree}")
    if not 0 <= degree <= 2 * params.n + 2:
        raise ParameterError(f"degree {degree} out of range")
    if degree <= params.n:
        return RuminClass(params, degree, canonical_rep(form))
    if not is_in_J(form):
        raise ParameterError(f"form is not in J^{degree}")
    return RuminClass(params, degree, form)


def _certified_high(params: HeisParams, degree: int, form: PolyForm) -> RuminClass:
    if not is_in_J(form):
        raise InternalInvariantError(
            f"differential output escaped J^{degree}; this is a bug"
        )
    return RuminClass(params, degree, form)


def d_c(c: RuminClass) -> RuminClass:
    """The Rumin differential at any degree; output is degree + 1."""
    params = c.params
    n = params.n
    k = c.degree
    if k < n:
        return rumin_class(params, k + 1, exterior_d(c.payload))
    if k == n:
        image = exterior_d(middle_lift(c.payload))
        return _certified_high(params, k + 1, image)
    return _certified_high(params, k + 1, exterior_d(c.payload))


def g_times(g: Poly, c: RuminClass) -> RuminClass:
    """Multiply a class by a polynomial function."""
    scaled = c.payload.scale(g)
    if c.is_low:
        return rumin_class(c.params, c.degree, scaled)
    return _certified_high(c.params, c.degree, scaled)


def leibniz_defect(g: Poly, c: RuminClass) -> PolyForm:
    """d_c(g c) - g d_c(c), as a form in the codomain normal space."""
    first = d_c(g_times(g, c)).payload
    second = d_c(c).payload.scale(g)
    if c.degree + 1 <= c.params.n:
        second = canonical_rep(second)
    return first - second


# -- closed forms of the commutation identities -----------------------------


def leibniz_expected(g: Poly, c: RuminClass) -> PolyForm:
    """The closed form the defect must equal, per regime."""
    params = c.params
    n = params.n
    k = c.degree
    omega = c.payload
    dg = d_poly(params, g)
    if k < n:
        return canonical_rep(wedge_forms(dg, omega))
    if k > n:
        return wedge_forms(dg, omega)
    return middle_commutator_form(g, omega)


def middle_commutator_form(g: Poly, omega: PolyForm) -> PolyForm:
    """dg ^ (omega + theta ^ scr_L omega) + d(theta ^ (scr_L(g omega) - g scr_L(omega)))."""
    params = omega.params
    theta = PolyForm.theta(params)
    dg = d_poly(params, g)
    bracket = script_L(omega.scale(g)) - script_L(omega).scale(g)
    first = wedge_forms(dg, omega + wedge_forms(theta, script_L(omega)))
    second = exterior_d(wedge_forms(theta, bracket))
    return first + second


def lefschetz_commutator(g: Poly, omega: PolyForm) -> tuple:
    """Both sides of scr_L(g w) - g scr_L(w) = L^(-1)( -(dg ^ w)|horizontal )."""
    lhs = script_L(omega.scale(g)) - script_L(omega).scale(g)
    rhs = L_inv(-wedge_forms(d_poly(omega.params, g), omega).strip_theta())
    return lhs, rhs


def two_piece_form(g: Poly, omega: PolyForm) -> PolyForm:
    """The middle commutator with the bracket replaced by its closed form."""
    params = omega.params
    theta = PolyForm.theta(params)
    dg = d_poly(params, g)
    bracket = L_inv(-wedge_forms(dg, omega).strip_theta())
    first = wedge_forms(dg, omega + wedge_forms(theta, script_L(omega)))
    second = exterior_d(wedge_forms(theta, bracket))
    return first + second

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

The middle inverse of L, the primitive projection and the ideal solve
behind ``is_in_I`` are fixed linear maps on each monomial's vector of
blade coefficients.  Their exact matrices are built once per (n, grade)
from one table of constant generators (:func:`_generator_columns`,
Covector wedges with theta and dtheta) and stored as integer sparse
rows over one denominator per table; the ideal solve's rows are read off
one Gauss-Jordan pass on the generator matrix (:func:`_ideal_solver`).
One kernel, :func:`_apply`, multiplies every monomial's int vector by
such rows, at one int product per nonzero entry.  Every
output is still checked: ``L_inv`` verifies dtheta ^ u = w, and every
high-degree class passes ``is_in_J``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .algebra import Covector, all_blades, wedge
from .errors import InternalInvariantError, ParameterError
from .forms import PolyForm, _dtheta, _theta, d_poly, exterior_d, wedge_forms
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
    """The sparse table of the inverse of L on horizontal (n-1)-forms.

    L maps the horizontal (n-1)-blades onto the (n+1)-blades by a square,
    invertible matrix; its inverse is computed once per n and reused for
    every monomial solve.
    """
    columns = _generator_columns(n, "dtheta", n - 1, True)
    rows = linalg.transpose(columns)
    if len(rows) != len(columns):
        raise InternalInvariantError("Lefschetz middle matrix is not square")
    return linalg.sparse_rows(linalg.invert(rows))


# -- the per-monomial kernel -----------------------------------------------


def _monomial_vectors(form: PolyForm, blades: tuple) -> tuple:
    """Split a form into ({exponent tuple: int vector over ``blades``}, den),
    numerators over the lcm of the coefficient denominators."""
    index = {b: i for i, b in enumerate(blades)}
    width = len(blades)
    den = math.lcm(*[poly.den for poly in form.coeffs.values()])
    slices = {}
    for blade, poly in form.coeffs.items():
        col = index.get(blade)
        if col is None:
            raise InternalInvariantError(f"unexpected blade {blade!r}")
        scale = den // poly.den
        for expo, num in poly.nums.items():
            vec = slices.get(expo)
            if vec is None:
                vec = slices[expo] = [0] * width
            vec[col] = num * scale
    return slices, den


def _apply(params: HeisParams, table: tuple, vectors: tuple, grade: int,
           blades: tuple) -> PolyForm:
    """The grade form whose monomial vectors are ``table`` times those of ``vectors``.

    ``table`` is :func:`linalg.sparse_rows` output, one row per blade of
    ``blades``; ``vectors`` is :func:`_monomial_vectors` output.  The
    products are numerators over the product of the two dens.
    """
    rows, table_den = table
    slices, form_den = vectors
    terms = {}
    for expo, vec in slices.items():
        for blade, value in zip(blades, linalg.sparse_mat_vec(rows, vec)):
            if value:
                terms.setdefault(blade, {})[expo] = value
    dim = params.dim
    den = form_den * table_den
    return PolyForm._trusted(params, grade,
                             {b: Poly._trusted(dim, t, den) for b, t in terms.items()})


# -- contact ideal membership ---------------------------------------------


@lru_cache(maxsize=None)
def _ideal_columns(n: int, grade: int) -> tuple:
    """Columns of the theta ^ blade, then dtheta ^ blade, generators over k-blades."""
    return (_generator_columns(n, "theta", grade - 1, False)
            + _generator_columns(n, "dtheta", grade - 2, False))


@lru_cache(maxsize=None)
def _ideal_solver(n: int, grade: int) -> tuple:
    """The (alpha table, beta table, check rows) of the ideal solve A x = b.

    A has the :func:`_ideal_columns` as columns.  One Gauss-Jordan pass on
    [A | 1], with pivots sought in A's columns only, leaves [R | E]; the
    row operations depend on A alone, so E b is the reduced right-hand
    side that :func:`linalg.solve` builds for b.  Row i of E b below the
    rank is the value of the i-th pivot variable (free variables are 0),
    split into the alpha (theta) and beta (dtheta) unknowns; the rows of E
    past the rank vanish on b exactly when A x = b is consistent.  The
    alpha and beta tables share E's den; the check rows need none.
    """
    columns = _ideal_columns(n, grade)
    size = len(full_blades(n, grade))
    width = len(columns)
    work, pivots = linalg.rref([row + [int(i == j) for j in range(size)]
                                for i, row in enumerate(linalg.transpose(columns))], width)
    reduction, den = linalg.sparse_rows(row[width:] for row in work)
    solution = [()] * width
    for row, c in zip(reduction, pivots):
        solution[c] = row
    split = len(full_blades(n, grade - 1))
    return ((tuple(solution[:split]), den), (tuple(solution[split:]), den),
            reduction[len(pivots):])


def is_in_I(omega: PolyForm):
    """Decide omega = alpha ^ theta + beta ^ dtheta by an exact linear solve.

    Each monomial's coefficient vector goes through the cached rows of
    :func:`_ideal_solver`.  Returns (flag, alpha, beta); the witnesses
    are None when the answer is negative, and beta is None below grade 2.
    """
    params = omega.params
    n = params.n
    k = omega.grade
    if k == 0:
        return (omega.is_zero(), None, None)
    alpha_table, beta_table, checks = _ideal_solver(n, k)
    vectors = _monomial_vectors(omega, full_blades(n, k))
    if any(any(linalg.sparse_mat_vec(checks, vec)) for vec in vectors[0].values()):
        return (False, None, None)
    alpha = _apply(params, alpha_table, vectors, k - 1, full_blades(n, k - 1))
    beta = _apply(params, beta_table, vectors, k - 2, full_blades(n, k - 2)) if k >= 2 else None
    return (True, alpha, beta)


def is_in_J(omega: PolyForm) -> bool:
    """True iff omega ^ theta and omega ^ dtheta both vanish identically."""
    params = omega.params
    if not wedge_forms(omega, _theta(params)).is_zero():
        return False
    return wedge_forms(omega, _dtheta(params)).is_zero()


# -- canonical quotient representatives -----------------------------------


@lru_cache(maxsize=None)
def _primitive_projection(n: int, grade: int):
    """The sparse table of the projection onto the image of L in horizontal k-forms."""
    columns = _generator_columns(n, "dtheta", grade - 2, True)
    if not columns:
        return None
    return linalg.sparse_rows(linalg.column_space_projection(columns))


def canonical_rep(omega: PolyForm) -> PolyForm:
    """Primitive horizontal representative of [omega] in Omega^k / I^k.

    Strips theta blades, then removes the exact orthogonal projection
    onto dtheta ^ (horizontal (k-2)-forms), monomial by monomial: each
    monomial's coefficient vector is multiplied by the cached sparse
    table of the projection.  Two forms are congruent mod I^k iff their
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
    return horizontal - _apply(params, projection, _monomial_vectors(horizontal, blades),
                               k, blades)


# -- Lefschetz operator ----------------------------------------------------


def L_apply(beta: PolyForm) -> PolyForm:
    """L(beta) = dtheta ^ beta on horizontal forms."""
    if not beta.is_horizontal():
        raise ParameterError("Lefschetz operator expects a horizontal form")
    return wedge_forms(_dtheta(beta.params), beta)


def L_inv(w: PolyForm) -> PolyForm:
    """Solve dtheta ^ u = w for horizontal u of grade n-1, exactly.

    Defined for horizontal w of grade n+1, where L is an isomorphism.
    Each monomial's coefficient vector is multiplied by the cached sparse
    table of the middle inverse, and the result is verified: dtheta ^ u
    must equal w, else :class:`InternalInvariantError`.
    """
    params = w.params
    n = params.n
    if w.grade != n + 1:
        raise ParameterError(f"L_inv expects grade {n + 1}, got {w.grade}")
    if not w.is_horizontal():
        raise ParameterError("L_inv expects a horizontal form")
    slices = _monomial_vectors(w, horizontal_blades(n, n + 1))
    result = _apply(params, _middle_inverse_rows(n), slices, n - 1, horizontal_blades(n, n - 1))
    if not wedge_forms(_dtheta(params), result) == w:
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
    correction = wedge_forms(_theta(alpha.params), script_L(alpha))
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
    if c.degree == c.params.n:
        return middle_commutator_form(g, c.payload)
    image = wedge_forms(d_poly(c.params, g), c.payload)
    return canonical_rep(image) if c.is_low else image


def _bracket(g: Poly, omega: PolyForm) -> PolyForm:
    """scr_L(g omega) - g scr_L(omega), by definition."""
    return script_L(omega.scale(g)) - script_L(omega).scale(g)


def _closed_bracket(dg: PolyForm, omega: PolyForm) -> PolyForm:
    """The bracket's closed form L^(-1)( -(dg ^ omega)|horizontal )."""
    return L_inv(-wedge_forms(dg, omega).strip_theta())


def _middle_form(dg: PolyForm, omega: PolyForm, bracket: PolyForm) -> PolyForm:
    """dg ^ (omega + theta ^ scr_L omega) + d(theta ^ bracket)."""
    theta = _theta(omega.params)
    first = wedge_forms(dg, omega + wedge_forms(theta, script_L(omega)))
    return first + exterior_d(wedge_forms(theta, bracket))


def middle_commutator_form(g: Poly, omega: PolyForm) -> PolyForm:
    """dg ^ (omega + theta ^ scr_L omega) + d(theta ^ (scr_L(g omega) - g scr_L(omega)))."""
    return _middle_form(d_poly(omega.params, g), omega, _bracket(g, omega))


def lefschetz_commutator(g: Poly, omega: PolyForm) -> tuple:
    """Both sides of scr_L(g w) - g scr_L(w) = L^(-1)( -(dg ^ w)|horizontal )."""
    return _bracket(g, omega), _closed_bracket(d_poly(omega.params, g), omega)


def two_piece_form(g: Poly, omega: PolyForm) -> PolyForm:
    """The middle commutator with the bracket replaced by its closed form."""
    dg = d_poly(omega.params, g)
    return _middle_form(dg, omega, _closed_bracket(dg, omega))

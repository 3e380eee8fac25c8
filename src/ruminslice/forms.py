"""Differential forms with polynomial coefficients in the contact coframe.

A :class:`PolyForm` of grade k over H^n maps coframe blades to
polynomials in (x_1..x_n, y_1..y_n, t).  The coframe is
dx_1..dx_n, dy_1..dy_n, theta with

    theta = dt - (1/2) sum_j (x_j dy_j - y_j dx_j),
    d theta = - sum_j dx_j ^ dy_j.

The exterior derivative follows the Cartan rule in this coframe, with
df = sum_j (X_j f dx_j + Y_j f dy_j) + (T f) theta expanded through the
left-invariant derivations.  :func:`exterior_d` applies that rule one
term c x^e e_B at a time: the frame derivations act on the exponent
tuple e by integer operations, and a table cached per blade B lists the
signed target blades of dw_j ^ e_B and of d(e_B).  Everything is exact
over the rationals, on integer numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import Covector, all_blades, wedge_blades
from .errors import DimensionMismatchError, GradeMismatchError, ParameterError
from .heis import HeisParams, Point
from .polys import Poly


def derive_W(params: HeisParams, j: int, f: Poly) -> Poly:
    """Apply the frame derivation W_j (0-based index) to a polynomial.

    W_j = X_{j+1} for j < n, Y_{j-n+1} for n <= j < 2n, and T for j = 2n:

        X_j f = d f / d x_j - (1/2) y_j  d f / d t
        Y_j f = d f / d y_j + (1/2) x_j  d f / d t
        T f   = d f / d t
    """
    n = params.n
    nvars = params.dim
    t_index = 2 * n
    if not 0 <= j <= 2 * n:
        raise ParameterError(f"frame index {j} out of range for H^{n}")
    if f.nvars != nvars:
        raise DimensionMismatchError(f"polynomial in {f.nvars} variables over H^{n}")
    if j == t_index:
        return f.partial(t_index)
    ft = f.partial(t_index)
    if j < n:
        return f.partial(j) - Poly.var(nvars, n + j) * ft * Fraction(1, 2)
    return f.partial(j) + Poly.var(nvars, j - n) * ft * Fraction(1, 2)


class PolyForm:
    """Grade-k differential form with polynomial coefficients."""

    __slots__ = ("params", "grade", "coeffs")

    def __init__(self, params: HeisParams, grade: int, coeffs=None):
        if grade < 0:
            raise ParameterError(f"negative grade {grade}")
        self.params = params
        self.grade = grade
        clean = {}
        if coeffs:
            for blade, poly in coeffs.items():
                blade = tuple(blade)
                if not isinstance(poly, Poly):
                    poly = Poly.const(params.dim, poly)
                if poly.is_zero():
                    continue
                if poly.nvars != params.dim:
                    raise DimensionMismatchError(
                        f"coefficient in {poly.nvars} variables over H^{params.n}")
                if len(blade) != grade or list(blade) != sorted(set(blade)):
                    raise ParameterError(f"bad blade {blade!r} for grade {grade}")
                if blade and (blade[0] < 0 or blade[-1] >= params.dim):
                    raise ParameterError(f"blade {blade!r} out of range")
                clean[blade] = poly
        self.coeffs = clean

    @classmethod
    def _trusted(cls, params: HeisParams, grade: int, coeffs: dict) -> "PolyForm":
        """Wrap ``coeffs`` without validation.

        The caller guarantees sorted in-range blades of length ``grade``
        mapped to nonzero :class:`Poly` values over ``params.dim``
        variables, and hands over ownership of the dict.
        """
        form = object.__new__(cls)
        form.params = params
        form.grade = grade
        form.coeffs = coeffs
        return form

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, params: HeisParams, grade: int) -> "PolyForm":
        return cls(params, grade)

    @classmethod
    def from_poly(cls, params: HeisParams, poly: Poly) -> "PolyForm":
        return cls(params, 0, {(): poly})

    @classmethod
    def single(cls, params: HeisParams, blade, poly) -> "PolyForm":
        blade = tuple(blade)
        return cls(params, len(blade), {blade: poly})

    @classmethod
    def theta(cls, params: HeisParams) -> "PolyForm":
        return cls.single(params, (2 * params.n,), Poly.const(params.dim, 1))

    @classmethod
    def dtheta(cls, params: HeisParams) -> "PolyForm":
        """d theta = - sum_j dx_j ^ dy_j, a constant horizontal 2-form."""
        n = params.n
        coeffs = {(j, n + j): Poly.const(params.dim, -1) for j in range(n)}
        return cls(params, 2, coeffs)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, blade) -> Poly:
        return self.coeffs.get(tuple(blade), Poly.zero(self.params.dim))

    def _compatible(self, other: "PolyForm", operation):
        if not isinstance(other, PolyForm):
            raise ParameterError(f"expected PolyForm, got {type(other).__name__}")
        if self.params != other.params:
            raise DimensionMismatchError("forms over different groups")
        if operation in ("+", "-") and self.grade != other.grade:
            raise GradeMismatchError(self.grade, other.grade, operation)

    def __add__(self, other):
        self._compatible(other, "+")
        coeffs = dict(self.coeffs)
        for blade, poly in other.coeffs.items():
            new = coeffs.get(blade)
            new = poly if new is None else new + poly
            if new.is_zero():
                coeffs.pop(blade, None)
            else:
                coeffs[blade] = new
        return PolyForm._trusted(self.params, self.grade, coeffs)

    def __neg__(self):
        return PolyForm._trusted(self.params, self.grade,
                                 {b: -p for b, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "PolyForm":
        """Multiply by a polynomial or rational scalar."""
        if not isinstance(factor, Poly):
            factor = Poly.const(self.params.dim, factor)
        coeffs = {b: p * factor for b, p in self.coeffs.items()}
        # a product of nonzero polynomials is nonzero: only a zero factor
        # leaves zero coefficients
        return PolyForm._trusted(self.params, self.grade, {} if factor.is_zero() else coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, PolyForm)
            and self.params == other.params
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.params, self.grade, frozenset(self.coeffs.items())))

    def strip_theta(self) -> "PolyForm":
        """Drop every blade containing theta (the horizontal restriction)."""
        vertical = self.params.dim - 1
        return PolyForm._trusted(self.params, self.grade,
                                 {b: p for b, p in self.coeffs.items() if vertical not in b})

    def is_horizontal(self) -> bool:
        vertical = self.params.dim - 1
        return all(vertical not in b for b in self.coeffs)

    def evaluate_at(self, p: Point) -> Covector:
        """Substitute a point into every coefficient; constant covector."""
        if p.n != self.params.n:
            raise DimensionMismatchError("point and form over different groups")
        coords = p.coords()
        out = {}
        for blade, poly in self.coeffs.items():
            value = poly.evaluate(coords)
            if value != 0:
                out[blade] = value
        return Covector(self.params.dim, self.grade, out)

    def max_coeff_degree(self) -> int:
        return max((p.total_degree() for p in self.coeffs.values()), default=0)

    def __repr__(self):
        if not self.coeffs:
            return f"PolyForm(0, grade={self.grade})"
        bits = [f"[{p!r}]*e{''.join(str(i + 1) for i in b)}" for b, p in sorted(self.coeffs.items())]
        return "PolyForm(" + " + ".join(bits) + ")"


@lru_cache(maxsize=None)
def _theta(params: HeisParams) -> PolyForm:
    """theta over ``params``, built once and shared by the Rumin routines.

    No routine changes a form's ``coeffs`` in place, so sharing is safe;
    :meth:`PolyForm.theta` still returns a fresh form.
    """
    return PolyForm.theta(params)


@lru_cache(maxsize=None)
def _dtheta(params: HeisParams) -> PolyForm:
    """d theta over ``params``, built once and shared as :func:`_theta` is."""
    return PolyForm.dtheta(params)


def wedge_forms(a: PolyForm, b: PolyForm) -> PolyForm:
    """Wedge product, bilinear over the polynomial coefficients."""
    a._compatible(b, "^")
    grade = a.grade + b.grade
    if grade > a.params.dim:
        return PolyForm(a.params, grade)
    out = {}
    for left, pl in a.coeffs.items():
        for right, pr in b.coeffs.items():
            merged = wedge_blades(left, right)
            if merged is None:
                continue
            sign, blade = merged
            term = pl * pr
            if sign < 0:
                term = -term
            new = out.get(blade)
            new = term if new is None else new + term
            if new.is_zero():
                out.pop(blade, None)
            else:
                out[blade] = new
    return PolyForm._trusted(a.params, grade, out)


def d_poly(params: HeisParams, f: Poly) -> PolyForm:
    """df = sum_j (W_j f) dw_j in the contact coframe."""
    if f.nvars != params.dim:
        raise DimensionMismatchError(f"polynomial in {f.nvars} variables over H^{params.n}")
    return exterior_d(PolyForm.from_poly(params, f))


@lru_cache(maxsize=None)
def _d_table(n: int, blade: tuple) -> tuple:
    """The blades that d(f e_B) reaches, with their signs.

    Returns ``(wedges, dtheta)``: ``wedges`` holds ``(j, sign, target)``
    with dw_j ^ e_B = sign e_target for every frame index j not in B;
    ``dtheta`` holds ``(sign, target)`` with d(e_B) = sum sign e_target,
    nonempty only when B ends in theta.  For B = B' + (theta,),
    d(e_B) = (-1)^(k-1) e_B' ^ dtheta and dtheta = -sum_j dx_j ^ dy_j.
    """
    dim = 2 * n + 1
    wedges = []
    for j in range(dim):
        merged = wedge_blades((j,), blade)
        if merged is not None:
            wedges.append((j, *merged))
    dtheta = []
    if blade and blade[-1] == 2 * n:
        outer = 1 if len(blade) % 2 else -1
        for j in range(n):
            merged = wedge_blades(blade[:-1], (j, n + j))
            if merged is not None:
                dtheta.append((-outer * merged[0], merged[1]))
    return tuple(wedges), tuple(dtheta)


def _add_term(acc: dict, expo: tuple, value: int):
    old = acc.get(expo)
    acc[expo] = value if old is None else old + value


def exterior_d(omega: PolyForm) -> PolyForm:
    """Cartan-rule exterior derivative in the contact coframe.

    d(f e_B) = sum_j (W_j f) dw_j ^ e_B + f d(e_B) with d(dx_j) =
    d(dy_j) = 0 and d(theta) = -sum dx_j ^ dy_j; blades carry theta at
    most once, as their last index.  The rule is applied per term
    c x^e e_B, where the derivations act on the exponent tuple e:

        X_j: e_j x^(e - 1_j) - (1/2) e_t y_j x^(e - 1_t)
        Y_j: e_j x^(e - 1_j) + (1/2) e_t x_j x^(e - 1_t)
        T:   e_t x^(e - 1_t)

    and the signed target blades come from :func:`_d_table`.  The terms
    of each target blade accumulate as int numerators in one dict, over
    twice the lcm of the input dens so the halves stay ints.
    """
    params = omega.params
    n = params.n
    t = 2 * n
    den = 2 * math.lcm(*[poly.den for poly in omega.coeffs.values()])
    out = {}
    for blade, poly in omega.coeffs.items():
        wedges, dtheta = _d_table(n, blade)
        wedge_accs = [(j, sign, out.setdefault(target, {})) for j, sign, target in wedges]
        dtheta_accs = [(sign, out.setdefault(target, {})) for sign, target in dtheta]
        scale = den // poly.den
        for expo, num in poly.nums.items():
            coef = num * scale
            et = expo[t]
            if et:
                lowered = list(expo)
                lowered[t] -= 1
                t_value = coef * et
                half = t_value // 2
            for j, sign, acc in wedge_accs:
                if j == t:
                    if et:
                        _add_term(acc, tuple(lowered), t_value if sign > 0 else -t_value)
                    continue
                ej = expo[j]
                if ej:
                    shifted = list(expo)
                    shifted[j] -= 1
                    value = coef * ej
                    _add_term(acc, tuple(shifted), value if sign > 0 else -value)
                if et:
                    # X_j carries -(1/2) y_j T, Y_j carries +(1/2) x_j T
                    partner = j + n if j < n else j - n
                    shifted = list(lowered)
                    shifted[partner] += 1
                    _add_term(acc, tuple(shifted), half if (sign > 0) == (j >= n) else -half)
            for sign, acc in dtheta_accs:
                _add_term(acc, expo, coef if sign > 0 else -coef)
    dim = params.dim
    coeffs = {}
    for target, acc in out.items():
        nums = {e: c for e, c in acc.items() if c}
        if nums:
            coeffs[target] = Poly._trusted(dim, nums, den)
    return PolyForm._trusted(params, omega.grade + 1, coeffs)


def horizontal_gradient(params: HeisParams, f: Poly) -> tuple:
    """Coefficients (W_1 f, ..., W_2n f) of the horizontal gradient."""
    return tuple(derive_W(params, j, f) for j in range(2 * params.n))


def gradient_at(params: HeisParams, grad: tuple, p: Point):
    """The horizontal gradient at a point, as a grade-1 MultiVector.

    ``grad`` is the output of :func:`horizontal_gradient`; the result has
    coefficient W_j f(p) on the basis vector of index j (X_1..X_n, then
    Y_1..Y_n).  Public API.
    """
    from .algebra import MultiVector

    coords = p.coords()
    out = {}
    for j, poly in enumerate(grad):
        value = poly.evaluate(coords)
        if value != 0:
            out[(j,)] = value
    return MultiVector(params.dim, 1, out)


def random_poly(rng, params: HeisParams, max_degree=3, terms=4, coeff_bound=9) -> Poly:
    """Seeded random polynomial: integer coefficients in [-bound, bound].

    Terms are summed into one dict in draw order; a sum that cancels is
    removed, so the terms come out as from adding one-term polynomials.
    """
    nvars = params.dim
    coeffs = {}
    for _ in range(terms):
        expo = [0] * nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            expo[rng.randrange(nvars)] += 1
        coef = 0
        while coef == 0:
            coef = rng.randint(-coeff_bound, coeff_bound)
        key = tuple(expo)
        total = coeffs.get(key, 0) + coef
        if total:
            coeffs[key] = total
        else:
            del coeffs[key]
    return Poly._trusted(nvars, coeffs, 1)


def random_form(rng, params: HeisParams, grade: int, max_degree=3, terms=2) -> PolyForm:
    """Seeded random form with a polynomial on every blade of the grade."""
    coeffs = {}
    for blade in all_blades(params.dim, grade):
        coeffs[blade] = random_poly(rng, params, max_degree=max_degree, terms=terms)
    return PolyForm(params, grade, coeffs)

"""Randomized exact verification batteries for the complex and its lemmas.

Each battery runs seeded random cases and returns a :class:`Battery`
with one counter per named check.  Each check is one case function, run
``count`` times through one tally loop (:func:`_tally`); a case draws
its inputs from the battery's one generator, so a check's draw order is
its case function's, and the checks draw in the order they are tallied.
All identities are required to hold exactly over the rationals; a single
failure marks the battery failed.  The CLI prints the counters verbatim,
so equal seeds give byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache, partial

from . import linalg
from .forms import (
    PolyForm,
    _dtheta,
    _theta,
    exterior_d,
    random_form,
    random_poly,
    wedge_forms,
)
from .heis import HeisParams
from .polys import Poly
from .rumin import (
    RuminClass,
    _generator_columns,
    canonical_rep,
    d_c,
    horizontal_blades,
    is_in_J,
    lefschetz_commutator,
    leibniz_defect,
    leibniz_expected,
    middle_commutator_form,
    rumin_class,
    two_piece_form,
)


@dataclass
class Battery:
    title: str
    checks: list = field(default_factory=list)  # (name, passed_count, total)

    def record(self, name: str, passed: int, total: int):
        self.checks.append((name, passed, total))

    @property
    def ok(self) -> bool:
        return all(passed == total for _, passed, total in self.checks)

    def lines(self):
        out = [self.title]
        for name, passed, total in self.checks:
            mark = "ok" if passed == total else "FAIL"
            out.append(f"  {name}: {passed}/{total} exact [{mark}]")
        return out


# -- random generators ---------------------------------------------------


@lru_cache(maxsize=None)
def _j_space_basis(n: int, degree: int):
    """Basis of J^degree as theta ^ (kernel of L on horizontal forms)."""
    params = HeisParams(n)
    source = horizontal_blades(n, degree - 1)
    lefschetz = _generator_columns(n, "dtheta", degree - 1, True)
    kernel = linalg.nullspace(linalg.transpose(lefschetz), len(source))
    # theta ^ e_B = (-1)^|B| e_(B + theta): theta is the last coframe index
    sign = -1 if (degree - 1) % 2 else 1
    basis = []
    for vec in kernel:
        coeffs = {blade + (2 * n,): Poly.const(params.dim, sign * value)
                  for blade, value in zip(source, vec) if value != 0}
        basis.append(PolyForm(params, degree, coeffs))
    return tuple(basis)


def random_J_form(rng, params: HeisParams, degree: int, max_degree=3) -> PolyForm:
    """Random element of J^degree with polynomial coefficients."""
    total = PolyForm.zero(params, degree)
    for basis_form in _j_space_basis(params.n, degree):
        poly = random_poly(rng, params, max_degree=max_degree, terms=2)
        total = total + basis_form.scale(poly)
    return total


def random_I_form(rng, params: HeisParams, degree: int, max_degree=2) -> PolyForm:
    """Random element of I^degree: alpha ^ theta + beta ^ dtheta."""
    theta = _theta(params)
    dtheta = _dtheta(params)
    out = PolyForm.zero(params, degree)
    if degree >= 1:
        alpha = random_form(rng, params, degree - 1, max_degree=max_degree, terms=1)
        out = out + wedge_forms(alpha, theta)
    if degree >= 2:
        beta = random_form(rng, params, degree - 2, max_degree=max_degree, terms=1)
        out = out + wedge_forms(beta, dtheta)
    return out


def random_class(rng, params: HeisParams, degree: int) -> RuminClass:
    if degree <= params.n:
        return rumin_class(params, degree, random_form(rng, params, degree))
    return rumin_class(params, degree, random_J_form(rng, params, degree))


# -- batteries -------------------------------------------------------------


def _tally(battery: Battery, name: str, count: int, case) -> None:
    """Record how many of ``count`` calls of ``case()`` return True."""
    battery.record(name, sum(1 for _ in range(count) if case()), count)


def complex_battery(n: int, seed: int, count: int) -> Battery:
    """d_c o d_c = 0 at every degree, plus quotient well-definedness."""
    params = HeisParams(n)
    rng = random.Random(seed)
    battery = Battery(f"Rumin complex over H^{n} (seed {seed}, {count} cases per check)")
    top = 2 * n + 1

    def squares_to_zero(degree):
        return d_c(d_c(random_class(rng, params, degree))).payload.is_zero()

    def draw_shifted(degree):
        return random_form(rng, params, degree), random_I_form(rng, params, degree)

    def quotient_well_defined(degree):
        omega, shift = draw_shifted(degree)
        lhs = canonical_rep(exterior_d(omega + shift))
        return lhs == canonical_rep(exterior_d(omega)) and canonical_rep(shift).is_zero()

    def middle_class_independent():
        omega, shift = draw_shifted(n)
        return d_c(rumin_class(params, n, omega + shift)) == d_c(rumin_class(params, n, omega))

    def preserves_J(degree):
        return is_in_J(exterior_d(random_J_form(rng, params, degree)))

    for degree in range(0, top + 1):
        _tally(battery, f"dc o dc = 0 at degree {degree}", count,
               partial(squares_to_zero, degree))
    for degree in range(0, n):
        _tally(battery, f"quotient well-defined at degree {degree}", count,
               partial(quotient_well_defined, degree))
    _tally(battery, "middle operator is class-independent", count, middle_class_independent)
    for degree in range(n + 1, top + 1):
        _tally(battery, f"d preserves J at degree {degree}", count, partial(preserves_J, degree))
    return battery


def lemma_battery(n: int, seed: int, count: int) -> Battery:
    """The commutation identities behind the slicing mass bounds."""
    params = HeisParams(n)
    rng = random.Random(seed)
    battery = Battery(f"Lemma batteries over H^{n} (seed {seed}, {count} cases per check)")
    theta = _theta(params)

    def draw_class(degree):
        return random_poly(rng, params), random_class(rng, params, degree)

    def draw_middle(theta_free):
        """g and a grade-n form: theta-free, or theta ^ beta."""
        g = random_poly(rng, params)
        if theta_free:
            return g, random_form(rng, params, n).strip_theta()
        return g, wedge_forms(theta, random_form(rng, params, n - 1))

    def commutation(degree):
        g, c = draw_class(degree)
        return leibniz_defect(g, c) == leibniz_expected(g, c)

    def lefschetz(theta_free):
        lhs, rhs = lefschetz_commutator(*draw_middle(theta_free))
        return lhs == rhs and (theta_free or lhs.is_zero())

    def lands_in_J(theta_free):
        return is_in_J(middle_commutator_form(*draw_middle(theta_free)))

    def two_piece():
        g, c = draw_class(n)
        return leibniz_defect(g, c) == two_piece_form(g, c.payload)

    for degree in range(0, 2 * n + 1):
        regime = ("middle degree" if degree == n
                  else f"degree {degree} {'<' if degree < n else '>'} n")
        _tally(battery, f"commutation closed form, {regime}", count,
               partial(commutation, degree))
    for theta_free, claim in ((True, "closed form (theta-free)"),
                              (False, "vanishes on theta ^ beta")):
        _tally(battery, f"Lefschetz commutator {claim}", count, partial(lefschetz, theta_free))
    for theta_free, branch in ((True, "theta-free"), (False, "theta ^ beta")):
        _tally(battery, f"middle commutator lands in J ({branch} branch)", count,
               partial(lands_in_J, theta_free))
    _tally(battery, "two-piece middle form matches the defect", count, two_piece)
    return battery


def run_batteries(batteries) -> tuple:
    """Render batteries to text lines plus an overall flag."""
    lines = []
    ok = True
    for battery in batteries:
        lines.extend(battery.lines())
        ok = ok and battery.ok
    lines.append("RESULT PASS" if ok else "RESULT FAIL")
    return lines, ok

"""Randomized exact verification batteries for the complex and its lemmas.

Each battery runs seeded random cases and returns a :class:`Battery`
with one counter per named check.  All identities are required to hold
exactly over the rationals; a single failure marks the battery failed.
The CLI prints the counters verbatim, so equal seeds give byte-identical
reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from . import linalg
from .forms import PolyForm, exterior_d, random_form, random_poly, wedge_forms
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
    theta = PolyForm.theta(params)
    dtheta = PolyForm.dtheta(params)
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


def complex_battery(n: int, seed: int, count: int) -> Battery:
    """d_c o d_c = 0 at every degree, plus quotient well-definedness."""
    params = HeisParams(n)
    rng = random.Random(seed)
    battery = Battery(f"Rumin complex over H^{n} (seed {seed}, {count} cases per check)")
    top = 2 * n + 1
    for degree in range(0, top + 1):
        passed = 0
        for _ in range(count):
            c = random_class(rng, params, degree)
            if d_c(d_c(c)).payload.is_zero():
                passed += 1
        battery.record(f"dc o dc = 0 at degree {degree}", passed, count)

    for degree in range(0, n):
        passed = 0
        for _ in range(count):
            omega = random_form(rng, params, degree)
            shift = random_I_form(rng, params, degree)
            lhs = canonical_rep(exterior_d(omega + shift))
            rhs = canonical_rep(exterior_d(omega))
            ideal_killed = canonical_rep(shift).is_zero()
            if lhs == rhs and ideal_killed:
                passed += 1
        battery.record(f"quotient well-defined at degree {degree}", passed, count)

    passed = 0
    for _ in range(count):
        omega = random_form(rng, params, n)
        shift = random_I_form(rng, params, n)
        if d_c(rumin_class(params, n, omega + shift)) == d_c(rumin_class(params, n, omega)):
            passed += 1
    battery.record("middle operator is class-independent", passed, count)

    for degree in range(n + 1, top + 1):
        passed = 0
        for _ in range(count):
            omega = random_J_form(rng, params, degree)
            image = exterior_d(omega)
            if is_in_J(image):
                passed += 1
        battery.record(f"d preserves J at degree {degree}", passed, count)
    return battery


def lemma_battery(n: int, seed: int, count: int) -> Battery:
    """The commutation identities behind the slicing mass bounds."""
    params = HeisParams(n)
    rng = random.Random(seed)
    battery = Battery(f"Lemma batteries over H^{n} (seed {seed}, {count} cases per check)")

    for degree in range(0, n):
        passed = 0
        for _ in range(count):
            g = random_poly(rng, params)
            c = random_class(rng, params, degree)
            if leibniz_defect(g, c) == leibniz_expected(g, c):
                passed += 1
        battery.record(f"commutation closed form, degree {degree} < n", passed, count)

    passed = 0
    for _ in range(count):
        g = random_poly(rng, params)
        c = random_class(rng, params, n)
        if leibniz_defect(g, c) == leibniz_expected(g, c):
            passed += 1
    battery.record("commutation closed form, middle degree", passed, count)

    for degree in range(n + 1, 2 * n + 1):
        passed = 0
        for _ in range(count):
            g = random_poly(rng, params)
            c = random_class(rng, params, degree)
            if leibniz_defect(g, c) == leibniz_expected(g, c):
                passed += 1
        battery.record(f"commutation closed form, degree {degree} > n", passed, count)

    passed = 0
    for _ in range(count):
        g = random_poly(rng, params)
        omega = random_form(rng, params, n).strip_theta()
        lhs, rhs = lefschetz_commutator(g, omega)
        if lhs == rhs:
            passed += 1
    battery.record("Lefschetz commutator closed form (theta-free)", passed, count)

    passed = 0
    theta = PolyForm.theta(params)
    for _ in range(count):
        g = random_poly(rng, params)
        beta = random_form(rng, params, n - 1)
        omega = wedge_forms(theta, beta)
        lhs, rhs = lefschetz_commutator(g, omega)
        if lhs == rhs and lhs.is_zero():
            passed += 1
    battery.record("Lefschetz commutator vanishes on theta ^ beta", passed, count)

    passed = 0
    for _ in range(count):
        g = random_poly(rng, params)
        omega = random_form(rng, params, n).strip_theta()
        if is_in_J(middle_commutator_form(g, omega)):
            passed += 1
    battery.record("middle commutator lands in J (theta-free branch)", passed, count)

    passed = 0
    for _ in range(count):
        g = random_poly(rng, params)
        beta = random_form(rng, params, n - 1)
        omega = wedge_forms(theta, beta)
        if is_in_J(middle_commutator_form(g, omega)):
            passed += 1
    battery.record("middle commutator lands in J (theta ^ beta branch)", passed, count)

    passed = 0
    for _ in range(count):
        g = random_poly(rng, params)
        c = random_class(rng, params, n)
        if leibniz_defect(g, c) == two_piece_form(g, c.payload):
            passed += 1
    battery.record("two-piece middle form matches the defect", passed, count)
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

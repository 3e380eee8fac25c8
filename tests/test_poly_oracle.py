"""Integer Rumin arithmetic against the Fraction-coefficient oracle.

:class:`Poly` keeps integer numerators over one denominator, and the
Rumin kernels (``exterior_d``, ``canonical_rep``, ``L_inv``, the ideal
solve behind ``is_in_I``) run on those ints.  ``conftest`` keeps the
Fraction-coefficient arithmetic as the oracle: :class:`FractionPoly` for
the ring operations, and the ``fraction_*`` functions for the forms.
Every result must equal the oracle's in value, and float evaluation must
give bit-identical floats.  Coefficients have denominators 1, 2, 3, 7
and 10007, over H^1 to H^3.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FractionPoly,
    assert_normal,
    fraction_canonical_rep,
    fraction_exterior_d,
    fraction_form,
    fraction_ideal_witnesses,
    fraction_L_inv,
    fraction_random_poly,
    fraction_wedge,
)

from ruminslice import HeisParams, L_apply, L_inv, canonical_rep, exterior_d, is_in_I, wedge_forms
from ruminslice.algebra import all_blades
from ruminslice.forms import PolyForm, random_poly
from ruminslice.polys import Poly

DENS = (1, 2, 3, 7, 10007)


def _assert_form(form: PolyForm, want: dict):
    assert fraction_form(form) == want
    for poly in form.coeffs.values():
        assert_normal(poly)


coefficients = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.sampled_from(DENS))


@st.composite
def polys(draw, nvars, max_degree=3, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = [0] * nvars
        for index in draw(st.lists(st.integers(0, nvars - 1), max_size=max_degree)):
            expo[index] += 1
        terms[tuple(expo)] = draw(coefficients)
    return Poly(nvars, terms)


@st.composite
def forms(draw, params, grade, horizontal=False, max_blades=4):
    blades = [b for b in all_blades(params.dim, grade)
              if not (horizontal and params.dim - 1 in b)]
    coeffs = {}
    for _ in range(draw(st.integers(0, max_blades))) if blades else ():
        coeffs[draw(st.sampled_from(blades))] = draw(polys(params.dim, max_terms=3))
    return PolyForm(params, grade, coeffs)


groups = st.sampled_from((1, 2, 3)).map(HeisParams)


class TestPolyArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ring_operations_match(self, data):
        params = data.draw(groups)
        nvars = params.dim
        a, b = data.draw(polys(nvars)), data.draw(polys(nvars))
        scalar = data.draw(st.one_of(coefficients, st.integers(-3, 3)))
        fa, fb = FractionPoly.of(a), FractionPoly.of(b)
        cases = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (a * scalar, fa * scalar),
                 (-a, -fa), (a - a, fa - fa)]
        cases += [(a.partial(i), fa.partial(i)) for i in range(nvars)]
        exact = tuple(data.draw(coefficients) for _ in range(nvars))
        floats = tuple(data.draw(st.floats(-3, 3, allow_nan=False)) for _ in range(nvars))
        for got, want in cases:
            assert got.terms == want.terms
            assert all(type(c) is Fraction for c in got.terms.values())
            assert_normal(got)
            assert got.evaluate(exact) == want.evaluate(exact)
            # the terms come in the oracle's order, so float sums agree bit for bit
            assert list(got.terms) == list(want.terms)
            assert repr(got.evaluate(floats)) == repr(want.evaluate(floats))

    def test_random_poly_keeps_its_draws(self):
        for n in (1, 2, 3):
            params = HeisParams(n)
            got_rng, want_rng = random.Random(n), random.Random(n)
            for _ in range(30):
                got = random_poly(got_rng, params)
                assert got.terms == fraction_random_poly(want_rng, params.dim).terms
                assert got.den == 1
            assert got_rng.random() == want_rng.random()


class TestFormKernels:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_exterior_d_and_wedge_match(self, data):
        params = data.draw(groups)
        k = data.draw(st.integers(0, params.dim))
        omega = data.draw(forms(params, k))
        _assert_form(exterior_d(omega), fraction_exterior_d(params.n, fraction_form(omega)))
        other = data.draw(forms(params, data.draw(st.integers(0, params.dim - k))))
        _assert_form(wedge_forms(omega, other),
                     fraction_wedge(params.dim, fraction_form(omega), fraction_form(other)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_canonical_rep_and_L_inv_match(self, data):
        params = data.draw(groups)
        n = params.n
        k = data.draw(st.integers(0, n))
        omega = data.draw(forms(params, k))
        _assert_form(canonical_rep(omega), fraction_canonical_rep(n, k, fraction_form(omega)))
        w = L_apply(data.draw(forms(params, n - 1, horizontal=True)))
        _assert_form(L_inv(w), fraction_L_inv(n, fraction_form(w)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_is_in_I_witnesses_match(self, data):
        params = data.draw(groups)
        k = data.draw(st.integers(1, params.dim))
        member = wedge_forms(data.draw(forms(params, k - 1)), PolyForm.theta(params))
        if k >= 2:
            member = member + wedge_forms(data.draw(forms(params, k - 2)), PolyForm.dtheta(params))
        for omega in (member, member + data.draw(forms(params, k))):
            ok, alpha, beta = is_in_I(omega)
            want = fraction_ideal_witnesses(params.n, k, fraction_form(omega))
            assert ok == (want is not None)
            if not ok:
                assert alpha is None and beta is None
                continue
            _assert_form(alpha, want[0])
            if k >= 2:
                _assert_form(beta, want[1])
            else:
                assert beta is None and want[1] == {}

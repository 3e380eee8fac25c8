"""Polynomial differential forms: derivations, exterior derivative, wedge."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import scale_vars

from ruminslice import HeisParams, Point, exterior_d, derive_W, horizontal_gradient, wedge_forms
from ruminslice import forms
from ruminslice.forms import PolyForm, d_poly, gradient_at, random_form, random_poly
from ruminslice.polys import Poly
from ruminslice.verify import complex_battery, lemma_battery


def params_of(n):
    return HeisParams(n)


def one(params):
    return Poly.const(params.dim, 1)


class TestDerivations:
    def test_X_of_t(self):
        params = params_of(1)
        t = Poly.var(3, 2)
        assert derive_W(params, 0, t) == Poly.var(3, 1) * Fraction(-1, 2)

    def test_Y_of_t(self):
        params = params_of(1)
        t = Poly.var(3, 2)
        assert derive_W(params, 1, t) == Poly.var(3, 0) * Fraction(1, 2)

    def test_T_of_xt(self):
        params = params_of(1)
        x, t = Poly.var(3, 0), Poly.var(3, 2)
        assert derive_W(params, 2, x * t) == x

    def test_commutator_X_Y_is_T(self):
        rng = random.Random(1)
        for n in (1, 2):
            params = params_of(n)
            for _ in range(20):
                f = random_poly(rng, params)
                for j in range(n):
                    xy = derive_W(params, j, derive_W(params, n + j, f))
                    yx = derive_W(params, n + j, derive_W(params, j, f))
                    assert xy - yx == derive_W(params, 2 * n, f)

    def test_other_commutators_vanish(self):
        rng = random.Random(2)
        params = params_of(2)
        f = random_poly(rng, params)
        pairs = [(0, 1), (0, 3), (2, 3), (1, 2), (0, 4), (2, 4), (3, 4), (1, 4)]
        for a, b in pairs:
            ab = derive_W(params, a, derive_W(params, b, f))
            ba = derive_W(params, b, derive_W(params, a, f))
            assert ab == ba

    def test_homogeneity_as_identity_in_r(self):
        # both sides are polynomials in r of degree <= 7 for cubic f,
        # so agreement at ten rational points is agreement as identities
        rng = random.Random(3)
        for n in (1, 2):
            params = params_of(n)
            dim = params.dim
            for _ in range(10):
                f = random_poly(rng, params, max_degree=3)
                for r_num in range(1, 11):
                    r = Fraction(r_num, 7)
                    weights = (r,) * (2 * n) + (r * r,)
                    dilated = scale_vars(f, weights)
                    for j in range(2 * n):
                        assert derive_W(params, j, dilated) == \
                            scale_vars(derive_W(params, j, f), weights) * r
                    assert derive_W(params, 2 * n, dilated) == \
                        scale_vars(derive_W(params, 2 * n, f), weights) * (r * r)


def _df_via_dt_substitution(params, f):
    """Independent oracle: coordinate differentials, then dt elimination.

    df = sum_i (partial_i f) dcoord_i with dt = theta + (1/2) sum (x dy - y dx).
    """
    n = params.n
    dim = params.dim
    coeffs = {}
    ft = f.partial(2 * n)
    for j in range(n):
        x_j, y_j = Poly.var(dim, j), Poly.var(dim, n + j)
        dx_coef = f.partial(j) - y_j * ft * Fraction(1, 2)
        dy_coef = f.partial(n + j) + x_j * ft * Fraction(1, 2)
        if not dx_coef.is_zero():
            coeffs[(j,)] = dx_coef
        if not dy_coef.is_zero():
            coeffs[(n + j,)] = dy_coef
    if not ft.is_zero():
        coeffs[(2 * n,)] = ft
    return PolyForm(params, 1, coeffs)


class TestExteriorDerivative:
    def test_d_of_t(self):
        params = params_of(1)
        result = exterior_d(PolyForm.from_poly(params, Poly.var(3, 2)))
        expected = PolyForm(params, 1, {
            (0,): Poly.var(3, 1) * Fraction(-1, 2),
            (1,): Poly.var(3, 0) * Fraction(1, 2),
            (2,): Poly.const(3, 1),
        })
        assert result == expected

    def test_d_theta(self):
        for n in (1, 2):
            params = params_of(n)
            assert exterior_d(PolyForm.theta(params)) == PolyForm.dtheta(params)

    def test_df_matches_dt_substitution_oracle(self):
        rng = random.Random(4)
        for n in (1, 2):
            params = params_of(n)
            for _ in range(25):
                f = random_poly(rng, params)
                assert d_poly(params, f) == _df_via_dt_substitution(params, f)

    def test_d_squared_zero_random_functions(self):
        rng = random.Random(5)
        for n in (1, 2):
            params = params_of(n)
            for _ in range(100):
                f = random_poly(rng, params)
                assert exterior_d(d_poly(params, f)).is_zero()

    def test_d_squared_zero_all_grades(self):
        rng = random.Random(6)
        for n in (1, 2):
            params = params_of(n)
            for grade in range(0, 2 * n + 1):
                for _ in range(15):
                    omega = random_form(rng, params, grade)
                    assert exterior_d(exterior_d(omega)).is_zero()


class TestWedgeForms:
    def test_scalar_multiplication(self):
        params = params_of(1)
        f = PolyForm.from_poly(params, Poly.var(3, 0))
        omega = PolyForm.single(params, (1,), Poly.var(3, 2))
        assert wedge_forms(f, omega) == PolyForm.single(
            params, (1,), Poly.var(3, 0) * Poly.var(3, 2))

    def test_blade_example(self):
        params = params_of(1)
        a = PolyForm.single(params, (0,), Poly.var(3, 0))
        b = PolyForm.single(params, (1,), one(params))
        assert wedge_forms(a, b) == PolyForm.single(params, (0, 1), Poly.var(3, 0))

    def test_leibniz_rule_random(self):
        rng = random.Random(7)
        for n in (1, 2):
            params = params_of(n)
            for ga, gb in ((0, 1), (1, 1), (0, 2), (1, 2)):
                for _ in range(10):
                    a = random_form(rng, params, ga, max_degree=2, terms=1)
                    b = random_form(rng, params, gb, max_degree=2, terms=1)
                    lhs = exterior_d(wedge_forms(a, b))
                    rhs = wedge_forms(exterior_d(a), b)
                    signed = wedge_forms(a, exterior_d(b))
                    if ga % 2:
                        signed = -signed
                    assert lhs == rhs + signed


class TestGradient:
    def test_coordinate_function(self):
        params = params_of(1)
        grad = horizontal_gradient(params, Poly.var(3, 0))
        assert grad[0] == Poly.const(3, 1)
        assert grad[1].is_zero()

    def test_vertical_function(self):
        params = params_of(1)
        grad = horizontal_gradient(params, Poly.var(3, 2))
        assert grad[0] == Poly.var(3, 1) * Fraction(-1, 2)
        assert grad[1] == Poly.var(3, 0) * Fraction(1, 2)

    def test_constant(self):
        params = params_of(2)
        grad = horizontal_gradient(params, Poly.const(5, 4))
        assert all(g.is_zero() for g in grad)

    def test_gradient_at_point(self):
        params = params_of(1)
        grad = horizontal_gradient(params, Poly.var(3, 2))
        value = gradient_at(params, grad, Point((Fraction(2),), (Fraction(4),), Fraction(0)))
        assert value.coefficient((0,)) == Fraction(-2)
        assert value.coefficient((1,)) == Fraction(1)


class TestEvaluation:
    def test_substitution(self):
        params = params_of(1)
        omega = PolyForm.single(params, (0,), Poly.var(3, 0))
        value = omega.evaluate_at(Point((Fraction(2),), (Fraction(0),), Fraction(0)))
        assert value.coefficient((0,)) == 2

    def test_constant_coefficients_unchanged(self):
        params = params_of(1)
        theta = PolyForm.theta(params)
        value = theta.evaluate_at(Point((Fraction(5),), (Fraction(-1),), Fraction(9)))
        assert value.coefficient((2,)) == 1

    def test_root_kills_term(self):
        params = params_of(1)
        t = Poly.var(3, 2)
        omega = PolyForm.single(params, (1,), t * t - 1)
        value = omega.evaluate_at(Point((Fraction(0),), (Fraction(0),), Fraction(1)))
        assert value.is_zero()


class TestSharedContactForms:
    """The Rumin routines share one theta and one d theta per group."""

    def test_public_constructors_stay_fresh(self):
        for n in (1, 2, 3):
            params = params_of(n)
            assert forms._theta(params) is forms._theta(params)
            assert forms._dtheta(params) is forms._dtheta(params)
            assert PolyForm.theta(params) is not PolyForm.theta(params)
            assert PolyForm.dtheta(params) is not PolyForm.dtheta(params)
            assert PolyForm.theta(params) == forms._theta(params)
            assert PolyForm.dtheta(params) == forms._dtheta(params)

    def test_the_batteries_leave_the_shared_forms_as_they_were(self):
        shared = {}
        for n in (1, 2):
            params = params_of(n)
            shared[n] = [(form, dict(form.coeffs))
                         for form in (forms._theta(params), forms._dtheta(params))]
            assert complex_battery(n, 7, 2).ok
            assert lemma_battery(n, 7, 2).ok
        for n, kept in shared.items():
            params = params_of(n)
            assert [form for form, _ in kept] == [forms._theta(params), forms._dtheta(params)]
            for form, coeffs in kept:
                assert form.coeffs == coeffs

    def test_scale_and_strip_theta_build_valid_forms(self):
        rng = random.Random(5401)
        for n in (1, 2):
            params = params_of(n)
            for grade in range(2 * n + 2):
                omega = random_form(rng, params, grade, max_degree=2, terms=3)
                g = random_poly(rng, params, max_degree=1, terms=2)
                for result in (omega.scale(g), omega.scale(Fraction(-2, 3)),
                               omega.scale(0), omega.scale(Poly.zero(params.dim)),
                               omega.strip_theta()):
                    # the validating constructor keeps the same coefficients
                    assert PolyForm(params, result.grade, result.coeffs) == result
                    assert result.coeffs is not omega.coeffs
                assert omega.scale(0).is_zero()
                assert omega.strip_theta().is_horizontal()

    def test_scale_refuses_a_factor_over_other_variables(self):
        params = params_of(1)
        with pytest.raises(ValueError, match="different variable counts"):
            PolyForm.theta(params).scale(Poly.zero(5))

"""The Rumin complex: ideals, canonical representatives, differentials."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ruminslice import (
    HeisParams,
    L_apply,
    L_inv,
    ParameterError,
    canonical_rep,
    d_c,
    exterior_d,
    g_times,
    is_in_I,
    is_in_J,
    leibniz_defect,
    rumin_class,
    script_L,
    wedge_forms,
)
from ruminslice.forms import PolyForm, random_form, random_poly
from ruminslice.polys import Poly
from ruminslice.rumin import (
    _generator_columns,
    _middle_inverse_rows,
    leibniz_expected,
    middle_lift,
)
from ruminslice.verify import random_I_form, random_J_form
from ruminslice.linalg import sparse_mat_vec, transpose


def rank(rows):
    """Row rank of a Fraction matrix, by Gauss-Jordan elimination."""
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    work = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [v / pv for v in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [v - factor * w for v, w in zip(work[i], work[r])]
        r += 1
        if r == m:
            break
    return r


def p1():
    return HeisParams(1)


def p2():
    return HeisParams(2)


def const(params, c=1):
    return Poly.const(params.dim, c)


class TestIdealMembership:
    def test_theta_wedge_is_in_I(self):
        params = p1()
        omega = wedge_forms(PolyForm.theta(params), PolyForm.single(params, (0,), const(params)))
        flag, alpha, beta = is_in_I(omega)
        assert flag
        recon = wedge_forms(alpha, PolyForm.theta(params))
        if beta is not None:
            recon = recon + wedge_forms(beta, PolyForm.dtheta(params))
        assert recon == omega

    def test_dxdy_in_I_for_n1(self):
        params = p1()
        omega = PolyForm.single(params, (0, 1), const(params))
        flag, alpha, beta = is_in_I(omega)
        assert flag
        assert beta == PolyForm.from_poly(params, const(params, -1))

    def test_dx1dy1_not_in_I_for_n2(self):
        params = p2()
        omega = PolyForm.single(params, (0, 2), const(params))
        assert is_in_I(omega)[0] is False

    def test_witness_reconstructs_random(self):
        rng = random.Random(1)
        for n in (1, 2):
            params = HeisParams(n)
            for k in range(1, 2 * n + 2):
                shift = random_I_form(rng, params, k)
                flag, alpha, beta = is_in_I(shift)
                assert flag
                recon = wedge_forms(alpha, PolyForm.theta(params))
                if beta is not None:
                    recon = recon + wedge_forms(beta, PolyForm.dtheta(params))
                assert recon == shift

    def test_J_membership_examples(self):
        params = p1()
        theta_dx = wedge_forms(PolyForm.theta(params), PolyForm.single(params, (0,), const(params)))
        assert is_in_J(theta_dx)
        assert not is_in_J(PolyForm.single(params, (0, 1), const(params)))
        assert is_in_J(PolyForm.zero(params, 2))


class TestCanonicalRep:
    def test_strips_theta(self):
        params = p1()
        omega = PolyForm(params, 1, {(0,): const(params), (2,): Poly.var(3, 0)})
        assert canonical_rep(omega) == PolyForm.single(params, (0,), const(params))

    def test_projects_out_dtheta_n2(self):
        params = p2()
        omega = PolyForm.single(params, (0, 2), const(params))
        expected = PolyForm(params, 2, {
            (0, 2): const(params, Fraction(1, 2)),
            (1, 3): const(params, Fraction(-1, 2)),
        })
        assert canonical_rep(omega) == expected

    def test_kills_dtheta(self):
        # grade 2 sits in the quotient range only for n >= 2
        params = p2()
        assert canonical_rep(PolyForm.dtheta(params)).is_zero()

    def test_kills_ideal_exactly(self):
        rng = random.Random(2)
        for n in (1, 2):
            params = HeisParams(n)
            for k in range(0, n + 1):
                for _ in range(20):
                    shift = random_I_form(rng, params, k)
                    assert canonical_rep(shift).is_zero()

    def test_separates_non_ideal(self):
        params = p2()
        omega = PolyForm.single(params, (0, 2), const(params))
        assert not canonical_rep(omega).is_zero()

    def test_idempotent(self):
        rng = random.Random(3)
        for n in (1, 2):
            params = HeisParams(n)
            for k in range(0, n + 1):
                omega = random_form(rng, params, k)
                rep = canonical_rep(omega)
                assert canonical_rep(rep) == rep

    def test_grade_restriction(self):
        params = p1()
        with pytest.raises(ParameterError):
            canonical_rep(PolyForm.zero(params, 2))


class TestLefschetz:
    def test_L_on_constants_n1(self):
        params = p1()
        assert L_apply(PolyForm.from_poly(params, const(params))) == PolyForm.dtheta(params)

    def test_L_inv_n1(self):
        params = p1()
        assert L_inv(PolyForm.dtheta(params)) == PolyForm.from_poly(params, const(params))

    def test_L_on_dx1_n2(self):
        params = p2()
        result = L_apply(PolyForm.single(params, (0,), const(params)))
        assert result == PolyForm.single(params, (0, 1, 3), const(params, -1))

    def test_middle_matrix_invertible_exact(self):
        for n in (1, 2):
            columns = _generator_columns(n, "dtheta", n - 1, True)
            rows = transpose(columns)
            assert rank(rows) == len(rows)
            inverse, den = _middle_inverse_rows(n)
            # the inverse sends the image of each source blade back to it,
            # scaled by the table's den
            assert [sparse_mat_vec(inverse, column) for column in columns] == [
                [den * int(i == j) for j in range(len(columns))] for i in range(len(columns))]

    def test_round_trip_random(self):
        rng = random.Random(4)
        for n in (1, 2):
            params = HeisParams(n)
            for _ in range(20):
                beta = random_form(rng, params, n - 1).strip_theta()
                assert L_inv(L_apply(beta)) == beta

    def test_requires_horizontal(self):
        params = p1()
        with pytest.raises(ParameterError):
            L_apply(PolyForm.theta(params))


class TestScriptL:
    def test_on_f_dx(self):
        rng = random.Random(5)
        params = p1()
        for _ in range(20):
            f = random_poly(rng, params)
            omega = PolyForm.single(params, (0,), f)
            minus_Yf = -(f.partial(1) + Poly.var(3, 0) * f.partial(2) * Fraction(1, 2))
            assert script_L(omega) == PolyForm.from_poly(params, minus_Yf)

    def test_on_y_dx(self):
        params = p1()
        omega = PolyForm.single(params, (0,), Poly.var(3, 1))
        assert script_L(omega) == PolyForm.from_poly(params, const(params, -1))

    def test_on_zero(self):
        params = p1()
        assert script_L(PolyForm.zero(params, 1)).is_zero()

    def test_theta_part_self_corrects_in_lift(self):
        # the lift of theta ^ beta collapses to zero, so adding theta
        # parts to a representative never changes the lift
        rng = random.Random(6)
        for n in (1, 2):
            params = HeisParams(n)
            for _ in range(10):
                omega = random_form(rng, params, n).strip_theta()
                beta = random_form(rng, params, n - 1)
                shifted = omega + wedge_forms(PolyForm.theta(params), beta)
                assert middle_lift(shifted) == middle_lift(omega)


class TestDifferential:
    def test_degree_zero_n1(self):
        rng = random.Random(7)
        params = p1()
        for _ in range(10):
            f = random_poly(rng, params)
            c = rumin_class(params, 0, PolyForm.from_poly(params, f))
            expected = canonical_rep(exterior_d(PolyForm.from_poly(params, f)))
            assert d_c(c).payload == expected

    def test_middle_example_t_dx(self):
        params = p1()
        c = rumin_class(params, 1, PolyForm.single(params, (0,), Poly.var(3, 2)))
        result = d_c(c)
        expected = PolyForm(params, 2, {(0, 2): const(params, Fraction(-3, 2))})
        assert result.payload == expected  # equals (3/2) theta ^ dx

    def test_middle_example_y_dx(self):
        params = p1()
        c = rumin_class(params, 1, PolyForm.single(params, (0,), Poly.var(3, 1)))
        assert d_c(c).payload.is_zero()

    def test_high_range_is_restriction_of_d(self):
        rng = random.Random(8)
        for n in (1, 2):
            params = HeisParams(n)
            for degree in range(n + 1, 2 * n + 1):
                omega = random_J_form(rng, params, degree)
                c = rumin_class(params, degree, omega)
                assert d_c(c).payload == exterior_d(omega)

    def test_complex_property_spot(self):
        rng = random.Random(9)
        for n in (1, 2):
            params = HeisParams(n)
            for degree in range(0, 2 * n + 2):
                for _ in range(5):
                    if degree <= n:
                        c = rumin_class(params, degree, random_form(rng, params, degree))
                    else:
                        c = rumin_class(params, degree, random_J_form(rng, params, degree))
                    assert d_c(d_c(c)).payload.is_zero()

    def test_middle_output_certified_in_J(self):
        rng = random.Random(10)
        for n in (1, 2):
            params = HeisParams(n)
            for _ in range(10):
                c = rumin_class(params, n, random_form(rng, params, n))
                image = d_c(c)
                assert is_in_J(image.payload)

    def test_class_invariance_under_ideal(self):
        rng = random.Random(11)
        for n in (1, 2):
            params = HeisParams(n)
            for _ in range(10):
                omega = random_form(rng, params, n)
                shift = random_I_form(rng, params, n)
                assert d_c(rumin_class(params, n, omega + shift)) == \
                    d_c(rumin_class(params, n, omega))

    def test_rejects_non_J_payload_in_high_range(self):
        params = p1()
        with pytest.raises(ParameterError):
            rumin_class(params, 2, PolyForm.single(params, (0, 1), const(params)))


class TestLeibniz:
    def test_low_regime_example(self):
        params = p2()
        g = Poly.var(5, 0)
        c = rumin_class(params, 1, PolyForm.single(params, (1,), const(params)))
        expected = PolyForm.single(params, (0, 1), const(params))
        assert leibniz_defect(g, c) == expected

    def test_constant_g_vanishes(self):
        rng = random.Random(12)
        for n in (1, 2):
            params = HeisParams(n)
            for degree in (0, n, min(n + 1, 2 * n)):
                if degree <= n:
                    c = rumin_class(params, degree, random_form(rng, params, degree))
                else:
                    c = rumin_class(params, degree, random_J_form(rng, params, degree))
                assert leibniz_defect(const(params, 7), c).is_zero()

    def test_high_regime_example(self):
        params = p1()
        g = Poly.var(3, 1)
        omega = wedge_forms(PolyForm.theta(params), PolyForm.single(params, (0,), const(params)))
        c = rumin_class(params, 2, omega)
        # dy ^ theta ^ dx sorts to +dx ^ dy ^ theta
        expected = PolyForm.single(params, (0, 1, 2), const(params))
        assert leibniz_defect(g, c) == expected

    def test_matches_closed_form_all_regimes(self):
        rng = random.Random(13)
        for n in (1, 2):
            params = HeisParams(n)
            for degree in range(0, 2 * n + 1):
                for _ in range(5):
                    g = random_poly(rng, params)
                    if degree <= n:
                        c = rumin_class(params, degree, random_form(rng, params, degree))
                    else:
                        c = rumin_class(params, degree, random_J_form(rng, params, degree))
                    assert leibniz_defect(g, c) == leibniz_expected(g, c)

    def test_g_times_payload(self):
        params = p1()
        g = Poly.var(3, 2)
        c = rumin_class(params, 1, PolyForm.single(params, (0,), const(params)))
        assert g_times(g, c).payload == PolyForm.single(params, (0,), g)

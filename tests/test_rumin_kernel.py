"""The term-level Rumin kernels against their symbolic and dense oracles.

* ``exterior_d`` works on (blade, exponent tuple, coefficient) terms.  Its
  oracle below is the symbolic Cartan rule: each coefficient goes through
  the frame derivations ``derive_W`` as :class:`Poly` products, and each
  blade through ``wedge_forms`` of single-blade forms.
* ``canonical_rep`` and ``L_inv`` multiply by sparse rows of the primitive
  projection and of the Lefschetz middle inverse.  Their oracle is the
  dense ``linalg.mat_vec`` on the dense matrices.
* The constant generator table (theta ^ blade, dtheta ^ blade) against
  wedges of constant :class:`PolyForm` objects.
* Library arithmetic builds trusted ``Poly``/``PolyForm`` objects; they
  must equal what the validating public constructors build from the same
  data, and those constructors must keep rejecting bad input.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruminslice import (
    DimensionMismatchError,
    HeisParams,
    InternalInvariantError,
    L_apply,
    L_inv,
    ParameterError,
    canonical_rep,
    d_c,
    derive_W,
    exterior_d,
    is_in_I,
    rumin_class,
    wedge_forms,
)
from ruminslice import linalg, rumin
from ruminslice.algebra import all_blades
from ruminslice.forms import PolyForm, d_poly, random_form
from ruminslice.polys import Poly
from ruminslice.rumin import (
    _generator_columns,
    _ideal_matrix,
    _middle_inverse_rows,
    _primitive_projection,
    full_blades,
    horizontal_blades,
)
from ruminslice.verify import random_I_form, random_J_form


# -- the symbolic oracle -------------------------------------------------------


def _d_poly_oracle(params: HeisParams, f: Poly) -> PolyForm:
    """df = sum_j (W_j f) dw_j, through the symbolic derivations."""
    coeffs = {}
    for j in range(params.dim):
        deriv = derive_W(params, j, f)
        if not deriv.is_zero():
            coeffs[(j,)] = deriv
    return PolyForm(params, 1, coeffs)


def _exterior_d_oracle(omega: PolyForm) -> PolyForm:
    """d(f e_I) = df ^ e_I + f d(e_I), with d(theta) = -sum dx_j ^ dy_j."""
    params = omega.params
    vertical = params.dim - 1
    result = PolyForm(params, omega.grade + 1)
    dtheta = PolyForm.dtheta(params)
    for blade, poly in omega.coeffs.items():
        base = PolyForm.single(params, blade, Poly.const(params.dim, 1))
        result = result + wedge_forms(_d_poly_oracle(params, poly), base)
        if blade and blade[-1] == vertical:
            rest = PolyForm.single(params, blade[:-1], poly)
            sign_form = wedge_forms(rest, dtheta)
            if len(blade) % 2 == 0:
                # d crosses the length-(k-1) prefix: sign (-1)^(k-1)
                sign_form = -sign_form
            result = result + sign_form
    return result


def _assert_clean(form: PolyForm):
    """The form is exactly what the validating constructors would build."""
    rebuilt = PolyForm(form.params, form.grade,
                       {b: Poly(p.nvars, p.terms) for b, p in form.coeffs.items()})
    assert rebuilt == form
    for blade, poly in form.coeffs.items():
        assert type(blade) is tuple
        assert poly.nvars == form.params.dim and poly.terms
        for expo, coef in poly.terms.items():
            assert type(expo) is tuple
            assert type(coef) is Fraction and coef != 0


# -- random forms ---------------------------------------------------------------


@st.composite
def forms(draw, max_degree=4):
    """A form over H^1..H^3 of any grade, degree <= max_degree, rational coefficients."""
    n = draw(st.sampled_from((1, 2, 3)))
    params = HeisParams(n)
    grade = draw(st.integers(min_value=0, max_value=2 * n + 1))
    blades = list(all_blades(params.dim, grade))
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        blade = draw(st.sampled_from(blades))
        expo = [0] * params.dim
        for index in draw(st.lists(st.integers(0, params.dim - 1), max_size=max_degree)):
            expo[index] += 1
        coef = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        term = Poly(params.dim, {tuple(expo): coef})
        coeffs[blade] = coeffs.get(blade, Poly.zero(params.dim)) + term
    return PolyForm(params, grade, coeffs)


CASES = [(n, grade) for n in (1, 2, 3) for grade in range(2 * n + 2)]


class TestExteriorDerivative:
    @settings(max_examples=150, deadline=None)
    @given(forms())
    def test_kernel_matches_symbolic_rule(self, omega):
        result = exterior_d(omega)
        assert result == _exterior_d_oracle(omega)
        assert result.grade == omega.grade + 1
        _assert_clean(result)

    @settings(max_examples=60, deadline=None)
    @given(forms())
    def test_d_squared_vanishes(self, omega):
        assert exterior_d(exterior_d(omega)).is_zero()

    @pytest.mark.parametrize("n,grade", CASES)
    def test_every_grade_seeded(self, n, grade):
        params = HeisParams(n)
        rng = random.Random(100 * n + grade)
        for _ in range(8 if n < 3 else 3):
            omega = random_form(rng, params, grade, max_degree=4, terms=3)
            result = exterior_d(omega)
            assert result == _exterior_d_oracle(omega)
            assert exterior_d(result).is_zero()

    def test_half_and_theta_terms_by_hand(self):
        params = HeisParams(1)
        x, y, t = (Poly.var(3, i) for i in range(3))
        # d(t) = dt = theta + (1/2)(x dy - y dx)
        dt = exterior_d(PolyForm.from_poly(params, t))
        assert dt.coefficient((0,)) == y * Fraction(-1, 2)
        assert dt.coefficient((1,)) == x * Fraction(1, 2)
        assert dt.coefficient((2,)) == Poly.const(3, 1)
        # d(x theta) = dx ^ theta + x dtheta = dx ^ theta - x dx ^ dy
        form = PolyForm.single(params, (2,), x)
        expected = PolyForm(params, 2, {(0, 2): Poly.const(3, 1), (0, 1): -x})
        assert exterior_d(form) == expected

    def test_d_poly_is_d_of_the_zero_form(self):
        rng = random.Random(3)
        for n in (1, 2):
            params = HeisParams(n)
            for _ in range(10):
                f = random_form(rng, params, 0, max_degree=4, terms=4).coefficient(())
                assert d_poly(params, f) == _d_poly_oracle(params, f)

    def test_d_poly_rejects_other_variable_counts(self):
        with pytest.raises(DimensionMismatchError):
            d_poly(HeisParams(1), Poly.var(5, 0))


# -- sparse mat-vecs against dense linalg.mat_vec --------------------------------


def _dense_projection(n: int, k: int):
    return linalg.column_space_projection(_generator_columns(n, "dtheta", k - 2, True))


def _dense_middle_inverse(n: int):
    return linalg.invert(linalg.transpose(_generator_columns(n, "dtheta", n - 1, True)))


def _per_monomial(form: PolyForm, blades, out_blades, matrix, complement: bool) -> dict:
    """Apply a dense matrix (or I minus it) to each monomial's coefficient vector."""
    index = {b: i for i, b in enumerate(blades)}
    slices = {}
    for blade, poly in form.coeffs.items():
        for expo, coef in poly.terms.items():
            slices.setdefault(expo, [Fraction(0)] * len(blades))[index[blade]] = coef
    coeffs = {}
    for expo, vec in slices.items():
        image = linalg.mat_vec(matrix, vec)
        if complement:
            image = [a - b for a, b in zip(vec, image)]
        for blade, value in zip(out_blades, image):
            if value:
                coeffs[blade] = coeffs.get(blade, Poly.zero(form.params.dim)) + \
                    Poly(form.params.dim, {expo: value})
    return coeffs


class TestSparseRows:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_sparse_rows_equal_dense_product(self, n):
        rng = random.Random(n)
        cases = [(_middle_inverse_rows(n), _dense_middle_inverse(n))]
        cases += [(_primitive_projection(n, k), _dense_projection(n, k))
                  for k in range(2, n + 1)]
        for sparse, dense in cases:
            assert all(v != 0 for row in sparse for _, v in row)
            for _ in range(20):
                # about half the entries zero, so skipping them is exercised
                vec = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * rng.randint(0, 1)
                       for _ in range(len(dense[0]))]
                got = linalg.sparse_mat_vec(sparse, vec)
                want = linalg.mat_vec(dense, vec)
                assert got == want
                assert all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_canonical_rep_equals_dense_projection(self, n):
        params = HeisParams(n)
        rng = random.Random(10 + n)
        for k in range(n + 1):
            blades = horizontal_blades(n, k)
            for _ in range(6 if n < 3 else 2):
                omega = random_form(rng, params, k, max_degree=3, terms=3)
                result = canonical_rep(omega)
                _assert_clean(result)
                if k < 2:
                    assert result == omega.strip_theta()
                    continue
                expected = _per_monomial(omega.strip_theta(), blades, blades,
                                         _dense_projection(n, k), complement=True)
                assert result == PolyForm(params, k, expected)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_L_inv_equals_dense_inverse(self, n):
        params = HeisParams(n)
        rng = random.Random(20 + n)
        for _ in range(6 if n < 3 else 2):
            w = L_apply(random_form(rng, params, n - 1, max_degree=3, terms=3).strip_theta())
            result = L_inv(w)
            _assert_clean(result)
            expected = _per_monomial(w, horizontal_blades(n, n + 1), horizontal_blades(n, n - 1),
                                     _dense_middle_inverse(n), complement=False)
            assert result == PolyForm(params, n - 1, expected)

    def test_L_inv_still_verifies_its_result(self, monkeypatch):
        params = HeisParams(2)
        rows = _middle_inverse_rows(2)
        broken = (rows[0][:-1],) + rows[1:]
        monkeypatch.setattr(rumin, "_middle_inverse_rows", lambda n: broken)
        w = L_apply(PolyForm.single(params, (0,), Poly.var(params.dim, 1)))
        with pytest.raises(InternalInvariantError, match="failed to verify"):
            L_inv(w)

    def test_every_high_degree_output_is_certified(self, monkeypatch):
        calls = []
        real = rumin.is_in_J

        def counting(form):
            calls.append(form.grade)
            return real(form)

        monkeypatch.setattr(rumin, "is_in_J", counting)
        params = HeisParams(1)
        rng = random.Random(5)
        low = rumin_class(params, 1, random_form(rng, params, 1))
        high = rumin_class(params, 2, random_J_form(rng, params, 2))
        assert calls == [2]
        d_c(low)
        d_c(high)
        assert calls == [2, 2, 3]


# -- the constant generator table --------------------------------------------------


def _wedge_column(params, blade, factor, targets):
    one = Poly.const(params.dim, 1)
    form = wedge_forms(PolyForm.single(params, blade, one), factor)
    return tuple(form.coefficient(b).constant_value() for b in targets)


class TestGeneratorTable:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_columns_equal_constant_form_wedges(self, n):
        params = HeisParams(n)
        theta, dtheta = PolyForm.theta(params), PolyForm.dtheta(params)
        for grade in range(-1, 2 * n + 2):
            for generator, factor, step in (("theta", theta, 1), ("dtheta", dtheta, 2)):
                sources, targets = full_blades(n, grade), full_blades(n, grade + step)
                assert _generator_columns(n, generator, grade, False) == tuple(
                    _wedge_column(params, b, factor, targets) for b in sources)
            sources, targets = horizontal_blades(n, grade), horizontal_blades(n, grade + 2)
            assert _generator_columns(n, "dtheta", grade, True) == tuple(
                _wedge_column(params, b, dtheta, targets) for b in sources)

    def test_ideal_matrix_tags_follow_the_columns(self):
        rows, tags = _ideal_matrix(2, 3)
        assert len(rows) == len(full_blades(2, 3))
        assert len(rows[0]) == len(tags) == len(full_blades(2, 2)) + len(full_blades(2, 1))
        assert tags[0] == ("alpha", (0, 1)) and tags[-1] == ("beta", (4,))

    @pytest.mark.parametrize("n", (1, 2))
    def test_is_in_I_witnesses_reconstruct(self, n):
        params = HeisParams(n)
        theta, dtheta = PolyForm.theta(params), PolyForm.dtheta(params)
        rng = random.Random(30 + n)
        for degree in range(1, 2 * n + 2):
            for _ in range(4):
                omega = random_I_form(rng, params, degree)
                ok, alpha, beta = is_in_I(omega)
                assert ok
                _assert_clean(alpha)
                rebuilt = wedge_forms(alpha, theta)
                if beta is not None:
                    _assert_clean(beta)
                    rebuilt = rebuilt + wedge_forms(beta, dtheta)
                assert rebuilt == omega


# -- one Gauss-Jordan routine ---------------------------------------------------------


class TestRref:
    def test_solve_sets_free_variables_to_zero(self):
        rows = [[1, 2, 0, 1], [2, 4, 1, 1]]
        x = linalg.solve(rows, [3, 5])
        # pivots in columns 0 and 2; columns 1 and 3 are free
        assert x == [Fraction(3), 0, Fraction(-1), 0]
        assert all(type(v) is Fraction for v in x)
        assert linalg.solve(rows, [1, 1]) == [Fraction(1), 0, Fraction(-1), 0]
        assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None

    def test_rref_reports_pivots_and_leaves_input_alone(self):
        rows = [[0, 2, 4], [1, 1, 1], [1, 2, 3]]
        work, pivots = linalg.rref(rows)
        assert pivots == [0, 1]
        assert work == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
        assert rows == [[0, 2, 4], [1, 1, 1], [1, 2, 3]]

    def test_invert_and_nullspace(self):
        a = [[2, 1], [1, 1]]
        assert linalg.invert(a) == [[1, -1], [-1, 2]]
        with pytest.raises(ValueError, match="singular"):
            linalg.invert([[1, 2], [2, 4]])
        assert linalg.nullspace([[1, 2, 3]], 3) == [[-2, 1, 0], [-3, 0, 1]]
        assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_solutions_and_kernels_are_exact(self, m, ncols, data):
        entry = st.integers(-3, 3)
        rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(m)]
        x0 = [data.draw(entry) for _ in range(ncols)]
        rhs = linalg.mat_vec(rows, x0)
        x = linalg.solve(rows, rhs)
        assert linalg.mat_vec(rows, x) == rhs
        _, pivots = linalg.rref(rows)
        assert all(x[c] == 0 for c in range(ncols) if c not in pivots)
        kernel = linalg.nullspace(rows, ncols)
        assert len(kernel) == ncols - len(pivots)
        for vec in kernel:
            assert linalg.mat_vec(rows, vec) == [0] * m


# -- trusted construction and the public constructors ------------------------------------


class TestConstructors:
    @settings(max_examples=80, deadline=None)
    @given(forms(max_degree=3), forms(max_degree=3))
    def test_arithmetic_results_are_clean(self, a, b):
        _assert_clean(-a)
        if a.params == b.params and a.grade == b.grade:
            _assert_clean(a + b)
            _assert_clean(a - a)
        if a.params == b.params:
            _assert_clean(wedge_forms(a, b))
        for poly in a.coeffs.values():
            for other in b.coeffs.values():
                if poly.nvars == other.nvars:
                    for value in (poly + other, poly * other, poly - poly, poly * Fraction(-2, 3)):
                        assert Poly(value.nvars, value.terms) == value
                        assert all(type(c) is Fraction and c for c in value.terms.values())
            for index in range(poly.nvars):
                deriv = poly.partial(index)
                assert Poly(deriv.nvars, deriv.terms) == deriv

    @pytest.mark.parametrize("terms,error", [
        ({(1,): 1}, ValueError),
        ({(1, -1): 1}, ValueError),
        ({(1, 0, 0): 1}, ValueError),
        ({(1, 0): 0.5}, TypeError),
        ({(1, 0): "1/2"}, TypeError),
    ], ids=["short tuple", "negative exponent", "long tuple", "float", "string"])
    def test_poly_constructor_still_validates(self, terms, error):
        with pytest.raises(error):
            Poly(2, terms)

    @pytest.mark.parametrize("coeffs,error", [
        ({(1, 0): Poly.const(3, 1)}, ParameterError),
        ({(0, 0): Poly.const(3, 1)}, ParameterError),
        ({(0, 3): Poly.const(3, 1)}, ParameterError),
        ({(0,): Poly.const(3, 1)}, ParameterError),
        ({(0, 1): 0.5}, TypeError),
        ({(0, 1): Poly.const(5, 1)}, DimensionMismatchError),
    ], ids=["unsorted blade", "repeated index", "out of range", "wrong grade",
            "float coefficient", "wrong variable count"])
    def test_polyform_constructor_still_validates(self, coeffs, error):
        with pytest.raises(error):
            PolyForm(HeisParams(1), 2, coeffs)

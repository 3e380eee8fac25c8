"""Simplicial currents: pairing, mass, clipping, boundary, admissibility."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import (
    constant_blade_forms,
    horizontal_square_chain,
    unit_cube_chain,
    unit_segment_chain,
)

from ruminslice import (
    AdmissibilityError,
    GammaWeight,
    HalfSpace,
    HeisParams,
    MultiVector,
    ParameterError,
    Simplex,
    SimplicialCurrent,
    boundary,
    dual_boundary_functional,
    exterior_d,
    is_admissible,
    mass,
    measure_of,
    pair_current,
    pair_form,
    restrict_by_fn,
    restrict_to_set,
    rumin_class,
    wedge_forms,
)
from ruminslice.forms import PolyForm, random_form
from ruminslice.polys import Poly
from ruminslice.verify import random_J_form

F = Fraction


def const_form(params, blade):
    return PolyForm.single(params, blade, Poly.const(params.dim, 1))


class TestPairing:
    def test_segment_against_dx_class(self):
        seg = unit_segment_chain()
        params = seg.params
        c = rumin_class(params, 1, const_form(params, (0,)))
        assert pair_current(seg, c) == 1

    def test_segment_against_dy_class(self):
        seg = unit_segment_chain()
        params = seg.params
        c = rumin_class(params, 1, const_form(params, (1,)))
        assert pair_current(seg, c) == 0

    def test_cube_against_top_form(self):
        cube = unit_cube_chain()
        params = cube.params
        top = wedge_forms(PolyForm.theta(params), const_form(params, (0, 1)))
        c = rumin_class(params, 3, top)  # theta ^ dx ^ dy = +dx^dy^theta
        value = pair_current(cube, c)
        assert abs(value) == 1
        assert value == 1  # positive Kuhn orientation

    def test_inadmissible_tangent_rejected(self):
        params = HeisParams(1)
        vertical = SimplicialCurrent(params, 1, [
            Simplex(((F(0), F(0), F(0)), (F(0), F(0), F(1))), F(1)),
        ])
        c = rumin_class(params, 1, const_form(params, (0,)))
        with pytest.raises(AdmissibilityError, match="simplex 0"):
            pair_current(vertical, c)

    def test_representative_independence_on_admissible_chain(self):
        rng = random.Random(1)
        square = horizontal_square_chain()
        params = square.params
        from ruminslice.verify import random_I_form

        omega = random_form(rng, params, 2, max_degree=2, terms=1)
        base = pair_form(square, omega)
        for _ in range(10):
            shift = random_I_form(rng, params, 2)
            assert pair_form(square, omega + shift) == base


class TestMassAndMeasure:
    def test_empty_chain(self):
        params = HeisParams(1)
        assert mass(SimplicialCurrent(params, 1, [])) == 0

    def test_segment(self):
        assert mass(unit_segment_chain()) == 1

    def test_cube_exact_one(self):
        assert mass(unit_cube_chain()) == F(1)

    def test_square_exact_one(self):
        assert mass(horizontal_square_chain()) == F(1)

    def test_mass_is_sup_of_blade_pairings(self):
        for chain in (unit_segment_chain(), unit_cube_chain(), horizontal_square_chain()):
            total = float(mass(chain))
            best = max(abs(float(pair_form(chain, omega)))
                       for omega in constant_blade_forms(chain.params, chain.degree))
            assert best <= total + 1e-9
            assert best == pytest.approx(total, abs=1e-9)

    def test_unit_comass_forms_pair_below_mass(self):
        rng = random.Random(7)
        from ruminslice.algebra import Covector, all_blades, comass_estimate

        for chain in (unit_segment_chain(), unit_cube_chain()):
            total = float(mass(chain))
            dim = chain.params.dim
            for _ in range(15):
                coeffs = {b: F(rng.randint(-5, 5)) for b in all_blades(dim, chain.degree)}
                w = Covector(dim, chain.degree, coeffs)
                if w.is_zero():
                    continue
                # an estimate never exceeds the true comass, so dividing
                # by it can only enlarge the form: the bound still holds
                # because the estimate includes the attaining blade here
                scale = comass_estimate(w, 200, rng)
                omega = PolyForm(chain.params, chain.degree, {
                    b: Poly.const(dim, c) for b, c in coeffs.items()})
                value = abs(float(pair_form(chain, omega))) / scale
                assert value <= total + 1e-6

    def test_measure_of_halfspace_list_is_exact(self):
        cube = unit_cube_chain()
        hs = HalfSpace((F(1), F(0), F(0)), F(1, 3), ">")
        assert measure_of(cube, [hs]) == F(2, 3)

    def test_measure_of_predicate_is_per_simplex(self):
        # the predicate path samples quadrature nodes, so it is exact
        # exactly when the indicator is constant on every simplex
        cube = unit_cube_chain()
        assert measure_of(cube, lambda p: True) == mass(cube)
        assert measure_of(cube, lambda p: p.x[0] > 1) == 0
        hs = HalfSpace((F(1), F(0), F(0)), F(1, 3), ">")
        split = restrict_to_set(cube, [hs]) + restrict_to_set(cube, [hs.complement()])
        sampled = measure_of(split, lambda p: p.x[0] > F(1, 3))
        assert sampled == F(2, 3)


class TestClipping:
    def test_segment_halfspace(self):
        seg = unit_segment_chain()
        out = restrict_to_set(seg, [HalfSpace((F(1), F(0), F(0)), F(1, 2), ">")])
        assert mass(out) == F(1, 2)
        vertices = sorted(out.vertices())
        assert vertices[0] == (F(1, 2), F(0), F(0))
        assert vertices[1] == (F(1), F(0), F(0))

    def test_whole_space_clip_is_identity_in_measure(self):
        cube = unit_cube_chain()
        out = restrict_to_set(cube, [HalfSpace((F(1), F(0), F(0)), F(-5), ">")])
        assert mass(out) == mass(cube)
        assert out.canonical() == cube.canonical()

    def test_empty_clip(self):
        cube = unit_cube_chain()
        out = restrict_to_set(cube, [HalfSpace((F(1), F(0), F(0)), F(1), ">")])
        assert out.is_empty()

    def test_measure_additivity_exact(self):
        cube = unit_cube_chain()
        hs = HalfSpace((F(1), F(1), F(2)), F(3, 4), ">")
        left = restrict_to_set(cube, [hs])
        right = restrict_to_set(cube, [hs.complement()])
        assert mass(left) + mass(right) == mass(cube)

    def test_pairing_additivity_exact(self):
        rng = random.Random(2)
        cube = unit_cube_chain()
        params = cube.params
        hs = HalfSpace((F(2), F(-1), F(1)), F(1, 3), ">")
        left = restrict_to_set(cube, [hs])
        right = restrict_to_set(cube, [hs.complement()])
        for _ in range(5):
            omega = random_form(rng, params, 3, max_degree=2, terms=1)
            assert pair_form(left, omega) + pair_form(right, omega) == pair_form(cube, omega)

    def test_shared_face_subdivisions_cancel(self):
        # boundary-after-clip equals clip-of-boundary on the cut side,
        # which needs identical subdivision of shared faces
        cube = unit_cube_chain()
        hs = HalfSpace((F(1), F(2), F(1)), F(5, 7), ">")
        piece = restrict_to_set(cube, [hs])
        inner = boundary(piece)
        # every face of the clipped solid either lies on the cut plane
        # or comes from the cube surface clipped to the closed side
        surface = restrict_to_set(boundary(cube), [HalfSpace(hs.coeffs, hs.const, ">=")])
        leftover = (inner - surface).canonical()
        for s in leftover.simplices:
            for v in s.vertices:
                assert hs.value(v) == 0


class TestBoundary:
    def test_segment_boundary(self):
        seg = unit_segment_chain()
        result = boundary(seg)
        mult = {s.vertices[0]: s.multiplicity for s in result.simplices}
        assert mult == {
            (F(0), F(0), F(0)): F(-1),
            (F(1), F(0), F(0)): F(1),
        }

    def test_boundary_squared_vanishes(self):
        assert boundary(boundary(unit_cube_chain())).is_empty()

    def test_cube_surface(self):
        surface = boundary(unit_cube_chain())
        assert len(surface.simplices) == 12
        # side faces are frame-flat: each of the four carries measure 1
        for axis, level in ((0, F(0)), (0, F(1)), (1, F(0)), (1, F(1))):
            face = surface.with_simplices(
                s for s in surface.simplices
                if all(v[axis] == level for v in s.vertices))
            assert mass(face) == 1
        # the top and bottom faces tilt out of the horizontal plane:
        # |V|^2 = 1 + (x^2 + y^2)/4 there, so the frame measure exceeds
        # the Euclidean area; fine-grid oracle: 4 + 2*1.0790370119 (2000^2
        # midpoint rule on sqrt(1 + (x^2+y^2)/4))
        assert float(mass(surface)) == pytest.approx(6.158074023851663, abs=1e-3)


class TestStokes:
    def test_high_range_cube(self):
        rng = random.Random(3)
        cube = unit_cube_chain()
        params = cube.params
        from ruminslice.rumin import d_c

        for _ in range(10):
            omega = random_J_form(rng, params, 2)
            c = rumin_class(params, 2, omega)
            lhs = pair_current(boundary(cube), c)
            rhs = pair_current(cube, d_c(c))
            assert lhs == rhs

    def test_low_range_square(self):
        rng = random.Random(4)
        square = horizontal_square_chain()
        params = square.params
        from ruminslice.rumin import d_c

        for _ in range(10):
            omega = random_form(rng, params, 1, max_degree=2, terms=1)
            c = rumin_class(params, 1, omega)
            lhs = pair_current(boundary(square), c)
            rhs = pair_current(square, d_c(c))
            assert lhs == rhs

    def test_degree_zero_classes_on_segment(self):
        # the fundamental theorem along the segment: dT pairs a function
        # class to the endpoint difference, T pairs its differential
        rng = random.Random(5)
        seg = unit_segment_chain()
        params = seg.params
        from ruminslice.polys import Poly
        from ruminslice.rumin import d_c

        endpoints = sorted(seg.vertices())
        for _ in range(10):
            f = Poly(3, {
                (rng.randint(0, 3), 0, 0): Fraction(rng.randint(-9, 9))
                for _ in range(3)
            })
            c = rumin_class(params, 0, PolyForm.from_poly(params, f))
            lhs = pair_current(boundary(seg), c)
            assert lhs == f.evaluate(endpoints[1]) - f.evaluate(endpoints[0])
            assert lhs == pair_current(seg, d_c(c))


class TestAdmissibility:
    def test_horizontal_plane_admissible(self):
        v = MultiVector(5, 2, {(0, 1): F(1)})  # X1 ^ X2
        assert is_admissible(v, 2)

    def test_vertical_direction_not_admissible(self):
        assert not is_admissible(MultiVector(3, 1, {(2,): F(1)}), 1)

    def test_symplectic_plane_not_admissible(self):
        v = MultiVector(5, 2, {(0, 2): F(1)})  # X1 ^ Y1 pairs with dual of dtheta
        assert not is_admissible(v, 2)

    def test_grade_restriction(self):
        with pytest.raises(ParameterError):
            is_admissible(MultiVector(3, 2, {(0, 1): F(1)}), 1)


class TestWeightedRestriction:
    def test_unit_weight_matches_pairing(self):
        seg = unit_segment_chain()
        params = seg.params
        omega = const_form(params, (0,))
        functional = restrict_by_fn(seg, lambda p: 1)
        assert functional.pair(omega) == pair_form(seg, omega)

    def test_zero_weight(self):
        seg = unit_segment_chain()
        functional = restrict_by_fn(seg, lambda p: 0)
        assert functional.pair(const_form(seg.params, (0,))) == 0

    def test_clamped_ramp_hand_value(self):
        # gamma with t=0, h=1/2 along f=x on the unit segment:
        # int_0^(1/2) 2s ds + int_(1/2)^1 1 ds = 1/4 + 1/2 = 3/4, exactly
        seg = unit_segment_chain()
        params = seg.params
        weight = GammaWeight((F(1), F(0), F(0)), F(0), F(0), F(1, 2))
        functional = restrict_by_fn(seg, weight)
        assert functional.pair(const_form(params, (0,))) == F(3, 4)

    def test_ramp_above_the_whole_chain_pairs_to_fraction_zero(self):
        # the ramp is 0 on the whole segment: no piece is kept, and the
        # pairing is still an exact 0
        seg = unit_segment_chain()
        functional = restrict_by_fn(seg, GammaWeight((F(1), F(0), F(0)), F(0), F(2), F(1, 2)))
        assert functional.chain.is_empty()
        value = functional.pair(const_form(seg.params, (0,)))
        assert value == 0 and isinstance(value, Fraction)

    def test_indicator_weight_matches_restriction(self):
        # sampling an indicator is exact once the chain is split along
        # the cut, where every quadrature node sees a constant weight
        cube = unit_cube_chain()
        params = cube.params
        hs = HalfSpace((F(1), F(0), F(0)), F(1, 3), ">")
        clipped = restrict_to_set(cube, [hs])
        split = clipped + restrict_to_set(cube, [hs.complement()])
        functional = restrict_by_fn(split, lambda p: 1 if p.x[0] > F(1, 3) else 0)
        omega = wedge_forms(PolyForm.theta(params), const_form(params, (0, 1)))
        assert functional.pair(omega) == pair_form(clipped, omega)


def test_dual_boundary_functional_middle_degree():
    # the middle-dimension dual boundary is only a functional: T(D omega)
    rng = random.Random(5)
    params = HeisParams(1)
    square = SimplicialCurrent(params, 2, [
        Simplex(((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(1), F(1), F(0))), F(1)),
        Simplex(((F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(1), F(0))), F(1)),
    ])
    functional = dual_boundary_functional(square)
    omega = random_form(rng, params, 1, max_degree=2, terms=1)
    c = rumin_class(params, 1, omega)
    value = functional(c)
    direct = pair_form(square, exterior_d(
        c.payload + wedge_forms(PolyForm.theta(params),
                                __import__('ruminslice').script_L(c.payload))))
    assert value == direct


def test_zero_multiplicity_simplices_dropped():
    params = HeisParams(1)
    chain = SimplicialCurrent(params, 1, [
        Simplex(((F(0), F(0), F(0)), (F(1), F(0), F(0))), F(0)),
    ])
    assert chain.is_empty()


def test_degenerate_simplex_rejected():
    with pytest.raises(ParameterError):
        Simplex(((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(2), F(0), F(0))), F(1))

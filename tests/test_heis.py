"""Group structure, dilations, Koranyi metric, frame change."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import origin

from ruminslice import (
    DimensionMismatchError,
    ParameterError,
    Point,
    dilate,
    frame_change,
    frame_to_coords,
    group_inv,
    group_mul,
    koranyi_dist,
    koranyi_norm,
    koranyi_norm_fourth,
)


def pt(*coords):
    return Point.from_coords([Fraction(c) for c in coords])


def fpt(coords):
    return Point.from_coords([float(c) for c in coords])


def rand_point(rng, n):
    return Point.from_coords([rng.uniform(-1, 1) for _ in range(2 * n + 1)])


class TestGroupLaw:
    def test_identity_element(self):
        p = pt(3, -2, 5)
        assert group_mul(p, pt(0, 0, 0)) == p
        assert group_mul(pt(0, 0, 0), p) == p

    def test_product_hand_value(self):
        # evaluate the product formula by hand: skew term (1*1 - 0*0)/2
        assert group_mul(pt(1, 0, 0), pt(0, 1, 0)) == pt(1, 1, Fraction(1, 2))

    def test_non_commutativity(self):
        assert group_mul(pt(0, 1, 0), pt(1, 0, 0)) == pt(1, 1, Fraction(-1, 2))

    def test_inverse_is_negation(self):
        assert group_inv(pt(1, 2, 3)) == pt(-1, -2, -3)
        assert group_inv(pt(0, 0, 0)) == pt(0, 0, 0)

    def test_inverse_property_random(self):
        rng = random.Random(5)
        for _ in range(50):
            coords = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(5)]
            p = Point.from_coords(coords)
            assert group_mul(p, group_inv(p)) == origin(2)
            assert group_mul(group_inv(p), p) == origin(2)

    def test_associativity_random_exact(self):
        rng = random.Random(6)
        for _ in range(30):
            p, q, r = (
                Point.from_coords([Fraction(rng.randint(-9, 9), 4) for _ in range(3)])
                for _ in range(3)
            )
            assert group_mul(group_mul(p, q), r) == group_mul(p, group_mul(q, r))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            group_mul(pt(1, 2, 3), origin(2))


coordinate = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def points(draw, count):
    """``count`` exact points of one group H^n, n = 1..3."""
    n = draw(st.integers(min_value=1, max_value=3))
    return [Point.from_coords(draw(st.tuples(*(coordinate for _ in range(2 * n + 1)))))
            for _ in range(count)]


class TestGeneratedGroupLaws:
    @given(points(1))
    def test_identity_and_inverse(self, pts):
        (p,) = pts
        e = origin(p.n)
        assert group_mul(p, e) == group_mul(e, p) == p
        assert group_mul(p, group_inv(p)) == group_mul(group_inv(p), p) == e

    @given(points(3))
    def test_associativity(self, pts):
        p, q, r = pts
        assert group_mul(group_mul(p, q), r) == group_mul(p, group_mul(q, r))

    @given(points(2), st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20))
    def test_dilation_is_a_homomorphism(self, pts, r):
        p, q = pts
        assert dilate(r, group_mul(p, q)) == group_mul(dilate(r, p), dilate(r, q))
        assert dilate(r, group_inv(p)) == group_inv(dilate(r, p))


class TestDilations:
    def test_unit_dilation(self):
        p = pt(2, 3, 4)
        assert dilate(Fraction(1), p) == p

    def test_hand_value(self):
        assert dilate(Fraction(2), pt(1, 1, 1)) == pt(2, 2, 4)

    def test_one_parameter_group(self):
        rng = random.Random(7)
        for _ in range(40):
            r = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            s = Fraction(rng.randint(1, 20), rng.randint(1, 20))
            p = Point.from_coords([Fraction(rng.randint(-9, 9)) for _ in range(3)])
            assert dilate(r, dilate(s, p)) == dilate(r * s, p)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ParameterError):
            dilate(0, pt(1, 0, 0))
        with pytest.raises(ParameterError):
            dilate(-2, pt(1, 0, 0))


class TestKoranyi:
    def test_self_distance_zero(self):
        p = pt(1, 2, 3)
        assert koranyi_dist(p, p) == 0

    def test_vertical_norm(self):
        # fourth power form stays rational: |(0,0)|^4 + 16 = 16
        assert koranyi_norm_fourth(pt(0, 0, 1)) == 16
        assert koranyi_norm(pt(0, 0, 1)) == pytest.approx(2.0, abs=1e-15)

    def test_horizontal_norm(self):
        assert koranyi_norm(pt(3, 4, 0)) == pytest.approx(5.0, abs=1e-12)
        assert koranyi_norm_fourth(pt(3, 4, 0)) == 625

    def test_left_invariance_float(self):
        rng = random.Random(8)
        for _ in range(500):
            p, q, r = (rand_point(rng, 1) for _ in range(3))
            lhs = koranyi_dist(group_mul(p, q), group_mul(p, r))
            rhs = koranyi_dist(q, r)
            assert abs(lhs - rhs) <= 1e-12 * (1 + rhs)

    def test_homogeneity_float(self):
        rng = random.Random(9)
        for _ in range(500):
            p, q = (rand_point(rng, 1) for _ in range(2))
            r = rng.uniform(0.01, 10.0)
            lhs = koranyi_dist(dilate(r, p), dilate(r, q))
            rhs = r * koranyi_dist(p, q)
            assert abs(lhs - rhs) <= 1e-12 * (1 + rhs)

    def test_metric_axioms_float(self):
        rng = random.Random(10)
        for _ in range(500):
            p, q, r = (rand_point(rng, 1) for _ in range(3))
            assert abs(koranyi_dist(p, q) - koranyi_dist(q, p)) <= 1e-12
            assert koranyi_dist(p, r) <= koranyi_dist(p, q) + koranyi_dist(q, r) + 1e-12


def _det(matrix):
    # cofactor expansion; independent of the library's linear algebra
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Fraction(0)
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


class TestFrameChange:
    def test_vertical_direction_fixed(self):
        p = pt(5, -7, 2)
        assert frame_change(p, (0, 0, 1)) == (0, 0, Fraction(1))

    def test_x_direction_picks_up_t(self):
        # invert X = d/dx - (1/2) y d/dt by hand at p = (0, y0, 0)
        y0 = Fraction(3, 2)
        p = Point((Fraction(0),), (y0,), Fraction(0))
        assert frame_change(p, (1, 0, 0)) == (1, 0, y0 / 2)

    def test_round_trip_exact(self):
        rng = random.Random(11)
        for n in (1, 2):
            for _ in range(30):
                p = Point.from_coords(
                    [Fraction(rng.randint(-9, 9), 3) for _ in range(2 * n + 1)])
                v = tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(2 * n + 1))
                assert frame_to_coords(p, frame_change(p, v)) == v
                assert frame_change(p, frame_to_coords(p, v)) == v

    def test_unipotent_determinant_one(self):
        rng = random.Random(12)
        for n in (1, 2):
            dim = 2 * n + 1
            p = Point.from_coords([Fraction(rng.randint(-9, 9), 2) for _ in range(dim)])
            basis = [tuple(Fraction(int(i == j)) for i in range(dim)) for j in range(dim)]
            columns = [frame_change(p, e) for e in basis]
            matrix = [[columns[j][i] for j in range(dim)] for i in range(dim)]
            assert _det(matrix) == 1

"""Exact polynomial ring basics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import scale_vars

from ruminslice.polys import Poly


def test_constructor_drops_zeros():
    p = Poly(3, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert p.terms == {(0, 1, 0): Fraction(2)}


def test_arithmetic_ring_axioms_random():
    rng = random.Random(1)

    def rand():
        return Poly(3, {
            tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-5, 5))
            for _ in range(3)
        })

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == Poly.zero(3)


def test_power_matches_repeated_product():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x + 2 * y
    assert p ** 3 == p * p * p
    assert p ** 0 == Poly.const(2, 1)


def test_partial_derivative():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x * x * y + 3 * y
    assert p.partial(0) == 2 * x * y
    assert p.partial(1) == x * x + Poly.const(2, 3)


def test_partials_commute_random():
    rng = random.Random(2)
    for _ in range(30):
        p = Poly(3, {
            tuple(rng.randint(0, 3) for _ in range(3)): Fraction(rng.randint(-9, 9))
            for _ in range(4)
        })
        assert p.partial(0).partial(2) == p.partial(2).partial(0)


def test_evaluate_exact_and_float():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x * y + Poly.const(2, Fraction(1, 2))
    assert p.evaluate((Fraction(2), Fraction(3))) == Fraction(13, 2)
    assert p.evaluate((2.0, 3.0)) == pytest.approx(6.5)


def test_scale_vars():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x * x + y
    r = Fraction(3)
    assert scale_vars(p, (r, r * r)) == 9 * x * x + 9 * y


def test_degree_and_constants():
    assert Poly.zero(2).total_degree() == 0
    assert Poly.const(2, 5).is_constant()
    p = Poly.var(2, 0) ** 3
    assert p.total_degree() == 3
    assert not p.is_constant()


def test_hash_agrees_with_equality():
    x = Poly.var(2, 0)
    half = Fraction(1, 2)
    # a constant polynomial equals its value, so it must hash as that value does
    for value in (0, 2, -7, half, Fraction(10, 10007)):
        poly = Poly.const(2, value)
        assert poly == value
        assert hash(poly) == hash(value)
    assert hash(Poly.zero(3)) == hash(0)
    table = {2: "int", half: "fraction", x + 1: "poly"}
    assert table[Poly.const(2, 2)] == "int"
    assert table[Poly.const(3, Fraction(2, 4))] == "fraction"
    assert table[Poly.var(2, 0) + Poly.const(2, 1)] == "poly"
    table[Poly.const(2, 2)] = "replaced"
    assert table[2] == "replaced" and len(table) == 3
    # other polynomials hash on their normal form
    a = x * Fraction(2, 3) + Poly.const(2, half)
    b = Poly(2, {(1, 0): Fraction(4, 6), (0, 0): Fraction(3, 6)})
    assert a == b and hash(a) == hash(b)
    assert (a.den, a.nums) == (6, {(1, 0): 4, (0, 0): 3})


def test_bool_coefficients_are_refused():
    with pytest.raises(TypeError):
        Poly(1, {(1,): True})
    with pytest.raises(TypeError):
        Poly.const(2, False)
    with pytest.raises(TypeError):
        Poly.var(2, 0) * True


def test_normal_form():
    x = Poly.var(2, 0)
    p = x * Fraction(3, 4) + Fraction(1, 6)
    assert (p.den, p.nums) == (12, {(1, 0): 9, (0, 0): 2})
    assert p.terms == {(1, 0): Fraction(3, 4), (0, 0): Fraction(1, 6)}
    # a sum whose denominators cancel is reduced once
    q = p + x * Fraction(1, 4)
    assert (q.den, q.nums) == (6, {(1, 0): 6, (0, 0): 1})
    assert (p - p).den == 1 and (p - p).nums == {}
    assert ((x * x * Fraction(1, 2)).partial(0)) == x
    assert (x * x * Fraction(1, 2)).partial(0).den == 1

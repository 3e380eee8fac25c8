"""Grundmann-Moller rules: exactness against the Dirichlet integral."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from conftest import integrate_parametric

from ruminslice.quadrature import grundmann_moller, rule_for_degree


def dirichlet_integral(exponents):
    """Exact integral of prod s_i^(a_i) over the standard simplex.

    Classical closed form: prod(a_i!) / (k + sum a_i)! for the simplex
    {s_i >= 0, sum s_i <= 1} in R^k.
    """
    k = len(exponents)
    numerator = 1
    for a in exponents:
        numerator *= factorial(a)
    return Fraction(numerator, factorial(k + sum(exponents)))


def unit_vertices(k):
    vertices = [tuple(Fraction(0) for _ in range(k))]
    for i in range(k):
        vertices.append(tuple(Fraction(int(i == j)) for j in range(k)))
    return vertices


def all_exponents(k, degree):
    if k == 0:
        yield ()
        return
    for head in range(degree + 1):
        for rest in all_exponents(k - 1, degree - head):
            yield (head,) + rest


def test_weights_sum_to_parameter_volume():
    for k in range(0, 4):
        for s in range(0, 4):
            rule = grundmann_moller(k, s)
            assert sum(w for _, w in rule) == Fraction(1, factorial(k))


def test_nodes_are_interior_barycentric():
    for k in range(1, 4):
        for s in range(0, 3):
            for barycentric, _ in grundmann_moller(k, s):
                assert len(barycentric) == k + 1
                assert sum(barycentric) == 1
                assert all(c > 0 for c in barycentric)


def test_polynomial_exactness_all_monomials():
    for k in (1, 2, 3):
        vertices = unit_vertices(k)
        for s in (0, 1, 2, 3):
            rule = grundmann_moller(k, s)
            for exponents in all_exponents(k, 2 * s + 1):

                def monomial(coords, exponents=exponents):
                    value = Fraction(1)
                    for base, a in zip(coords, exponents):
                        value *= base ** a
                    return value

                assert integrate_parametric(vertices, rule, monomial) == \
                    dirichlet_integral(exponents)


def test_rule_for_degree_covers_requested_degree():
    for k in (1, 2, 3):
        for degree in range(0, 8):
            rule = rule_for_degree(k, degree)
            vertices = unit_vertices(k)
            exponents = (degree,) + (0,) * (k - 1)

            def monomial(coords, exponents=exponents):
                value = Fraction(1)
                for base, a in zip(coords, exponents):
                    value *= base ** a
                return value

            assert integrate_parametric(vertices, rule, monomial) == \
                dirichlet_integral(exponents)


def test_affine_chart_shift_invariance():
    # integrating a constant over a shifted, scaled segment keeps the
    # parameter normalization: the chart pullback is what the caller owns
    rule = grundmann_moller(1, 1)
    vertices = [(Fraction(3),), (Fraction(7),)]
    assert integrate_parametric(vertices, rule, lambda c: Fraction(1)) == 1
    assert integrate_parametric(vertices, rule, lambda c: c[0]) == 5

"""Exact simplex quadrature via Grundmann-Moller rules.

The rule of index s on the standard k-simplex is exact for polynomials
of total degree <= 2s+1.  Nodes are rational barycentric points and
weights are rationals summing to the parameter volume 1/k!, so
integrating a rational polynomial over a rational simplex stays in Q.

Integrals here are parametric: for a simplex with vertices v_0..v_k,

    integrate(F) = sum_q w_q F(sum_i lambda_qi v_i),

which equals the integral of F over the parameter domain
{s in R^k : s_i >= 0, sum s_i <= 1} pulled back along the affine chart.

The tangent kernel of :mod:`ruminslice.currents` scales a simplex to
integers and never builds the nodes for a mass: it reads each rule as
integer barycentric weights ell over one common denominator D (see
:func:`_integer_rule`), so a node's squared tangent norm is the integer
quadratic form ell^T G ell in the Gram matrix G of the vertex tangents,
over (D * den)^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def grundmann_moller(k: int, s: int) -> tuple:
    """Rule of index s >= 0 on the k-simplex: ((barycentric, weight), ...).

    Exact for total degree <= 2s+1; weights sum to 1/k!.
    """
    if k < 0 or s < 0:
        raise ValueError("need k >= 0 and s >= 0")
    d = 2 * s + 1
    rule = {}
    for i in range(s + 1):
        weight = Fraction(
            (-1) ** i * (d + k - 2 * i) ** d,
            4 ** s * factorial(i) * factorial(d + k - i),
        )
        for beta in _compositions(s - i, k + 1):
            point = tuple(Fraction(2 * b + 1, d + k - 2 * i) for b in beta)
            rule[point] = rule.get(point, Fraction(0)) + weight
    return tuple(sorted((pt, w) for pt, w in rule.items() if w != 0))


def rule_for_degree(k: int, degree: int) -> tuple:
    """Smallest Grundmann-Moller rule exact for the given total degree."""
    return grundmann_moller(k, max(0, degree // 2))


@lru_cache(maxsize=None)
def _integer_rule(k: int, degree: int) -> tuple:
    """(D, ((ell, weight), ...)): :func:`rule_for_degree` with each
    barycentric point as the integers ell = D * lambda, over the rule's one
    common denominator D.  The points keep their order, and each ell sums
    to D."""
    rule = rule_for_degree(k, degree)
    common = lcm(*(lam.denominator for point, _ in rule for lam in point))
    return common, tuple(
        (tuple(lam.numerator * (common // lam.denominator) for lam in point), weight)
        for point, weight in rule)


def parameter_nodes(vertices, rule):
    """Spatial nodes sum_i lambda_i v_i for each rule point."""
    nodes = []
    for barycentric, weight in rule:
        coords = tuple(
            sum(lam * v[axis] for lam, v in zip(barycentric, vertices))
            for axis in range(len(vertices[0]))
        )
        nodes.append((coords, weight))
    return nodes


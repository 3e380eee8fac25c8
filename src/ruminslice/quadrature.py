"""Exact simplex quadrature via Grundmann-Moller rules.

The rule of index s on the standard k-simplex is exact for polynomials
of total degree <= 2s+1.  Nodes are rational barycentric points and
weights are rationals summing to the parameter volume 1/k!, so
integrating a rational polynomial over a rational simplex stays in Q.

Integrals here are parametric: for a simplex with vertices v_0..v_k,

    integrate(F) = sum_q w_q F(sum_i lambda_qi v_i),

which equals the integral of F over the parameter domain
{s in R^k : s_i >= 0, sum s_i <= 1} pulled back along the affine chart.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial


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
    s = max(0, (degree - 1 + 1) // 2) if degree > 1 else 0
    while 2 * s + 1 < degree:
        s += 1
    return grundmann_moller(k, s)


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


def integrate_parametric(vertices, rule, integrand):
    """sum_q w_q F(p_q): the parametric integral of F over a simplex.

    ``vertices`` are the simplex's vertex coordinate tuples, ``rule`` a
    Grundmann-Moller rule on the simplex of that degree (see
    :func:`rule_for_degree`) and ``integrand`` the function F of a
    coordinate tuple.  The result is exact when F is a polynomial of total degree
    at most the rule's and the inputs are rational.  Public API.
    """
    total = 0
    for coords, weight in parameter_nodes(vertices, rule):
        total = total + weight * integrand(coords)
    return total

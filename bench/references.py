"""Reference values computed apart from ruminslice, and the checks that use them.

Nothing here imports the library.  The geometry is that of the unit cube
[0,1]^3 in H^1 with coordinates (x, y, t):

* a horizontal function f = a*x + b*y slices the cube in the vertical strip
  {f = c} x [0,1]; its tangent 2-vector has frame norm 1 per unit of
  Euclidean area, so the slice mass is the length of {a*x + b*y = c} in the
  unit square;
* 3-simplices of H^1 have frame determinant 1, so mu_T of a slab
  {lo < f < hi} is its Euclidean volume, the area of the planar slab;
* the function t slices the cube in horizontal unit squares whose frame
  tangent X + (y/2) T wedge Y - (x/2) T has norm sqrt(1 + (x^2 + y^2)/4),
  so every such slice has the mass integral_{[0,1]^2} of that root.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Relative tolerance on the float mass of a slice by t.  The library
# integrates the root with a degree-5 Grundmann-Moller rule on triangles of
# side 1/2; the integrand is analytic with bounded sixth derivatives, so the
# rule error is O(h^6) and is measured near 1e-8 relative.  1e-6 leaves a
# hundredfold margin and still rejects the 3e-5 error of a coarse rule.
T_MASS_RTOL = 1e-6


def exact_sqrt(value: Fraction):
    """Square root of a nonnegative rational: a Fraction when it closes."""
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return math.sqrt(value)


def segment_length(a, b, c):
    """Length of {a*x + b*y = c} inside the unit square, (a, b) != (0, 0).

    The line is p0 + s*(-b, a) with p0 = c*(a, b)/(a^2 + b^2); the square
    bounds s to an interval, and the length is its width times |(a, b)|.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    norm_sq = a * a + b * b
    if norm_sq == 0:
        raise ValueError("the function must not be constant")
    p0 = (c * a / norm_sq, c * b / norm_sq)
    s_lo, s_hi = None, None
    for base, step in ((p0[0], -b), (p0[1], a)):
        if step == 0:
            if not 0 <= base <= 1:
                return Fraction(0)
            continue
        ends = sorted(((0 - base) / step, (1 - base) / step))
        s_lo = ends[0] if s_lo is None else max(s_lo, ends[0])
        s_hi = ends[1] if s_hi is None else min(s_hi, ends[1])
    if s_hi <= s_lo:
        return Fraction(0)
    return (s_hi - s_lo) * exact_sqrt(norm_sq)


def _clip_polygon(polygon, a, b, c, keep_above):
    """Sutherland-Hodgman clip of a convex polygon by a*x + b*y >= c (or <=)."""
    def inside(p):
        value = a * p[0] + b * p[1] - c
        return value >= 0 if keep_above else value <= 0

    out = []
    for i, current in enumerate(polygon):
        previous = polygon[i - 1]
        if inside(current):
            if not inside(previous):
                out.append(_crossing(previous, current, a, b, c))
            out.append(current)
        elif inside(previous):
            out.append(_crossing(previous, current, a, b, c))
    return out


def _crossing(p, q, a, b, c):
    vp = a * p[0] + b * p[1] - c
    vq = a * q[0] + b * q[1] - c
    lam = vp / (vp - vq)
    return (p[0] + lam * (q[0] - p[0]), p[1] + lam * (q[1] - p[1]))


def _shoelace(polygon):
    twice = sum(p[0] * q[1] - q[0] * p[1]
                for p, q in zip(polygon, polygon[1:] + polygon[:1]))
    return abs(twice) / 2


def slab_area(a, b, lo, hi):
    """Area of {lo < a*x + b*y < hi} inside the unit square, exactly."""
    a, b, lo, hi = (Fraction(v) for v in (a, b, lo, hi))
    zero, one = Fraction(0), Fraction(1)
    square = [(zero, zero), (one, zero), (one, one), (zero, one)]
    clipped = _clip_polygon(square, a, b, lo, keep_above=True)
    if clipped:
        clipped = _clip_polygon(clipped, a, b, hi, keep_above=False)
    if len(clipped) < 3:
        return Fraction(0)
    return _shoelace(clipped)


def midpoint_excess(a, b, lo, hi, grid: int) -> float:
    """Bound on the coarea ratio's excess over 1 from the midpoint rule.

    The sweep integrates the slice length, which is piecewise linear in
    the level with kinks at the corner values of a*x + b*y.  On a cell of
    width w the midpoint rule is exact away from kinks and errs by at most
    J*w^2/8 at a kink whose slope jumps by J.  The bound is the sum over
    kinks inside (lo, hi), relative to |(a, b)| * slab area.
    """
    a, b, lo, hi = (Fraction(v) for v in (a, b, lo, hi))
    width = (hi - lo) / grid
    delta = Fraction(1, 10 ** 9)
    excess = 0.0
    for kink in sorted({Fraction(0), a, b, a + b}):
        if not lo < kink < hi:
            continue
        left = (segment_length(a, b, kink) - segment_length(a, b, kink - delta)) / delta
        right = (segment_length(a, b, kink + delta) - segment_length(a, b, kink)) / delta
        excess += abs(float(right - left)) * float(width) ** 2 / 8
    total = float(exact_sqrt(a * a + b * b)) * float(slab_area(a, b, lo, hi))
    return excess / total


def gauss_legendre(count: int):
    """Nodes and weights of the count-point Gauss-Legendre rule on [0, 1]."""
    nodes = []
    for i in range(1, count + 1):
        x = math.cos(math.pi * (i - 0.25) / (count + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, count + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            derivative = count * (x * p1 - p0) / (x * x - 1)
            step = p1 / derivative
            x -= step
            if abs(step) < 1e-16:
                break
        p0, p1 = 1.0, x
        for k in range(2, count + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        derivative = count * (x * p1 - p0) / (x * x - 1)
        weight = 2.0 / ((1 - x * x) * derivative * derivative)
        nodes.append(((1 - x) / 2, weight / 2))
    return nodes


def integrate_square(integrand, count: int = 24) -> float:
    """Tensor-product Gauss-Legendre integral over the unit square."""
    rule = gauss_legendre(count)
    return math.fsum(wx * wy * integrand(x, y) for x, wx in rule for y, wy in rule)


def t_slice_mass(count: int = 24) -> float:
    """Mass of any slice of the unit cube in H^1 by the function t."""
    return integrate_square(lambda x, y: math.sqrt(1 + (x * x + y * y) / 4), count)


def exact_match(value, reference) -> bool:
    """True when an exact program value equals its exact reference."""
    return isinstance(value, Fraction) and value == reference


def close_match(value, reference, rtol: float = T_MASS_RTOL) -> bool:
    """True when a float program value is within rtol of its reference."""
    return abs(float(value) - reference) <= rtol * abs(reference)

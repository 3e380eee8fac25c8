"""Checks of the benchmark's own reference values against hand values.

    python3 -m pytest bench/test_references.py -q
"""

import math
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import references as ref  # noqa: E402
import workloads  # noqa: E402


def test_segment_length_hand_values():
    # 3x + 4y = c: a corner triangle for c < 3, a full crossing for 3 <= c <= 4
    assert ref.segment_length(3, 4, 1) == F(5, 12)
    assert ref.segment_length(3, 4, F(7, 2)) == F(5, 4)
    assert ref.segment_length(3, 4, 6) == F(5, 12)
    assert ref.segment_length(3, 4, 8) == 0
    assert ref.segment_length(1, 0, F(1, 2)) == 1
    assert ref.segment_length(1, 0, 2) == 0
    assert ref.segment_length(1, 1, F(1, 2)) == math.sqrt(2) / 2


def test_slab_area_hand_values():
    assert ref.slab_area(3, 4, 0, 7) == 1
    assert ref.slab_area(3, 4, 3, 4) == F(1, 4)
    assert ref.slab_area(3, 4, 0, 3) == F(3, 8)
    assert ref.slab_area(1, 0, F(1, 4), F(3, 4)) == F(1, 2)
    assert ref.slab_area(1, 0, 2, 3) == 0


def test_slab_area_is_the_integral_of_segment_lengths():
    # coarea in the plane: area = integral of length dc / |(a, b)|; the
    # length is piecewise linear with kinks at 3 and 4, so Simpson on each
    # piece is exact
    pieces = [(F(1, 3), F(3)), (F(3), F(4)), (F(4), F(13, 2))]
    integral = sum((hi - lo) / 6 * (ref.segment_length(3, 4, lo)
                                    + 4 * ref.segment_length(3, 4, (lo + hi) / 2)
                                    + ref.segment_length(3, 4, hi))
                   for lo, hi in pieces)
    assert integral / 5 == ref.slab_area(3, 4, F(1, 3), F(13, 2))


def test_gauss_legendre_integrates_polynomials_and_closed_forms():
    assert math.isclose(ref.integrate_square(lambda x, y: x * x * y * y), 1 / 9, rel_tol=1e-14)
    rule = ref.gauss_legendre(24)
    closed = (math.sqrt(2) + math.asinh(1)) / 2  # integral_0^1 sqrt(1 + x^2) dx
    assert math.isclose(math.fsum(w * math.sqrt(1 + x * x) for x, w in rule), closed,
                        rel_tol=1e-14)


def test_t_slice_mass_against_a_closed_inner_integral():
    # inner integral in closed form, outer one by composite Simpson
    def inner(x):
        c = 4 + x * x  # sqrt(1 + (x^2 + y^2)/4) = sqrt(c + y^2) / 2
        root = math.sqrt(c + 1)
        return (root / 2 + c / 2 * math.log((1 + root) / math.sqrt(c))) / 2

    steps = 2000
    h = 1 / steps
    simpson = h / 3 * math.fsum(
        (1 if i in (0, steps) else 4 if i % 2 else 2) * inner(i * h) for i in range(steps + 1))
    assert math.isclose(ref.t_slice_mass(), simpson, rel_tol=1e-12)
    assert math.isclose(ref.t_slice_mass(16), ref.t_slice_mass(32), rel_tol=1e-14)


def test_checks_reject_perturbed_masses():
    exact = ref.segment_length(3, 4, F(2113, 1000))
    assert ref.exact_match(exact, F(2113, 2400))
    assert not ref.exact_match(exact + F(1, 10 ** 12), exact)
    assert not ref.exact_match(float(exact), exact)
    mass = ref.t_slice_mass()
    assert ref.close_match(mass * (1 + 1e-8), mass)
    assert not ref.close_match(mass * (1 + 1e-5), mass)
    assert not ref.close_match(mass * (1 - 3.1e-5), mass)


def test_midpoint_excess_bounds_the_midpoint_sum():
    for lo, hi, grid in ((F(9209, 10007), F(43751, 10007), 3), (F(2), F(3), 2),
                         (F(1, 3), F(13, 2), 5), (F(3, 10), F(27, 10), 4)):
        width = (hi - lo) / grid
        mids = [lo + width * F(2 * i + 1, 2) for i in range(grid)]
        ratio = width * sum(ref.segment_length(3, 4, m) for m in mids) / (5 * ref.slab_area(3, 4, lo, hi))
        assert 1 <= ratio <= 1 + ref.midpoint_excess(3, 4, lo, hi, grid)
    # no kink inside the window: the midpoint rule is exact
    assert ref.midpoint_excess(3, 4, F(1, 3), F(14, 5), 3) == 0


def test_levels_are_generic_and_spread():
    avoid = workloads.grid_values(2, (3, 4, 0))
    points = [workloads.spread_point(0.3, r, 0, 7, avoid) for r in range(8)]
    assert all(0 < p < 7 and p not in avoid for p in points)
    assert {int(p) for p in points} == set(range(7))
    assert [workloads.van_der_corput(r) for r in range(4)] == [0.0, 0.5, 0.25, 0.75]

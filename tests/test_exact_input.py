"""Float input is converted exactly where it enters the library.

Every finite float is a dyadic rational, so ``Simplex``, ``HalfSpace``,
``AffineFunction``, ``GammaWeight`` and the level arguments of the slicing
functions turn floats into Fractions with no rounding, and everything
downstream is exact.  A float vertex near a level is therefore strictly on
one side of it; only an exact hit raises :class:`DegenerateLevelError`.
NaN, infinities and non-numbers raise :class:`ParameterError`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import unit_cube_chain

from ruminslice import (
    DegenerateLevelError,
    GammaWeight,
    HalfSpace,
    HeisParams,
    ParameterError,
    Simplex,
    SimplicialCurrent,
    boundary,
    slice_minus,
    slice_plus,
)
from ruminslice.clipping import exact
from ruminslice.slicing import (
    AffineFunction,
    band_measure,
    band_trend,
    coarea_sweep,
    measure_between,
    property_report,
)

F = Fraction
BAD = [math.nan, math.inf, -math.inf, "1/2", None]
BAD_IDS = ["nan", "inf", "-inf", "string", "None"]


def tetrahedron(vertices, multiplicity=1):
    return SimplicialCurrent(HeisParams(1), 3, [Simplex(vertices, multiplicity)])


def converted(vertices):
    return tuple(tuple(F(c) for c in v) for v in vertices)


def test_exact_keeps_ints_and_fractions_and_converts_floats():
    assert exact(3) == F(3) and isinstance(exact(3), F)
    assert exact(F(2, 7)) == F(2, 7)
    assert exact(0.1) == F(3602879701896397, 36028797018963968)
    assert exact(-0.0) == 0
    assert exact(5e-324) == F(1, 2 ** 1074)


# -- the crash tetrahedron ----------------------------------------------------


@pytest.mark.parametrize("eps", [1e-11, 1e-9, 1e-8, 1e-7])
def test_tetrahedron_near_the_level_slices_exactly(eps):
    # a vertex eps off the level used to fall outside a float tolerance,
    # and the sliver dropped next to it left an off-level face behind
    vertices = ((0.5 + eps, 0, 0), (-0.2, 1, 0.2), (1.1, 0.3, 1), (0.3, -0.8, 0.5))
    f = AffineFunction((1.0, 0.0, 0.0))
    result = slice_plus(tetrahedron(vertices), f, 0.5)
    reference = slice_plus(tetrahedron(converted(vertices)), AffineFunction((1, 0, 0)),
                           F(1, 2))
    assert result.residual == 0.0
    assert result.chain == reference.chain
    assert len(result.chain.simplices) == 2
    assert result.mass == reference.mass
    assert result.level == F(1, 2)


# -- float tetrahedra with a vertex near the level ----------------------------


coordinate = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(others=st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=3, max_size=3),
       near=st.tuples(coordinate, coordinate),
       coeffs=st.tuples(st.floats(min_value=0.25, max_value=2.0), coordinate, coordinate),
       level=st.floats(min_value=-0.5, max_value=0.5),
       power=st.floats(min_value=-15.0, max_value=-6.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_float_tetrahedron_with_a_vertex_near_the_level(others, near, coeffs, level, power,
                                                        sign):
    a, b, c = coeffs
    y, t = near
    # f(vertex) = level + delta, up to the rounding of this float expression
    delta = sign * 10.0 ** power
    vertex = ((level + delta - b * y - c * t) / a, y, t)
    try:
        T = tetrahedron([vertex] + others)
    except ParameterError:
        assume(False)  # exactly degenerate
    f = AffineFunction(coeffs)
    try:
        plus = slice_plus(T, f, level)
    except DegenerateLevelError:
        assert any(f(v) == F(level) for v in T.vertices())
        return
    minus = slice_minus(T, f, level)
    assert plus.chain == minus.chain
    assert plus.residual == minus.residual == 0.0
    assert all(f(v) == F(level) for s in plus.chain.simplices for v in s.vertices)
    if not plus.chain.is_empty():
        assert boundary(boundary(plus.chain)).is_empty()
    assert boundary(boundary(T)).is_empty()


# -- NaN, infinities and non-numbers ------------------------------------------


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
def test_constructors_refuse_non_finite_numbers(bad):
    good = ((0, 0, 0), (1, 0, 0))
    with pytest.raises(ParameterError):
        Simplex(((bad, 0, 0), (1, 0, 0)))
    with pytest.raises(ParameterError):
        Simplex(good, bad)
    with pytest.raises(ParameterError):
        AffineFunction((1, bad, 0))
    with pytest.raises(ParameterError):
        AffineFunction((1, 0, 0), bad)
    with pytest.raises(ParameterError):
        HalfSpace((bad, 0, 0), 0)
    with pytest.raises(ParameterError):
        HalfSpace((1, 0, 0), bad)
    for index in range(4):
        fields = [(1, 0, 0), 0, F(1, 4), F(1, 8)]
        fields[index] = (bad, 0, 0) if index == 0 else bad
        with pytest.raises(ParameterError):
            GammaWeight(*fields)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
def test_level_arguments_refuse_non_finite_numbers(bad):
    cube = unit_cube_chain()
    f = AffineFunction((1, 0, 0))
    quarter = F(1, 4)
    calls = [
        lambda: slice_plus(cube, f, bad),
        lambda: slice_minus(cube, f, bad),
        lambda: measure_between(cube, f, bad, 1),
        lambda: measure_between(cube, f, 0, bad),
        lambda: band_measure(cube, f, bad, quarter),
        lambda: band_measure(cube, f, quarter, bad),
        lambda: band_trend(cube, f, bad, [quarter]),
        lambda: band_trend(cube, f, F(1, 3), [quarter, bad]),
        lambda: coarea_sweep(cube, f, bad, 1, 2),
        lambda: coarea_sweep(cube, f, 0, bad, 2),
        lambda: property_report(cube, f, [F(1, 3), bad]),
        lambda: property_report(cube, f, [F(1, 3)], h_values=[bad]),
        lambda: property_report(cube, f, [F(1, 3)], sweep=(bad, 1, 2)),
        lambda: property_report(cube, f, [F(1, 3)], sweep=(0, bad, 2)),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_float_levels_give_the_exact_results():
    cube = unit_cube_chain()
    f = AffineFunction((1.0, 0.0, 0.0))
    g = AffineFunction((1, 0, 0))
    assert slice_plus(cube, f, 0.25).chain == slice_plus(cube, g, F(1, 4)).chain
    assert band_measure(cube, f, 0.25, 0.125) == F(1, 8)
    float_sweep = coarea_sweep(cube, f, 0.125, 0.75, 3)
    exact_sweep = coarea_sweep(cube, g, F(1, 8), F(3, 4), 3)
    assert float_sweep == exact_sweep
    assert [row.t for row in float_sweep.rows] == [F(11, 48), F(7, 16), F(31, 48)]

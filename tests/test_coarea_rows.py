"""Closed-form coarea rows against the slices they stand for.

A sweep takes a row's slice mass in closed form when every simplex the
level crosses (folded by vertex set into a net multiplicity) has a
constant tangent and a rational |V_S -| df|, and no two distinct
crossing edges meet the level at one point: the row is then
sum |net m_S| |V_S -| df| / k! F_S'(t), with F_S' the simplex-spline
density of f's values at S's vertices.  Every other row slices.  These
tests hold every row to the mass of ``conftest.fraction_slice`` at its
midpoint, value and type alike, on generated chains over H^1 and H^2
with repeated, reordered and cancelling cells, and check which rows
slice.  Three faults must fail the same comparison: an off-by-one knot
interval in the cached spline pieces (which must fail the window
measures too), a sign-flipped density and a net summed as |m| per cell.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fixture, fraction_slice, fraction_tangent, fraction_tangent_at
import test_exact_sums

from ruminslice import (
    AffineFunction,
    DegenerateLevelError,
    HeisParams,
    ParameterError,
    Simplex,
    SimplicialCurrent,
)
from ruminslice import slicing
from ruminslice.clipping import _cut_point
from ruminslice.currents import _Cell
from ruminslice.slicing import coarea_sweep

F = Fraction


def is_square(value: Fraction) -> bool:
    return all(math.isqrt(x) ** 2 == x for x in (value.numerator, value.denominator))


def closed_form_applies(T, f, t) -> bool:
    """The closed-form rule on Fractions: every crossing simplex of T's
    canonical chain has a constant tangent and a rational |V -| df|, and
    every cut point lies on one crossing edge only."""
    edges_at = {}
    for s in T.canonical().simplices:
        values = [f(v) for v in s.vertices]
        if not min(values) < t < max(values):
            continue
        tangent = fraction_tangent(T.params.n, s)
        if not tangent[2]:
            return False
        contracted = Counter()
        for blade, c in fraction_tangent_at(tangent, s.vertices[0]).items():
            for j, axis in enumerate(blade):
                contracted[blade[:j] + blade[j + 1:]] += (-1) ** j * f.coeffs[axis] * c
        if not is_square(sum(c * c for c in contracted.values())):
            return False
        for (u, fu), (w, fw) in combinations(zip(s.vertices, values), 2):
            if (fu - t) * (fw - t) < 0:
                point = _cut_point(u, w, fu - t, fw - t)
                edges_at.setdefault(point, set()).add(frozenset((u, w)))
    return all(len(edges) == 1 for edges in edges_at.values())


def assert_rows_are_the_slices(T, f, a, b, grid, monkeypatch):
    """Every row of the sweep is the Fraction-path slice mass at its
    midpoint, value and type; a refused sweep is refused at its first
    midpoint on a vertex, with the slice's message.  Returns the levels
    the sweep sliced."""
    sliced = []
    original = slicing._slice

    def recording(T, f, t, *args, **kwargs):
        sliced.append(t)
        return original(T, f, t, *args, **kwargs)

    monkeypatch.setattr(slicing, "_slice", recording)
    width = (b - a) / grid
    levels = [a + width * F(2 * i + 1, 2) for i in range(grid)]
    try:
        result = coarea_sweep(T, f, a, b, grid)
    except DegenerateLevelError as exc:
        for t in levels:
            try:
                fraction_slice(T, f, t, "+", certify=False)
            except DegenerateLevelError as expected:
                assert str(exc) == str(expected)
                return sliced
        raise
    finally:
        monkeypatch.setattr(slicing, "_slice", original)
    assert [row.t for row in result.rows] == levels
    for row in result.rows:
        expected = fraction_slice(T, f, row.t, "+", certify=False).mass
        assert row.mass == expected, row.t
        assert type(row.mass) is type(expected), row.t
    return sliced


# -- generated chains -----------------------------------------------------------

coordinate = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
multiplicity = st.sampled_from((F(-2), F(-1), F(1, 2), F(1), F(3), F(2, 3)))
factor = st.sampled_from((F(-1), F(1), F(1, 2), F(-3)))
# horizontal f, many with a rational |(a, b)|
COEFFS = {1: ((1, 0), (3, 4), (F(1, 2), F(2, 3)), (0, 2), (1, 1), (1, 2)),
          2: ((1, 0, 0, 0), (0, 3, 4, 0), (1, 2, 0, 2), (0, 0, 0, 1), (1, 1, 0, 0),
              (F(1, 2), 0, F(2, 3), 0))}
# slice dimensions other than n
DEGREES = {1: (1, 3), 2: (1, 2, 4)}


@st.composite
def sweep_cases(draw):
    """(T, f, a, b, grid): a small chain over H^1 or H^2 with repeated,
    reordered and rescaled copies of its simplices, a horizontal f and a
    window inside f's range.  Zeroing the y axes (or x_n) of every vertex
    makes the tangents constant; without it, H^2's 2- and 4-simplices
    mostly have varying tangents."""
    n = draw(st.sampled_from((1, 2)))
    params = HeisParams(n)
    degree = draw(st.sampled_from(DEGREES[n]))
    flats = [flat for flat in ((), tuple(range(n, 2 * n)), (n - 1,))
             if params.dim - len(flat) >= degree]
    flat = draw(st.sampled_from(flats))
    simplices = []
    for _ in range(draw(st.integers(1, 3))):
        vertices = [tuple(F(0) if axis in flat else draw(coordinate)
                          for axis in range(params.dim)) for _ in range(degree + 1)]
        try:
            simplices.append(Simplex(tuple(vertices), draw(multiplicity)))
        except ParameterError:
            assume(False)
    for s in list(simplices):
        for _ in range(draw(st.integers(0, 2))):
            order = draw(st.permutations(range(degree + 1)))
            simplices.append(Simplex(tuple(s.vertices[i] for i in order),
                                     s.multiplicity * draw(factor)))
    T = SimplicialCurrent(params, degree, simplices)
    f = AffineFunction(tuple(F(c) for c in draw(st.sampled_from(COEFFS[n]))) + (F(0),),
                       draw(st.sampled_from((F(0), F(1, 3)))))
    values = sorted({f(v) for v in T.vertices()})
    assume(len(values) > 1)
    span = values[-1] - values[0]
    start = draw(st.fractions(F(0), F(9, 10), max_denominator=20))
    length = draw(st.fractions(F(1, 20), 1 - start, max_denominator=20))
    a = values[0] + span * start
    return T, f, a, a + span * length, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(case=sweep_cases())
def test_every_row_is_the_slice_mass(case):
    T, f, a, b, grid = case
    with pytest.MonkeyPatch.context() as patch:
        sliced = assert_rows_are_the_slices(T, f, a, b, grid, patch)
    width = (b - a) / grid
    for i in range(grid):
        t = a + width * F(2 * i + 1, 2)
        if any(f(v) == t for v in T.vertices()):
            break
        # varying tangents, irrational norms and shared cut points slice
        assert (t in sliced) != closed_form_applies(T, f, t), t


# -- fixed cases ----------------------------------------------------------------


def segment(a, b, m=F(1)):
    return Simplex((tuple(F(c) for c in a), tuple(F(c) for c in b)), m)


def test_edges_crossing_on_the_level_slice(monkeypatch):
    # the segments cross at (1/2, 1/2, 0), where x1 = 1/2 meets both and
    # their point sections cancel: f rises along one and falls along the
    # other.  The closed form cannot see that, so the row slices: mass 0
    T = SimplicialCurrent(HeisParams(1), 1, [segment((0, 0, 0), (1, 1, 0)),
                                             segment((1, 0, 0), (0, 1, 0))])
    f = AffineFunction((F(1), F(0), F(0)))
    assert assert_rows_are_the_slices(T, f, F(0), F(1), 1, monkeypatch) == [F(1, 2)]
    assert coarea_sweep(T, f, F(0), F(1), 1).rows[0].mass == 0
    # off the crossing each segment has its own section: closed form, mass 2
    assert assert_rows_are_the_slices(T, f, F(0), F(1, 2), 1, monkeypatch) == []
    assert coarea_sweep(T, f, F(0), F(1, 2), 1).rows[0].mass == 2


@pytest.mark.parametrize("name, coeffs, a, b, grid", [
    ("cube_h1.json", (1, 0, 0), F(0), F(1), 8),
    ("cube_h1.json", (3, 4, 0), F(9209, 10007), F(43751, 10007), 3),
    ("segment_h1.json", (1, 0, 0), F(1, 7), F(6, 7), 3),
    ("square_h2.json", (1, 0, 0, 0, 0), F(0), F(1), 8),
])
def test_fixture_rows_are_closed_form(monkeypatch, name, coeffs, a, b, grid):
    T = fixture(name)
    f = AffineFunction(tuple(F(c) for c in coeffs))
    assert assert_rows_are_the_slices(T, f, a, b, grid, monkeypatch) == []


# -- fault injection ------------------------------------------------------------


def cancelling_cube():
    """cube_h1 plus an odd reordering of each tetrahedron, of multiplicity
    2 or -2 by turns: the nets are -1 and 3, where |m| sums to 3 on each."""
    T = fixture("cube_h1.json")
    extra = []
    for index, s in enumerate(T.simplices):
        v = s.vertices
        swapped = (v[1], v[0]) + v[2:]
        extra.append(Simplex(swapped, F(2) if index % 2 else F(-2)))
    return T.with_simplices(T.simplices + tuple(extra))


def generic_tetrahedron():
    """One tetrahedron of H^1 whose vertices take four distinct values of
    3 x1 + 4 y1: every knot interval of its spline is nonempty."""
    vertices = ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 3))
    return SimplicialCurrent(HeisParams(1), 3, [Simplex(tuple(
        tuple(F(c) for c in v) for v in vertices))])


def test_an_off_by_one_interval_fails_the_rows_and_the_windows(monkeypatch):
    # on repeated knots the interval above may be empty and its piece
    # divide by zero: these cases have none, so the fault gives wrong values
    T, f = generic_tetrahedron(), AffineFunction((F(3), F(4), F(0)))
    assert assert_rows_are_the_slices(T, f, F(0), F(7), 5, monkeypatch) == []

    def next_interval(self, x, q):
        # the piece of the knot interval above the one that holds x / q,
        # built afresh: the kept pieces are not read
        return slicing._piece(self.knots, bisect_left(self.knots, -(-x // q)))

    monkeypatch.setattr(slicing._Spline, "_piece_at", next_interval)
    with pytest.raises(AssertionError):
        assert_rows_are_the_slices(T, f, F(0), F(7), 5, monkeypatch)
    with pytest.raises(AssertionError):
        test_exact_sums.test_window_measures_are_the_fraction_oracle(
            "exact", (1, 1, 1), F(1, 7), [F(1, 3), F(2, 3), F(1), F(3, 2), F(2)])


def test_a_flipped_density_fails_the_rows(monkeypatch):
    T, f = fixture("cube_h1.json"), AffineFunction((F(3), F(4), F(0)))
    assert assert_rows_are_the_slices(T, f, F(1), F(6), 5, monkeypatch) == []
    original = slicing._Spline.density

    def flipped(self, p, q):
        num, den = original(self, p, q)
        return -num, den

    monkeypatch.setattr(slicing._Spline, "density", flipped)
    with pytest.raises(AssertionError):
        assert_rows_are_the_slices(T, f, F(1), F(6), 5, monkeypatch)


def test_summing_each_cells_multiplicity_fails_the_rows(monkeypatch):
    T, f = cancelling_cube(), AffineFunction((F(1), F(0), F(0)))
    assert_rows_are_the_slices(T, f, F(0), F(1), 4, monkeypatch)
    # a fresh table: the folded nets are kept per chain and f
    T = T.with_simplices(T.simplices)

    def per_cell(cells):
        # |m| summed over the cells of each vertex set, not the signed net
        totals = Counter()
        for cell in cells:
            totals[tuple(sorted(cell.vertices))] += abs(cell.multiplicity)
        return [_Cell(key, m) for key, m in sorted(totals.items())]

    monkeypatch.setattr(slicing, "_merge", per_cell)
    with pytest.raises(AssertionError):
        assert_rows_are_the_slices(T, f, F(0), F(1), 4, monkeypatch)

"""Level-window measures in closed form against clip pieces and the oracle.

A window measure takes a simplex the window cuts as its whole mass times
F(hi) - F(lo), where F(t) is the share of the simplex's parameter volume
where f < t, the cumulative of the simplex spline on f's vertex values,
read off the simplex's cached polynomial pieces (``slicing._Spline``).
These tests hold F to the parameter volumes of the clip pieces, computed
from their own edge minors, hold F and F' to de Boor's triangle on
Fractions (``conftest``), and hold whole windows, with levels on and
between the vertex values, to the mass of the restricted chain.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fixture, fraction_level_density, fraction_level_share, fraction_window_measures
from test_sections import assert_same_number
from test_sweep_kernel import affine, cube_mesh, oracle_between

from ruminslice import (
    AffineFunction,
    HalfSpace,
    HeisParams,
    Simplex,
    SimplicialCurrent,
    boundary,
    coarea_sweep,
    mass,
)
from ruminslice.clipping import _split
from ruminslice.currents import _edge_kvector
from ruminslice.slicing import _Spline, measure_between

F = Fraction

KNOT = st.sampled_from([F(-1), F(0), F(1, 3), F(1, 2), F(1), F(2), F(7, 3)])


def spline_of(knots):
    """The :class:`_Spline` of the sorted Fraction ``knots``, as ints over their lcm."""
    common = math.lcm(*(knot.denominator for knot in knots))
    return _Spline([knot.numerator * (common // knot.denominator) for knot in knots], common, {})


def volume(vertices):
    """k! times the parameter volume of a k-simplex in R^k: |its one edge minor|."""
    (minor,) = _edge_kvector(Simplex(tuple(vertices))).values()
    return abs(minor)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(min_value=1, max_value=4))
def test_level_share_is_the_clip_pieces_volume(data, k):
    # the standard k-simplex in R^k, with f = knots[i] at vertex i and
    # affine in between: {f < t} is a half-space, and its kept clip
    # pieces cover the share F(t) of the simplex's parameter volume
    knots = data.draw(st.lists(KNOT, min_size=k + 1, max_size=k + 1))
    t = data.draw(st.one_of(
        st.sampled_from(knots),
        st.fractions(min_value=min(knots) - 1, max_value=max(knots) + 1, max_denominator=12)))
    vertices = [tuple(F(int(axis == i - 1)) for axis in range(k)) for i in range(k + 1)]
    hs = HalfSpace(tuple(knot - knots[0] for knot in knots[1:]), t - knots[0], "<")
    kept, _ = _split(tuple(vertices), hs, tuple(hs.value(v) for v in vertices))
    expected = sum((volume(piece) for piece, _ in kept), F(0)) / volume(vertices)
    num, den = spline_of(sorted(knots)).share(t.numerator, t.denominator)
    assert isinstance(num, int) and isinstance(den, int) and den > 0
    assert F(num, den) == expected, (knots, t, (num, den), expected)
    assert F(num, den) == fraction_level_share(t, sorted(knots))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(min_value=1, max_value=5))
def test_cached_pieces_are_the_triangle(data, k):
    # degree 1 to 5, the top degree of a simplex over H^2, on knots that
    # repeat; one spline reads several levels, on knots and off its range,
    # so later levels read pieces that earlier ones built
    knots = sorted(data.draw(st.lists(KNOT, min_size=k + 1, max_size=k + 1)))
    assume(knots[0] < knots[-1])
    spline = spline_of(knots)
    levels = data.draw(st.lists(st.one_of(
        st.sampled_from(knots),
        st.fractions(min_value=knots[0] - 1, max_value=knots[-1] + 1, max_denominator=12)),
        min_size=1, max_size=6))
    for t in levels:
        share = spline.share(t.numerator, t.denominator)
        density = spline.density(t.numerator, t.denominator)
        for num, den in (share, density):
            assert isinstance(num, int) and isinstance(den, int) and den > 0
        assert F(*share) == fraction_level_share(t, knots), (knots, t)
        assert F(*density) == fraction_level_density(t, knots), (knots, t)
    # a piece per knot interval, each between two distinct knots
    assert all(0 <= s < k and spline.knots[s] < spline.knots[s + 1] for s in spline.pieces)


CHAINS = {
    "mesh1": cube_mesh(1),
    "mesh2": cube_mesh(2),
}
CHAINS["boundary(mesh1)"] = boundary(CHAINS["mesh1"])
CHAINS["boundary(mesh2)"] = boundary(CHAINS["mesh2"])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(CHAINS)),
       coeffs=st.sampled_from([(1, 0, 0), (0, 1, 0), (1, 1, 0), (3, 4, 0), (1, -1, 2),
                               (0, 0, 1)]))
def test_windows_on_meshes_are_the_oracle(data, name, coeffs):
    # lo and hi on vertex values (faces of a boundary lie in their planes)
    # and between them, in either order
    T = CHAINS[name]
    f = affine(*coeffs)
    values = sorted({f(v) for v in T.vertices()})
    level = st.one_of(
        st.sampled_from(values),
        st.fractions(min_value=values[0] - 1, max_value=values[-1] + 1, max_denominator=20))
    lo, hi = data.draw(level), data.draw(level)
    assert_same_number(measure_between(T, f, lo, hi), oracle_between(T, f, lo, hi))


def test_an_atom_on_an_edge_counts_in_no_window_it_ends():
    # the faces of the cube on x1 = 0 lie in that level: (-1, 1) holds
    # them, (-1, 0) and (0, 1) do not, and the faces on x1 = 1 end every
    # window they touch
    bdry = boundary(fixture("cube_h1.json"))
    f = affine(1, 0, 0)
    atom = mass(bdry.with_simplices(
        [s for s in bdry.simplices if all(f(v) == 0 for v in s.vertices)]))
    assert atom == 1
    whole = measure_between(bdry, f, -1, 1)
    assert whole - measure_between(bdry, f, -1, 0) - measure_between(bdry, f, 0, 1) == atom
    assert measure_between(bdry, f, -1, 0) == 0
    assert math.isclose(whole, 5.158, abs_tol=1e-3)


def segment(a, b):
    return Simplex((tuple(F(c) for c in a), tuple(F(c) for c in b)))


def test_the_sweep_denominator_holds_an_atom_on_an_inner_cell_edge():
    # a segment inside x1 = 1/2 lies on the edge between the sweep's two
    # cells: it counts in mu_T({0 < x1 < 1}), which the sweep folds into
    # the pass over its cells, and in neither cell.  The segments are
    # horizontal, so every measure is exact
    atom = segment((F(1, 2), 0, 0), (F(1, 2), 1, F(1, 4)))
    T = SimplicialCurrent(HeisParams(1), 1, [
        segment((0, 0, 0), (1, 0, 0)), atom, segment((0, 1, 0), (1, 2, 0))])
    f = AffineFunction((F(1), F(0), F(0)))
    a, b, grid = F(0), F(1), 2
    result = coarea_sweep(T, f, a, b, grid)
    width, lip = (b - a) / grid, result.lip
    cells = [row.band_bound * width / lip for row in result.rows]
    atom_mass = mass(T.with_simplices([atom]))
    assert atom_mass == 1
    assert result.band_measure / lip == sum(cells) + atom_mass
    assert result.band_measure == lip * fraction_window_measures(T, f, [a, b])[0]
    _, expected = fraction_window_measures(T, f, [a, a + width, b])
    for ours, theirs in zip(cells, expected, strict=True):
        assert ours == theirs and type(ours) is type(theirs)

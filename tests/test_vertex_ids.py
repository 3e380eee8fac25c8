"""The vertex-id slice kernel against the coordinate path.

A slice merges and cancels on integer vertex ids: the chain's vertices
are numbered in lexicographic order, cut points are memoised per
crossing edge and deduplicated by their reduced integer coordinates,
and Fraction coordinates are built only for the cut points that survive.  The oracle is the same slice
computed on coordinate tuples throughout (``coordinate_slice``,
``coordinate_canonical`` and ``coordinate_boundary`` in ``conftest``):
chains, raw formula chains, masses and residuals must agree exactly.
A merge that drops a sign must make every certified slice refuse.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import coordinate_boundary, coordinate_canonical, coordinate_slice, fixture
from test_sections import exact_chains, function_for, level_between
from test_slice_certificate import exact_cases
from test_sweep_kernel import affine, cube_mesh

from ruminslice import (
    DegenerateLevelError,
    HeisParams,
    InternalInvariantError,
    Simplex,
    SimplicialCurrent,
    boundary,
    mass,
    slice_minus,
    slice_plus,
)
from ruminslice import currents, slicing
from ruminslice.clipping import HalfSpace, _split

F = Fraction

MESHES = {size: cube_mesh(size) for size in (1, 2)}
SLICERS = (("+", slice_plus), ("-", slice_minus))


@contextmanager
def recorded_formulas():
    """Records the formula chain of every certificate a slice computes."""
    seen = []
    original = slicing._certificate

    def spy(chain, formal):
        seen.append(formal)
        return original(chain, formal)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slicing, "_certificate", spy)
        yield seen


def oriented(chain):
    """The simplices of a chain one by one in canonical orientation, counted.

    Two raw chains with equal counts hold the same simplices with the same
    multiplicities, whatever each simplex's vertex order.
    """
    return Counter(simplex for s in chain.simplices
                   for simplex in coordinate_canonical(chain.with_simplices([s])).simplices)


def assert_matches_coordinate_path(T, f, t):
    """Both slices at t agree with the coordinate path; False at a vertex level."""
    for side, slicer in SLICERS:
        try:
            with recorded_formulas() as formulas:
                result = slicer(T, f, t)
        except DegenerateLevelError:
            return False
        chain, formal = coordinate_slice(T, f, t, side)
        assert result.chain == chain
        assert result.mass == mass(chain)
        assert result.residual == 0.0
        assert oriented(formulas[-1]) == oriented(formal)
        assert coordinate_canonical(formal) == chain
        uncertified = slicer(T, f, t, certify=False)
        assert uncertified.chain == chain and uncertified.mass == result.mass
    return True


# -- the kernel pieces --------------------------------------------------------


def test_cut_points_are_memoised_and_deduplicated():
    vertices = [(F(-1), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(1), F(0)),
                (F(1), F(1), F(0))]
    # two segments, (1, 2) and (0, 3), that meet y = 1/2 at one point
    T = SimplicialCurrent(HeisParams(1), 1, [Simplex((vertices[1], vertices[2])),
                                             Simplex((vertices[0], vertices[3]))])
    points = currents._interned(T)[0]
    assert points == vertices
    signs = slicing._dots(T, affine(0, 1, 0)).signs(F(1, 2))
    cuts = slicing._CutPoints(points, currents._integer_points(T))
    one = cuts(1, 2, signs[1], signs[2])
    assert cuts(2, 1, signs[2], signs[1]) == one
    # a different edge through the same point gets the same id
    assert cuts(0, 3, signs[0], signs[3]) == one
    assert cuts.ints[one] == ((0, 1, 0), 2)
    assert cuts[one] == (F(0), F(1, 2), F(0))
    assert len(cuts.ints) == len(vertices) + 1
    assert cuts.edges == {(1, 2): one, (0, 3): one}


@settings(max_examples=60, deadline=None)
@given(T=exact_chains(), coeffs=st.tuples(*(st.integers(-3, 3) for _ in range(5))),
       u=st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100))
def test_split_on_ids_cuts_the_same_pieces(T, coeffs, u):
    # the integer values differ from the half-space values by a positive
    # factor per vertex, so the pieces and their sides must agree
    f = function_for(T, coeffs[:T.params.dim])
    t = level_between(f, T, u)
    assume(all(f(v) != t for v in T.vertices()))
    points, cells = currents._interned(T)
    dots = slicing._dots(T, f)
    cuts = slicing._CutPoints(points, currents._integer_points(T))
    for op in (">", "<"):
        hs = f.halfspace(t, op)
        signs = dots.signs(hs.const)
        for s, cell in zip(T.simplices, cells):
            by_coords = _split(s.vertices, hs, tuple(hs.value(v) for v in s.vertices))
            by_ids = _split(cell.vertices, hs, tuple(signs[i] for i in cell.vertices), cut=cuts)
            assert [[(tuple(cuts[i] for i in piece), hs.sides(v)) for piece, v in side]
                    for side in by_ids] == [[(piece, hs.sides(v)) for piece, v in side]
                                            for side in by_coords]


def test_vertex_ids_follow_coordinate_order():
    T = MESHES[2]
    points, cells = currents._interned(T)
    assert points == sorted(T.vertices())
    assert [(tuple(points[i] for i in cell.vertices), cell.multiplicity)
            for cell in cells] == [(s.vertices, s.multiplicity) for s in T.simplices]


# -- slices against the coordinate path ---------------------------------------


@pytest.mark.parametrize("size", sorted(MESHES))
@settings(max_examples=15, deadline=None)
@given(coeffs=st.sampled_from(((3, 4, 0), (0, 0, 1), (1, -2, 1), (1, 1, 0))),
       u=st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100))
def test_mesh_levels(size, coeffs, u):
    T = MESHES[size]
    f = affine(*coeffs)
    assume(assert_matches_coordinate_path(T, f, level_between(f, T, u)))


@pytest.mark.parametrize("name, coeffs, levels", [
    ("segment_h1.json", (1, 0, 0), (F(1, 3), F(2, 3))),
    ("cube_h1.json", (1, 0, 0), (F(1, 3), F(1, 2))),
    ("cube_h1.json", (3, 4, 0), (F(22, 7), F(5, 9))),
    ("cube_h1.json", (0, 0, 1), (F(1, 3),)),
    ("square_h2.json", (1, 0, 0, 0, 0), (F(1, 2),)),
    ("square_h2.json", (1, 2, 0, 0, 0), (F(5, 4),)),
])
def test_fixtures(name, coeffs, levels):
    T = fixture(name)
    for t in levels:
        assert assert_matches_coordinate_path(T, affine(*coeffs), t)


@settings(max_examples=40, deadline=None)
@given(T=exact_chains(n=2), coeffs=st.tuples(*(st.integers(-3, 3) for _ in range(5))),
       u=st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100))
def test_random_h2_chains(T, coeffs, u):
    f = function_for(T, coeffs)
    assume(len({f(v) for v in T.vertices()}) > 1)
    assume(assert_matches_coordinate_path(T, f, level_between(f, T, u)))


def coincident_cut_chain(second):
    """Two triangles whose four crossing edges meet y = 1/2 in two points."""
    return SimplicialCurrent(HeisParams(1), 2, [
        Simplex(((F(0), F(0), F(0)), (F(0), F(1), F(0)), (F(1), F(0), F(0))), F(1)),
        Simplex(((F(-1), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(0), F(0))), second),
    ])


@pytest.mark.parametrize("second, simplices", [(F(1), 1), (F(-1), 0)])
def test_coincident_cut_points(second, simplices):
    T = coincident_cut_chain(second)
    f = affine(0, 1, 0)
    assert assert_matches_coordinate_path(T, f, F(1, 2))
    chain = slice_plus(T, f, F(1, 2)).chain
    assert len(chain.simplices) == simplices
    if simplices:
        (segment,) = chain.simplices
        assert segment.vertices == ((F(0), F(1, 2), F(0)), (F(1, 2), F(1, 2), F(0)))
        assert segment.multiplicity == 2


# -- the public merge ---------------------------------------------------------


@st.composite
def chains_with_repeats(draw):
    """An exact chain plus reordered, rescaled copies of some of its simplices."""
    T = draw(exact_chains(min_degree=1))
    extra = []
    for s in T.simplices:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            order = draw(st.permutations(range(len(s.vertices))))
            factor = draw(st.sampled_from((F(-1), F(1), F(1, 2), F(-3))))
            extra.append(Simplex(tuple(s.vertices[i] for i in order), s.multiplicity * factor))
    return T.with_simplices(T.simplices + tuple(extra))


@settings(max_examples=80, deadline=None)
@given(T=chains_with_repeats())
def test_canonical_and_boundary_match_the_coordinate_merge(T):
    assert T.canonical() == coordinate_canonical(T)
    assert T.canonical().canonical() == T.canonical()
    assert boundary(T) == coordinate_boundary(T)


def inversion_merge(cells):
    """The merge with each sign a brute-force count of inverted id pairs."""
    merged = {}
    for ids, mult in cells:
        inversions = sum(ids[i] > ids[j] for i in range(len(ids)) for j in range(i + 1, len(ids)))
        key = tuple(sorted(ids))
        merged[key] = merged.get(key, 0) + (-mult if inversions % 2 else mult)
    return [currents._Cell(k, m) for k, m in sorted(merged.items()) if m != 0]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_merge_folds_signs_as_an_inversion_count(data):
    size = data.draw(st.integers(min_value=1, max_value=6))
    ids = st.lists(st.integers(0, 9), min_size=size, max_size=size, unique=True)
    mults = st.sampled_from((F(-1), F(1), F(1, 2), F(-3)))
    cells = []
    for base in data.draw(st.lists(ids, min_size=1, max_size=5)):
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            shuffled = tuple(data.draw(st.permutations(base)))
            cells.append(currents._Cell(shuffled, data.draw(mults)))
    assert currents._merge(cells) == inversion_merge(cells)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_merged_faces_fold_signs_as_an_inversion_count(data):
    size = data.draw(st.integers(min_value=1, max_value=5))
    ids = st.lists(st.integers(0, 9), min_size=size, max_size=size, unique=True)
    # multiplicities over different denominators meet on shared faces
    mults = st.sampled_from((F(-1), F(1), F(1, 2), F(-3), F(2, 3), F(-1, 6)))
    cells = []
    for base in data.draw(st.lists(ids, min_size=1, max_size=5)):
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            shuffled = tuple(data.draw(st.permutations(base)))
            cells.append(currents._Cell(shuffled, data.draw(mults)))
    faces = [(ids[:i] + ids[i + 1:], mult if i % 2 == 0 else -mult)
             for ids, mult in cells for i in range(len(ids))]
    merged = currents._merged_faces(cells)
    assert merged == inversion_merge(faces)
    assert all(type(cell.multiplicity) is F for cell in merged)


@pytest.mark.parametrize("size", sorted(MESHES))
def test_mesh_boundary_matches_the_coordinate_merge(size):
    T = MESHES[size]
    assert boundary(T) == coordinate_boundary(T)
    assert boundary(boundary(T)).is_empty()


# -- fault injection ----------------------------------------------------------


def test_merge_that_drops_the_sign_is_refused(monkeypatch):
    def unsigned(cells):
        merged = {}
        for cell in cells:
            key = tuple(sorted(cell.vertices))
            merged[key] = merged.get(key, 0) + cell.multiplicity
        return [currents._Cell(k, m) for k, m in sorted(merged.items()) if m != 0]

    monkeypatch.setattr(slicing, "_merge", unsigned)
    # a 0-cell has no orientation to lose, so slices of 1-chains are exempt
    cases = [(T, f, t) for T, f, t in exact_cases() if T.degree >= 2]
    wrong = 0
    for T, f, t in cases:
        for side, slicer in SLICERS:
            expected, _ = coordinate_slice(T, f, t, side)
            if slicer(T, f, t, certify=False).chain == expected:
                # every face this slice merges came with its ids in order
                assert slicer(T, f, t).chain == expected
                continue
            wrong += 1
            with pytest.raises(InternalInvariantError):
                slicer(T, f, t)
    assert wrong >= 2 * len(cases) - 1

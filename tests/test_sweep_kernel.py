"""The sweep-aware level-set kernel against the full-chain formula.

The oracles below are the direct paths: split a simplex by recomputing
every sub-simplex's half-space values, drop slivers by the rank test of
each piece, slice by ``(dT)|{f>t} - d(T|{f>t})`` over the whole chain, and
measure a region as the mass of the restricted chain with every piece
tangent wedged afresh.  Crossing-only slices must be canonically identical
to the oracle, and measures must be the same Fractions (or the same
floats, where a norm is irrational).  Float input is converted exactly by
the public constructors, so float chains are held to the same standard.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES

from ruminslice import (
    DegenerateLevelError,
    HalfSpace,
    HeisParams,
    Simplex,
    SimplicialCurrent,
    boundary,
    mass,
    measure_of,
    slice_minus,
    slice_plus,
)
from ruminslice.clipping import _cut_point, _edge_key, split_simplex
from ruminslice.formio import load_chain
from ruminslice.slicing import AffineFunction, coarea_sweep, measure_between

F = Fraction


# -- oracles ------------------------------------------------------------------


def oracle_split(vertices, hs):
    """split_simplex with every sub-simplex's values recomputed."""
    kept, dropped = [], []
    stack = [tuple(vertices)]
    while stack:
        simplex = stack.pop()
        values = [hs.value(v) for v in simplex]
        signs = [0 if v == 0 else (1 if v > 0 else -1) for v in values]
        has_pos = any(s > 0 for s in signs)
        has_neg = any(s < 0 for s in signs)
        if not (has_pos and has_neg):
            inside = has_pos if hs.keeps_positive() else has_neg
            on_plane = not has_pos and not has_neg
            if inside or (on_plane and hs.keeps_boundary()):
                kept.append(simplex)
            else:
                dropped.append(simplex)
            continue
        crossing = [(i, j) for i in range(len(simplex)) for j in range(i + 1, len(simplex))
                    if signs[i] * signs[j] < 0]
        i, j = min(crossing, key=lambda e: _edge_key(simplex[e[0]], simplex[e[1]]))
        cut = _cut_point(simplex[i], simplex[j], values[i], values[j])
        left, right = list(simplex), list(simplex)
        left[i] = cut
        right[j] = cut
        stack.append(tuple(left))
        stack.append(tuple(right))
    return kept, dropped


def oracle_restrict(T, halfspaces):
    simplices = list(T.simplices)
    for hs in halfspaces:
        clipped = []
        for s in simplices:
            kept, _ = oracle_split(s.vertices, hs)
            clipped.extend(Simplex._trusted(piece, s.multiplicity) for piece in kept
                           if not Simplex(piece, 0).degenerate())
        simplices = clipped
    return T.with_simplices(simplices)


def oracle_slice(T, f, t, side):
    if side == "+":
        hs = f.halfspace(t, ">")
        formal = oracle_restrict(boundary(T), [hs]) - boundary(oracle_restrict(T, [hs]))
    else:
        hs = f.halfspace(t, "<")
        formal = boundary(oracle_restrict(T, [hs])) - oracle_restrict(boundary(T), [hs])
    return formal.canonical()


def oracle_between(T, f, lo, hi):
    return mass(oracle_restrict(T, [f.halfspace(lo, ">"), f.halfspace(hi, "<")]))


# -- chains -------------------------------------------------------------------


def cube_mesh(size):
    """The unit cube in H^1 as 6*size^3 positively oriented tetrahedra."""
    h = F(1, size)
    simplices = []
    for i in range(size):
        for j in range(size):
            for k in range(size):
                for order in permutations(range(3)):
                    corner = [i * h, j * h, k * h]
                    vertices = [tuple(corner)]
                    for axis in order:
                        corner[axis] += h
                        vertices.append(tuple(corner))
                    odd = sum(order[a] > order[b] for a in range(3) for b in range(a + 1, 3)) % 2
                    if odd:
                        vertices[1], vertices[2] = vertices[2], vertices[1]
                    simplices.append(Simplex(tuple(vertices), F(1)))
    return SimplicialCurrent(HeisParams(1), 3, simplices)


def fixture(name):
    return load_chain(FIXTURES / name)


def affine(*coeffs):
    return AffineFunction(tuple(F(c) for c in coeffs))


def tilted_triangles():
    """2-chains in H^1 whose tangent varies: masses come from quadrature."""
    params = HeisParams(1)
    return SimplicialCurrent(params, 2, [
        Simplex(((F(0), F(0), F(0)), (F(3), F(0), F(0)), (F(0), F(3), F(0))), F(1)),
        Simplex(((F(1), F(1), F(1)), (F(2), F(-1), F(3, 2)), (F(1, 2), F(2), F(-1))), F(-2)),
    ])


def float_near_plane(level):
    """A float chain with vertices within 1e-14 of x1 = level, and one on it."""
    params = HeisParams(1)
    eps = 1e-14
    return SimplicialCurrent(params, 2, [
        Simplex(((level + eps, 0.0, 0.0), (level - eps, 1.0, 0.25), (0.1, 0.5, 1.0)), 1.0),
        Simplex(((level - eps, 1.0, 0.25), (level + eps, 0.0, 0.0), (1.3, 0.7, -0.5)), 1.0),
        Simplex(((level, 2.0, 0.0), (level + 0.5, 2.5, 0.5), (level - 0.5, 3.0, 1.0)), 0.5),
    ])


# -- split_simplex ------------------------------------------------------------


@pytest.mark.parametrize("op", [">", ">=", "<", "<="])
def test_split_matches_oracle_with_and_without_values(op):
    rng = random.Random(ord(op[0]) + len(op))
    for _ in range(40):
        dim = 3
        vertices = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
                    for _ in range(rng.randint(1, 4))]
        hs = HalfSpace(tuple(F(rng.randint(-2, 2)) for _ in range(dim)), F(rng.randint(-2, 2)), op)
        values = [hs.value(v) for v in vertices]
        expected = oracle_split(vertices, hs)
        assert split_simplex(vertices, hs) == expected
        assert split_simplex(vertices, hs, values) == expected


def test_split_float_vertices_on_the_plane():
    # converted exactly (as Simplex converts them), vertices 1e-14 off the
    # plane lie strictly on their sides, and both of their edges are cut
    hs = HalfSpace((1.0, 0.0, 0.0), 0.5, ">")
    vertices = Simplex([(0.5 + 1e-14, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 1.0),
                        (0.5 - 1e-14, 2.0, 0.0)]).vertices
    values = [hs.value(v) for v in vertices]
    assert hs.sides(values) == (1, -1, 1, -1)
    kept, dropped = split_simplex(vertices, hs, values)
    assert (kept, dropped) == split_simplex(vertices, hs) == oracle_split(vertices, hs)
    assert (len(kept), len(dropped)) == (3, 3)
    assert all(hs.value(v) >= 0 for piece in kept for v in piece)
    assert all(hs.value(v) <= 0 for piece in dropped for v in piece)
    assert not any(Simplex(piece, 0).degenerate() for piece in kept + dropped)


def test_sides_rule():
    hs = HalfSpace((F(1), F(0), F(0)), F(0), ">")
    assert hs.sides([F(1), F(0), F(-1, 3)]) == (1, 0, -1)
    # exact signs, with no tolerance band around the plane
    assert hs.sides([1e-13, -1e-13, 1e-6, -1e-6]) == (1, -1, 1, -1)


# -- crossing-only slices -----------------------------------------------------


CASES = [
    ("segment_h1.json", (1, 0, 0), [F(1, 3), F(-1), F(2)]),
    ("cube_h1.json", (1, 0, 0), [F(1, 2), F(1, 7)]),
    ("cube_h1.json", (1, 1, 0), [F(2, 3), F(3, 2)]),
    ("cube_h1.json", (3, 4, 0), [F(23, 7)]),
    ("cube_h1.json", (0, 0, 1), [F(1, 3)]),
    ("cube_h1.json", (1, 1, 1), [F(5, 4)]),
    ("square_h2.json", (1, 0, 0, 0, 0), [F(1, 3)]),
    ("square_h2.json", (1, 1, 0, 0, 0), [F(3, 4), F(5, 3)]),
]


@pytest.mark.parametrize("name,coeffs,levels", CASES)
def test_fixture_slices_match_full_formula(name, coeffs, levels):
    T = fixture(name)
    f = affine(*coeffs)
    for t in levels:
        plus = slice_plus(T, f, t)
        minus = slice_minus(T, f, t)
        assert plus.chain == oracle_slice(T, f, t, "+")
        assert minus.chain == oracle_slice(T, f, t, "-")
        assert plus.mass == mass(oracle_slice(T, f, t, "+"))


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("coeffs,level", [
    ((3, 4, 0), F(23, 7)),
    ((0, 0, 1), F(5, 7)),
    ((1, 0, 0), F(3, 8)),
    ((1, -1, 2), F(2, 9)),
])
def test_mesh_slices_match_full_formula(size, coeffs, level):
    mesh = cube_mesh(size)
    f = affine(*coeffs)
    for side, slicer in (("+", slice_plus), ("-", slice_minus)):
        result = slicer(mesh, f, level, certify=False)
        assert result.chain == oracle_slice(mesh, f, level, side)
        assert not result.chain.is_empty()


def test_boundary_chain_slices_match_full_formula():
    bdry = boundary(cube_mesh(2))
    f = affine(1, 2, 0)
    for t in (F(1, 3), F(13, 10)):
        assert slice_plus(bdry, f, t).chain == oracle_slice(bdry, f, t, "+")
        assert slice_minus(bdry, f, t).chain == oracle_slice(bdry, f, t, "-")


def test_degenerate_level_names_the_first_sorted_vertex():
    mesh = cube_mesh(2)
    f = affine(1, 1, 0)
    with pytest.raises(DegenerateLevelError, match=r"hits the vertex \(0, 1/2, 0\)"):
        slice_plus(mesh, f, F(1, 2))


def test_float_chain_slices_near_the_plane():
    T = float_near_plane(0.5)
    f = AffineFunction((1.0, 0.0, 0.0))
    for t in (0.5 + 1e-3, 0.25):
        result = slice_plus(T, f, t)
        assert result.chain == oracle_slice(T, f, t, "+")
        assert result.chain == slice_minus(T, f, t).chain
        assert len(result.chain.simplices) == 2
        assert result.residual == 0.0
        assert all(f(v) == F(t) for s in result.chain.simplices for v in s.vertices)


def test_float_face_within_tolerance_of_the_level():
    # the shared edge lies on x1 = 1/2 up to 1e-14; converted exactly, its
    # ends are strictly on either side, so the level crosses both triangles
    # and the slice is two segments that meet on the shared edge
    low, high = 0.5 - 1e-14, 0.5 + 1e-14
    T = SimplicialCurrent(HeisParams(1), 2, [
        Simplex(((high, 0.0, 0.0), (low, 1.0, 0.25), (0.9, 0.5, 0.1)), 1.0),
        Simplex(((low, 1.0, 0.25), (high, 0.0, 0.0), (0.1, 0.5, 1.0)), 1.0),
    ])
    f = AffineFunction((1.0, 0.0, 0.0))
    plus = slice_plus(T, f, 0.5).chain
    assert plus == oracle_slice(T, f, 0.5, "+")
    assert len(plus.simplices) == 2
    assert slice_minus(T, f, 0.5).chain == oracle_slice(T, f, 0.5, "-") == plus
    shared = set(plus.simplices[0].vertices) & set(plus.simplices[1].vertices)
    assert shared == {(F(1, 2), F(1, 2), F(1, 8))}


@settings(max_examples=25, deadline=None)
@given(coeffs=st.tuples(*(st.integers(min_value=-3, max_value=3) for _ in range(3))),
       num=st.integers(min_value=-40, max_value=80), den=st.integers(min_value=1, max_value=23))
def test_generic_levels_match_full_formula(coeffs, num, den):
    if coeffs == (0, 0, 0):
        coeffs = (1, 0, 0)
    mesh = cube_mesh(1)
    f = affine(*coeffs)
    t = F(num, den * 10)
    try:
        plus = slice_plus(mesh, f, t, certify=False)
    except DegenerateLevelError:
        return
    assert plus.chain == oracle_slice(mesh, f, t, "+")
    assert slice_minus(mesh, f, t, certify=False).chain == oracle_slice(mesh, f, t, "-")


# -- measures with inherited tangents -----------------------------------------


@pytest.mark.parametrize("coeffs,lo,hi", [
    ((3, 4, 0), F(2, 3), F(41, 10)),
    ((1, 0, 0), F(1, 7), F(5, 7)),
    ((1, 1, 1), F(1, 5), F(9, 4)),
    ((0, 0, 1), F(-1), F(1, 3)),
])
def test_mesh_measure_between_is_exact(coeffs, lo, hi):
    mesh = cube_mesh(2)
    f = affine(*coeffs)
    for T in (mesh, boundary(mesh)):
        assert measure_between(T, f, lo, hi) == oracle_between(T, f, lo, hi)


def test_varying_tangent_measure_is_the_same_number():
    # irrational norms: the pieces' exact tangents equal the oracle's, so
    # the quadrature sums are the same floats in the same order
    T = tilted_triangles()
    for coeffs, lo, hi in (((1, 0, 0), F(1, 3), F(2)), ((1, 2, 0), F(-1), F(5, 2)),
                           ((0, 1, 3), F(1, 4), F(7, 3))):
        f = affine(*coeffs)
        assert measure_between(T, f, lo, hi) == oracle_between(T, f, lo, hi)
    hs = [HalfSpace((F(1), F(-1), F(0)), F(1, 2), ">="), HalfSpace((F(0), F(0), F(1)), F(1), "<=")]
    assert measure_of(T, hs) == mass(oracle_restrict(T, hs))
    assert measure_of(T, hs[0]) == mass(oracle_restrict(T, hs[:1]))


@pytest.mark.parametrize("level", [0.5, 0.3])
def test_float_measure_near_the_plane(level):
    T = float_near_plane(level)
    f = AffineFunction((1.0, 0.0, 0.0))
    for lo, hi in ((level, level + 0.5), (level - 0.25, level), (-1.0, level + 1e-14)):
        assert measure_between(T, f, lo, hi) == oracle_between(T, f, lo, hi)


def test_measure_of_open_and_closed_planes():
    # a face inside the plane counts for closed half-spaces only
    bdry = boundary(cube_mesh(1))
    for op in (">", ">=", "<", "<="):
        hs = HalfSpace((F(1), F(0), F(0)), F(0), op)
        assert measure_of(bdry, [hs]) == mass(oracle_restrict(bdry, [hs]))


def test_sweep_matches_oracle_rows():
    mesh = cube_mesh(2)
    for coeffs, a, b, grid in (((3, 4, 0), F(2), F(3), 2), ((1, 0, 0), F(1, 10), F(3, 5), 4)):
        f = affine(*coeffs)
        result = coarea_sweep(mesh, f, a, b, grid)
        width = (b - a) / grid
        for i, row in enumerate(result.rows):
            lo = a + width * i
            assert row.mass == mass(oracle_slice(mesh, f, row.t, "+"))
            assert row.band_bound == f.lipschitz_constant() * oracle_between(
                mesh, f, lo, lo + width) / width
        assert result.band_measure == f.lipschitz_constant() * oracle_between(mesh, f, a, b)

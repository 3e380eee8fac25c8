"""Slice sections and volume shares against the formula and per-piece oracles.

A slice reads its chain off the kept clip pieces of the simplices the
level crosses: the face of each piece opposite its one off-level vertex.
These tests hold that chain to the canonical chain of the defining
formula ``(dT)|{f>t} - d(T|{f>t})`` over the whole chain (the oracle in
``test_sweep_kernel``), break the section builder to see a certified
slice refuse, and check the measure identities the sweep relies on: a
clip piece of a constant-tangent simplex with a rational norm is measured
as the whole mass times its volume share, which must be the number its
own minors give, float sums included.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_slice_certificate import exact_cases
from test_sweep_kernel import (
    affine,
    cube_mesh,
    fixture,
    oracle_between,
    oracle_restrict,
    oracle_slice,
)

from ruminslice import (
    DegenerateLevelError,
    HeisParams,
    InternalInvariantError,
    ParameterError,
    Simplex,
    SimplicialCurrent,
    boundary,
    mass,
    measure_of,
    restrict_to_set,
    slice_minus,
    slice_plus,
)
from ruminslice import slicing
from ruminslice.slicing import AffineFunction, coarea_sweep, measure_between

F = Fraction

MESHES = {size: cube_mesh(size) for size in (1, 2)}
CHAINS = {
    "mesh1": MESHES[1],
    "mesh2": MESHES[2],
    "boundary(mesh1)": boundary(MESHES[1]),
    "boundary(mesh2)": boundary(MESHES[2]),
    "segment_h1": fixture("segment_h1.json"),
    "cube_h1": fixture("cube_h1.json"),
    "square_h2": fixture("square_h2.json"),
}

coefficient = st.integers(min_value=-3, max_value=3)
fraction = st.builds(F, st.integers(min_value=-12, max_value=12),
                     st.integers(min_value=1, max_value=4))


def function_for(chain, coeffs):
    coeffs = list(coeffs)
    if not any(coeffs):
        coeffs[0] = 1
    return affine(*coeffs)


def level_between(f, chain, u):
    """The point at fraction u of the range of f over the chain's vertices."""
    values = sorted({f(v) for v in chain.vertices()})
    return values[0] + (values[-1] - values[0]) * u


@st.composite
def exact_chains(draw, n=None, min_degree=1):
    """A small exact chain over H^n: 1-3 nondegenerate simplices."""
    n = draw(st.sampled_from((1, 2))) if n is None else n
    params = HeisParams(n)
    degree = draw(st.integers(min_value=min_degree, max_value=min(3, params.dim)))
    simplices = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        vertices = draw(st.lists(st.tuples(*(fraction for _ in range(params.dim))),
                                 min_size=degree + 1, max_size=degree + 1))
        multiplicity = draw(st.sampled_from((F(-2), F(-1), F(1, 2), F(1), F(3))))
        try:
            simplices.append(Simplex(tuple(vertices), multiplicity))
        except ParameterError:
            assume(False)
    return SimplicialCurrent(params, degree, simplices)


# -- sections against the formula --------------------------------------------


def assert_sections_match(T, f, t):
    for side, slicer in (("+", slice_plus), ("-", slice_minus)):
        try:
            chain = slicer(T, f, t, certify=False).chain
        except DegenerateLevelError:
            return False
        assert chain == oracle_slice(T, f, t, side)
    return True


@pytest.mark.parametrize("name", sorted(CHAINS))
@settings(max_examples=12, deadline=None)
@given(coeffs=st.tuples(*(coefficient for _ in range(5))),
       u=st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100))
def test_sections_are_the_formula_chain(name, coeffs, u):
    T = CHAINS[name]
    f = function_for(T, coeffs[:T.params.dim])
    assert_sections_match(T, f, level_between(f, T, u))


@settings(max_examples=40, deadline=None)
@given(T=exact_chains(n=2), coeffs=st.tuples(*(coefficient for _ in range(5))),
       u=st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100))
def test_sections_on_random_h2_chains(T, coeffs, u):
    f = function_for(T, coeffs)
    values = {f(v) for v in T.vertices()}
    assume(len(values) > 1)
    assert_sections_match(T, f, level_between(f, T, u))


# -- fault injection ----------------------------------------------------------


@pytest.mark.parametrize("fault", ["drops a face", "flips a sign"])
def test_broken_sections_fail_the_certificate(monkeypatch, fault):
    original = slicing._sections

    def broken(crossing, plus):
        faces = original(crossing, plus)
        index = len(faces) // 2
        if fault == "drops a face":
            return faces[:index] + faces[index + 1:]
        s = faces[index]
        return faces[:index] + [Simplex._trusted(s.vertices, -s.multiplicity)] + faces[index + 1:]

    monkeypatch.setattr(slicing, "_sections", broken)
    for T, f, t in exact_cases():
        for slicer in (slice_plus, slice_minus):
            # uncertified slices trust the sections; the certificate does not
            assert slicer(T, f, t, certify=False).chain != oracle_slice(
                T, f, t, "+" if slicer is slice_plus else "-")
            with pytest.raises(InternalInvariantError, match="sections differ"):
                slicer(T, f, t)


# -- measures -----------------------------------------------------------------


def assert_same_number(a, b):
    # exact Fractions compare exactly; floats must be the same float
    assert type(a) is type(b) and a == b, (a, b)


def complement_pairs(f, t):
    return [(f.halfspace(t, op), f.halfspace(t, op).complement()) for op in (">", ">=")]


def vertical_walls(chain):
    """The faces of a boundary chain that contain a t-direction edge.

    They have constant tangents with rational norms, so their measures
    are exact Fractions.
    """
    return chain.with_simplices([s for s in chain.simplices
                                 if len({v[-1] for v in s.vertices}) > 1])


MEASURED = {
    "mesh2": CHAINS["mesh2"],
    "cube_h1": CHAINS["cube_h1"],
    "walls(boundary(mesh1))": vertical_walls(CHAINS["boundary(mesh1)"]),
    "boundary(mesh1)": CHAINS["boundary(mesh1)"],
    "square_h2": CHAINS["square_h2"],
}


@pytest.mark.parametrize("name", sorted(MEASURED))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_measure_splits_the_mass(name, data):
    # mu(f > t) + mu(f <= t) = M(T) and mu(f >= t) + mu(f < t) = M(T),
    # at vertex values (faces of the boundary lie in the level plane) and
    # at values between them
    T = MEASURED[name]
    coeffs = data.draw(st.sampled_from([(1, 0, 0), (0, 1, 0), (1, 1, 0), (3, 4, 0), (1, -1, 2)]))
    f = function_for(T, coeffs + (0,) * (T.params.dim - 3))
    values = sorted({f(v) for v in T.vertices()})
    t = data.draw(st.one_of(st.sampled_from(values),
                            st.builds(lambda u: values[0] + (values[-1] - values[0]) * u,
                                      st.fractions(min_value=0, max_value=1, max_denominator=50))))
    total = mass(T)
    for hs, rest in complement_pairs(f, t):
        split = measure_of(T, [hs]) + measure_of(T, [rest])
        if isinstance(total, Fraction):
            assert split == total
        else:
            # a varying tangent's mass is a quadrature, which is not
            # additive over pieces: only close, up to the rule's error
            assert math.isclose(split, total, rel_tol=1e-6)


def test_faces_in_the_plane_count_once():
    # the cube's faces on x1 = 0 and x1 = 1 lie in the level planes: a
    # closed half-space keeps them, its open complement drops them
    bdry = MEASURED["walls(boundary(mesh1))"]
    f = affine(1, 0, 0)
    for t in (F(0), F(1)):
        on_plane = [s for s in bdry.simplices if all(f(v) == t for v in s.vertices)]
        assert on_plane
        plane_mass = mass(bdry.with_simplices(on_plane))
        for closed, open_ in ((">=", ">"), ("<=", "<")):
            extra = (measure_of(bdry, [f.halfspace(t, closed)])
                     - measure_of(bdry, [f.halfspace(t, open_)]))
            assert extra == plane_mass


def mixed_chain():
    """An H^2 2-chain whose masses are rational, irrational and quadrature floats.

    Triangles in a plane through the t axis have a constant tangent: with
    a rational norm their pieces scale by their shares, with an
    irrational one they are measured piece by piece.  A triangle in an
    (x1, y1) plane has a varying tangent, so its mass comes from
    quadrature.  The order interleaves them, so float sums depend on the
    order of the terms.
    """
    def point(x1, x2, y1, y2, t):
        return tuple(F(c) for c in (x1, x2, y1, y2, t))

    return SimplicialCurrent(HeisParams(2), 2, [
        Simplex((point(0, 0, 0, 0, 0), point(2, 0, 0, 0, 0), point(0, 0, 0, 0, 3)), F(1)),
        Simplex((point(0, 0, 0, 0, 0), point(1, 1, 0, 0, 0), point(1, 1, 0, 0, 2)), F(-1)),
        Simplex((point(0, 0, 0, 0, 0), point(3, 0, 0, 0, 0), point(0, 0, 3, 0, 0)), F(1, 2)),
        Simplex((point(1, 0, 0, 0, 0), point(1, 0, 2, 0, 1), point(1, 0, 0, 0, 2)), F(2)),
        Simplex((point(0, 1, 0, 0, 0), point(3, 5, 0, 0, 0), point(0, 1, 0, 0, 1)), F(1)),
        Simplex((point(F(1, 2), 0, 0, 0, 1), point(2, 0, 1, 0, 1), point(1, 0, F(5, 2), 0, 1)),
                F(-3)),
    ])


def test_mixed_chain_has_every_kind_of_mass():
    T = mixed_chain()
    kinds = [type(mass(T.with_simplices([s]))) for s in T.simplices]
    assert kinds == [Fraction, float, float, Fraction, Fraction, float]


@settings(max_examples=40, deadline=None)
@given(coeffs=st.tuples(*(coefficient for _ in range(5))),
       lo=st.fractions(min_value=-1, max_value=4, max_denominator=9),
       width=st.fractions(min_value=F(1, 9), max_value=5, max_denominator=9))
def test_share_measures_are_the_per_piece_numbers(coeffs, lo, width):
    T = mixed_chain()
    f = function_for(T, coeffs)
    hi = lo + width
    planes = [f.halfspace(lo, ">"), f.halfspace(hi, "<")]
    per_piece = mass(restrict_to_set(T, planes))
    assert_same_number(measure_between(T, f, lo, hi), per_piece)
    assert_same_number(measure_of(T, planes), per_piece)
    assert_same_number(per_piece, oracle_between(T, f, lo, hi))
    closed = [f.halfspace(lo, ">="), f.halfspace(hi, "<=")]
    assert_same_number(measure_of(T, closed), mass(oracle_restrict(T, closed)))


@settings(max_examples=10, deadline=None)
@given(coeffs=st.sampled_from([(1, 0, 0, 0, 0), (1, 2, 0, 0, 0), (0, 1, 1, 0, 0),
                               (2, -1, 0, 1, 0)]),
       a=st.fractions(min_value=0, max_value=1, max_denominator=7),
       grid=st.integers(min_value=1, max_value=4))
def test_sweep_cells_are_the_per_piece_numbers(coeffs, a, grid):
    T = mixed_chain()
    f = function_for(T, coeffs)
    b = a + 2
    try:
        result = coarea_sweep(T, f, a, b, grid)
    except DegenerateLevelError:
        return
    width = (b - a) / grid
    lip = f.lipschitz_constant()
    for i, row in enumerate(result.rows):
        lo = a + width * i
        assert_same_number(row.band_bound, lip * oracle_between(T, f, lo, lo + width) / width)
    assert_same_number(result.band_measure, lip * oracle_between(T, f, a, b))


# -- boundary and slicing -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(T=exact_chains(min_degree=2), coeffs=st.tuples(*(coefficient for _ in range(5))),
       u=st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100))
def test_boundary_anticommutes_with_uncertified_slices(T, coeffs, u):
    f = function_for(T, coeffs[:T.params.dim])
    assume(len({f(v) for v in T.vertices()}) > 1)
    t = level_between(f, T, u)
    try:
        sliced = slice_plus(T, f, t, certify=False).chain
    except DegenerateLevelError:
        return
    of_boundary = slice_plus(boundary(T), f, t, certify=False).chain
    assert boundary(sliced).canonical() == (-of_boundary).canonical()

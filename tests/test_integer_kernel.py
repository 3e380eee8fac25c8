"""The integer tangent kernel against the Fraction one.

The library scales each simplex to integers and keeps its tangent as
integer numerators over one denominator; the oracle in ``conftest``
builds the same quantities from Fractions, with node coordinates from
``parameter_nodes`` and E + L(p) at each node.  The constant blade
pairings, the masses, the edge k-vectors and the degeneracy verdicts
must agree in value and in type: an exact mass is the same Fraction, and
an irrational one the same float.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fixture,
    fraction_blade_pairings,
    fraction_edge_kvector,
    fraction_mass,
)
from test_pairing_kernel import cube_mesh, slice_chains

from ruminslice import (
    HeisParams,
    ParameterError,
    Simplex,
    SimplicialCurrent,
    boundary,
    currents,
    mass,
    measure_of,
    pair_current,
    rumin_class,
)
from ruminslice.currents import _blade_pairings, _edge_kvector
from ruminslice.forms import PolyForm
from ruminslice.polys import Poly
from ruminslice.slicing import AffineFunction

F = Fraction


def assert_same(a, b):
    """Equal values of the same type; dicts value by value."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), (a, b)
        for key in a:
            assert_same(a[key], b[key])
        return
    assert type(a) is type(b) and a == b, (a, b)


def nonzero(pairings):
    """The blade pairings without the blades that pair to 0."""
    return {b: value for b, value in pairings.items() if value}


def assert_kernel_matches(T):
    # a blade may pair to 0 by cancellation; the kernel then leaves it out
    assert_same(nonzero(_blade_pairings(T)), nonzero(fraction_blade_pairings(T)))
    assert_same(mass(T), fraction_mass(T))
    for s in T.simplices:
        assert_same(_edge_kvector(s), fraction_edge_kvector(s))
        assert not s.degenerate()


FUNCTIONS = [
    ((3, 4, 0), F(23, 7)),  # 3x1 + 4y1: horizontal slices, constant tangents
    ((0, 0, 1), F(5, 7)),  # t: varying tangents, irrational masses
    ((1, 2, 0), F(3, 4)),  # x1 + 2y1: a constant sqrt(5) norm
]


@pytest.mark.parametrize("name", ["segment_h1.json", "cube_h1.json", "square_h2.json"])
def test_fixtures_and_their_slices(name):
    # the segment's slices are 0-chains
    T = fixture(name)
    f = AffineFunction((F(1),) + (F(0),) * (T.params.dim - 1))
    for chain in [T, boundary(T), *slice_chains(T, f, F(1, 3))]:
        assert_kernel_matches(chain)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_meshes_their_boundaries_and_slices(size):
    mesh = cube_mesh(size)
    assert_kernel_matches(mesh)
    assert_kernel_matches(boundary(mesh))
    for coeffs, level in FUNCTIONS:
        for chain in slice_chains(mesh, AffineFunction(tuple(F(c) for c in coeffs)), level):
            assert_kernel_matches(chain)


def test_predicate_measure_matches():
    T = boundary(cube_mesh(2))
    region = lambda p: p.x[0] > F(1, 3)  # noqa: E731
    assert_same(measure_of(T, region), fraction_mass(T, region))


# -- random chains over H^1..H^3 ----------------------------------------------


def coordinate(draw, exact: bool):
    if exact:
        return F(draw(st.integers(-30, 30)), draw(st.sampled_from([1, 3, 7, 10007])))
    # a float converts exactly, with a denominator up to 2^52 here
    return F(draw(st.floats(min_value=-2, max_value=2, allow_nan=False, width=64)))


@st.composite
def chains(draw):
    n = draw(st.integers(1, 3))
    dim = 2 * n + 1
    degree = draw(st.integers(0, dim))
    exact = draw(st.booleans())
    simplices = []
    for _ in range(draw(st.integers(1, 3))):
        vertices = [tuple(coordinate(draw, exact) for _ in range(dim))
                    for _ in range(degree + 1)]
        if degree >= 2 and draw(st.booleans()):
            # the last vertex on the line through the first two: degenerate
            lam = coordinate(draw, exact)
            vertices[-1] = tuple(a + lam * (b - a) for a, b in zip(vertices[0], vertices[1]))
        vertices = tuple(vertices)
        probe = Simplex(vertices, 0)
        assert_same(_edge_kvector(probe), fraction_edge_kvector(probe))
        assert probe.degenerate() == (not fraction_edge_kvector(probe))
        if not probe.degenerate():
            mult = F(draw(st.sampled_from([-2, -1, 1, 3])), draw(st.sampled_from([1, 2, 7])))
            simplices.append(Simplex._trusted(vertices, mult))
    return SimplicialCurrent(HeisParams(n), degree, simplices,
                             quadrature_degree=draw(st.integers(0, 5)))


@settings(max_examples=60, deadline=None)
@given(chains())
def test_random_chains(T):
    assert_kernel_matches(T)


# -- the blade pairings fold repeated simplices --------------------------------


def parity(order) -> int:
    """+1 for an even permutation of range(len(order)), -1 for an odd one."""
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -1 if inversions % 2 else 1


@st.composite
def folded_chains(draw):
    """(T, nets): a chain over H^1 or H^2 whose simplices repeat, come in
    permuted vertex orders with Fraction multiplicities, and may cancel to
    net multiplicity 0; ``nets`` maps each distinct simplex, as a frozenset
    of vertices, to its net multiplicity in sorted vertex order."""
    n = draw(st.integers(1, 2))
    dim = 2 * n + 1
    degree = draw(st.integers(0, dim))
    simplices, nets = [], {}
    for _ in range(draw(st.integers(1, 3))):
        vertices = tuple(tuple(F(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 7])))
                               for _ in range(dim)) for _ in range(degree + 1))
        if Simplex(vertices, 0).degenerate():
            continue
        ranked = sorted(range(degree + 1), key=vertices.__getitem__)
        net = F(0)
        for _ in range(draw(st.integers(1, 4))):
            order = draw(st.permutations(range(degree + 1)))
            mult = F(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.sampled_from([1, 2, 5])))
            simplices.append(Simplex._trusted(tuple(vertices[i] for i in order), mult))
            # the sign of listing the vertices in ``order`` against sorted order
            net += parity([ranked.index(i) for i in order]) * mult
        if net and draw(st.booleans()):
            # one more copy, in another order, that cancels the rest
            order = draw(st.permutations(range(degree + 1)))
            sign = parity([ranked.index(i) for i in order])
            simplices.append(Simplex._trusted(tuple(vertices[i] for i in order), -sign * net))
            net = F(0)
        key = frozenset(vertices)
        nets[key] = nets.get(key, 0) + net
    return SimplicialCurrent(HeisParams(n), degree, simplices), nets


@settings(max_examples=80, deadline=None)
@given(folded_chains())
def test_blade_pairings_frame_each_distinct_simplex_once(drawn):
    T, nets = drawn
    framed = []
    original = currents._tangent

    def counted(n, corners):
        framed.append(frozenset(tuple(F(x, den) for x in nums) for nums, den in corners))
        return original(n, corners)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(currents, "_tangent", counted)
        pairings = _blade_pairings(T)
        # the framings are kept in T's table: a second call frames nothing
        assert _blade_pairings(T) == pairings
    assert all(pairings.values())
    assert_same(pairings, nonzero(fraction_blade_pairings(T)))
    assert sorted(framed, key=sorted) == sorted((key for key, net in nets.items() if net),
                                                key=sorted)


# -- admissibility and the empty simplex ---------------------------------------


def test_constant_tangents_are_checked_once(monkeypatch):
    # both triangles of the square lie in the (x1, x2) plane: their tangents
    # are constant, so each is checked once and not at each of its nodes
    T = fixture("square_h2.json")
    calls = []
    original = currents.is_admissible

    def counted(V, n):
        calls.append(V)
        return original(V, n)

    monkeypatch.setattr(currents, "is_admissible", counted)
    x1 = Poly(T.params.dim, {(1, 0, 0, 0, 0): F(1)})
    c = rumin_class(T.params, 2, PolyForm.single(T.params, (0, 1), x1))
    assert pair_current(T, c) == F(1, 2)
    assert len(calls) == len(T.simplices) == 2


def test_a_simplex_needs_a_vertex():
    with pytest.raises(ParameterError, match="at least one vertex"):
        Simplex(())


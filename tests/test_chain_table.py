"""The chain table and the integer level kernel.

A chain keeps one table, built on first use: its interned vertices, the
vertices as integer numerators over their own denominators, f's integer
values per coefficient tuple, one tangent per simplex and the whole
masses per quadrature degree.  Slices, sweeps and window measures
decide every level on ints read off that table, and a slice hands its
chain a table read off its cut table.  These tests hold the public
results to the Fraction path (``fraction_slice`` and
``fraction_window_measures`` in ``conftest``), value and type alike,
count how often the table's parts are built, and hold a handed-in
table to one built afresh.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    coordinate_slice,
    fixture,
    fraction_mass,
    fraction_slice,
    fraction_window_measures,
)
from test_sections import exact_chains, level_between
from test_sweep_kernel import cube_mesh
from test_vertex_ids import recorded_formulas

from ruminslice import (
    AffineFunction,
    DegenerateLevelError,
    SimplicialCurrent,
    band_trend,
    boundary,
    coarea_sweep,
    mass,
    pair_current,
    property_report,
    rumin_class,
    slice_minus,
    slice_plus,
)
from ruminslice import currents, slicing
from ruminslice.forms import PolyForm
from ruminslice.polys import Poly
from ruminslice.slicing import measure_between

F = Fraction

# the pinned CLI function: fractional coefficients and a constant
PINNED_F = AffineFunction((F(1, 2), F(2, 3), F(0)), F(1, 5))


def outcome(call):
    """call()'s value, or ("refused", message) for a DegenerateLevelError."""
    try:
        return call()
    except DegenerateLevelError as exc:
        return ("refused", str(exc))


def on_fractions(call):
    """:func:`outcome` with the slice and window kernels of the Fraction path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slicing, "_slice", fraction_slice)
        patch.setattr(slicing, "_window_measures", fraction_window_measures)
        return outcome(call)


def shape(value):
    """The types inside a result: equal results of equal shapes hold equal types."""
    if isinstance(value, SimplicialCurrent):
        return SimplicialCurrent
    if is_dataclass(value):
        return type(value), tuple(shape(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return type(value), tuple(shape(v) for v in value)
    return type(value)


def assert_same_as_the_fraction_path(call):
    ours, theirs = outcome(call), on_fractions(call)
    assert ours == theirs
    assert shape(ours) == shape(theirs)


denominators = st.integers(min_value=1, max_value=5)
fraction = st.builds(F, st.integers(min_value=-9, max_value=9), denominators)
nonzero = st.builds(F, st.integers(min_value=1, max_value=9), denominators)
level = st.fractions(min_value=F(1, 60), max_value=F(59, 60), max_denominator=60)


@settings(max_examples=100, deadline=None)
@given(T=exact_chains(), coeffs=st.tuples(*(fraction for _ in range(5))),
       const=st.tuples(nonzero, st.booleans()), u=level, v=level)
def test_the_integer_kernel_is_the_fraction_path(T, coeffs, const, u, v):
    coeffs = coeffs[:T.params.dim]
    assume(any(coeffs[:-1]))
    c = const[0] if const[1] else -const[0]
    f = AffineFunction(coeffs, c)
    assume(len({f(p) for p in T.vertices()}) > 1)
    t = level_between(f, T, u)
    for slicer in (slice_plus, slice_minus):
        for certify in (True, False):
            assert_same_as_the_fraction_path(lambda: slicer(T, f, t, certify=certify))
    lo, hi = sorted((t, level_between(f, T, v)))
    assert_same_as_the_fraction_path(lambda: measure_between(T, f, lo - 1, hi))
    assert_same_as_the_fraction_path(lambda: measure_between(T, f, lo, hi))
    # a level on a vertex is refused alike, naming the same vertex
    vertex = min(T.vertices())
    refused = outcome(lambda: slice_plus(T, f, f(vertex)))
    assert refused[0] == "refused"
    assert refused == on_fractions(lambda: slice_plus(T, f, f(vertex)))
    if T.degree - 1 != T.params.n:
        # the sweeps need the closed-form Lipschitz constant: f horizontal
        g = AffineFunction(coeffs[:-1] + (F(0),), c)
        assume(len({g(p) for p in T.vertices()}) > 1)
        s = level_between(g, T, u)
        assert_same_as_the_fraction_path(lambda: band_trend(T, g, s, (F(1, 2), F(1, 7))))
        a, b = sorted((level_between(g, T, u / 2), level_between(g, T, (1 + v) / 2)))
        assume(a < b)
        assert_same_as_the_fraction_path(lambda: coarea_sweep(T, g, a, b, 3))


@pytest.mark.parametrize("name, f, levels", [
    ("cube_h1.json", PINNED_F, (F(3, 5), F(1, 2), F(7, 10))),
    ("cube_h1.json", AffineFunction((F(0), F(0), F(1))), (F(1, 3),)),
    ("square_h2.json", AffineFunction((F(1, 3), F(0), F(1, 2), F(0), F(0)), F(-1, 7)),
     (F(2, 7),)),
])
def test_fixtures_match_the_fraction_path(name, f, levels):
    T = fixture(name)
    for t in levels:
        for slicer in (slice_plus, slice_minus):
            assert_same_as_the_fraction_path(lambda: slicer(T, f, t))
    if f.is_horizontal_affine() and T.degree - 1 != T.params.n:
        assert_same_as_the_fraction_path(lambda: coarea_sweep(T, f, F(1, 4), F(6, 5), 7))


# -- the table's lifetime ----------------------------------------------------


@pytest.fixture
def interned(monkeypatch):
    """The simplex tuples ``currents._intern`` is called on, in order."""
    calls = []
    original = currents._intern

    def counted(simplices):
        calls.append(simplices)
        return original(simplices)

    monkeypatch.setattr(currents, "_intern", counted)
    return calls


def test_a_chain_is_interned_once(interned):
    T = fixture("cube_h1.json")
    f = PINNED_F
    slice_plus(T, f, F(3, 5))
    slice_minus(T, f, F(3, 5))
    slice_plus(T, f, F(4, 5), certify=False)
    coarea_sweep(T, f, F(1, 4), F(6, 5), 7)
    measure_between(T, f, F(1, 4), F(6, 5))
    assert property_report(T, f, [F(1, 2), F(3, 5), F(4, 5)]).passed()
    assert sum(simplices is T.simplices for simplices in interned) == 1
    # the report slices dT as well, from one table of its own
    dT = boundary(T).simplices
    assert sum(simplices == dT for simplices in interned) == 1


def test_the_table_follows_the_simplices(interned):
    T = fixture("cube_h1.json")
    f = PINNED_F
    slice_plus(T, f, F(3, 5))
    table = T._table
    T.simplices = T.simplices[:3]
    result = slice_plus(T, f, F(3, 5))
    assert T._table is not table and T._table.simplices is T.simplices
    assert [simplices is T.simplices for simplices in interned].count(True) == 1
    assert result.chain == coordinate_slice(T, f, F(3, 5), "+")[0]
    assert measure_between(T, f, 0, 2) == mass(T) == F(1, 2)


def test_whole_masses_follow_the_quadrature_degree():
    # the sections of a t-slice have varying tangents: the rule matters
    S = slice_plus(fixture("cube_h1.json"), AffineFunction((0, 0, 1)), F(1, 3)).chain
    fine = mass(S)
    assert fine == fraction_mass(S)
    S.quadrature_degree = 1
    coarse = mass(S)
    assert coarse == fraction_mass(S) and coarse != fine
    assert sorted(S._table.masses) == [1, 5]
    S.quadrature_degree = 5
    assert mass(S) == fine


def test_the_table_is_built_on_first_use():
    T = fixture("cube_h1.json")
    copy = T.with_simplices(T.simplices)
    for chain in (T, copy):
        assert getattr(chain, "_table", None) is None
    slice_plus(T, PINNED_F, F(3, 5), certify=False)
    assert T._table.ids is not None and not any(T._table.tangents)
    assert getattr(copy, "_table", None) is None


# -- one tangent per simplex --------------------------------------------------


@pytest.fixture
def framed(monkeypatch):
    """The corners ``currents._tangent`` is called on, in order: each
    simplex as its vertices' (numerators, den) pairs."""
    calls = []
    original = currents._tangent

    def counted(n, corners):
        calls.append(tuple(corners))
        return original(n, corners)

    monkeypatch.setattr(currents, "_tangent", counted)
    return calls


def corners_of(chain):
    """Each simplex of ``chain`` as bare-simplex corners, outside its table."""
    return Counter(currents._simplex_corners(s) for s in chain.simplices)


@pytest.mark.parametrize("coeffs, t", [((0, 0, 1), F(1, 3)), ((3, 4, 0), F(22, 7))])
def test_a_certified_slice_frames_each_simplex_once(framed, coeffs, t):
    T = fixture("cube_h1.json")
    with recorded_formulas() as formulas:
        result = slice_plus(T, AffineFunction(coeffs), t)
    (formal,) = formulas
    chain = result.chain
    # the slice chain's mass and pairings share its tangents, one per
    # distinct simplex; the formula's simplices that do not cancel are the
    # chain's, so it frames none, and T's tangents are not needed
    assert all(tangent is not None for tangent in chain._table.tangents)
    assert Counter(framed) == corners_of(chain)
    assert set(corners_of(chain).values()) == {1}
    assert len(framed) == len(chain.simplices) < len(formal.simplices)
    assert not any(formal._table.tangents)
    assert formal._table.framed is chain._table.framed
    assert len(chain._table.framed) == len(chain.simplices)
    assert not any(T._table.tangents)


def test_pair_current_frames_each_simplex_once(framed):
    T = fixture("square_h2.json")
    x1 = Poly(T.params.dim, {(1, 0, 0, 0, 0): F(1)})
    c = rumin_class(T.params, 2, PolyForm.single(T.params, (0, 1), x1))
    assert pair_current(T, c) == F(1, 2)
    assert len(framed) == len(T.simplices) == 2
    assert Counter(framed) == corners_of(T)


def test_a_sweep_frames_each_slice_simplex_once(framed, monkeypatch):
    T = cube_mesh(2)
    chains = []
    original = slicing._slice

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        chains.append(result.chain)
        return result

    monkeypatch.setattr(slicing, "_slice", recording)
    # |V -| df| is 5/6 on every tetrahedron: closed-form rows slice nothing,
    # and the rows and the window measures share T's tangents, one each
    coarea_sweep(T, PINNED_F, F(1, 4), F(6, 5), 7)
    assert not chains
    assert set(Counter(framed).values()) == {1}
    assert Counter(framed).keys() <= corners_of(T).keys()
    # by x1 + y1 the norm is irrational and every row slices; a fresh mesh,
    # so its own simplices are framed here, once each
    T = cube_mesh(2)
    f = AffineFunction((F(1), F(1), F(0)))
    framed.clear()
    coarea_sweep(T, f, F(1, 4), F(6, 5), 7)
    assert len(chains) == 7
    sliced = sum((corners_of(chain) for chain in chains), Counter())
    # slices of T have T.degree vertices, T's own simplices one more
    built = Counter(c for c in framed if len(c) == T.degree)
    assert built == sliced and set(built.values()) == {1}
    whole = Counter(c for c in framed if len(c) == T.degree + 1)
    assert set(whole.values()) == {1} and whole.keys() <= corners_of(T).keys()
    # a second sweep frames its own slices only: T's tangents are in its table
    framed.clear()
    coarea_sweep(T, f, F(1, 4), F(6, 5), 7)
    assert Counter(framed) == sum((corners_of(chain) for chain in chains[7:]), Counter())


@settings(max_examples=60, deadline=None)
@given(T=exact_chains(), coeffs=st.tuples(*(fraction for _ in range(5))),
       const=st.tuples(nonzero, st.booleans()), u=level)
def test_a_slice_chain_is_born_with_its_table(T, coeffs, const, u):
    # vertices over distinct denominators, fractional coefficients, a constant
    assume(len({currents._integer_point(v)[1] for v in T.vertices()}) > 1)
    coeffs = coeffs[:T.params.dim]
    c = const[0] if const[1] else -const[0]
    f = AffineFunction(coeffs, c)
    assume(len({f(p) for p in T.vertices()}) > 1)
    t = level_between(f, T, u)
    for slicer in (slice_plus, slice_minus):
        with recorded_formulas() as formulas:
            try:
                chain = slicer(T, f, t).chain
            except DegenerateLevelError:
                return
        (formal,) = formulas
        table = chain._table
        fresh = chain.with_simplices(chain.simplices)
        assert table.simplices is chain.simplices
        assert table.ids == currents._interned(fresh)
        assert table.ints == currents._integer_points(fresh)
        assert currents._corners(chain) == currents._corners(fresh)
        # the formula chain's corners came off the cut table too, and it
        # read its framings off the chain's: its own tangents stay unbuilt
        assert formal._table.corners == [currents._simplex_corners(s) for s in formal.simplices]
        assert formal._table.framed is table.framed
        assert not any(formal._table.tangents)
        again = chain.with_simplices(chain.simplices)
        for index, s in enumerate(chain.simplices):
            tangent = table.tangents[index]
            assert tangent == currents._tangent_of(again, index)
            assert tangent == currents._tangent(T.params.n, currents._simplex_corners(s))

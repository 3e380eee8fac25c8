"""The exact slice certificate, and the random-form battery it replaced.

A certified slice checks that its canonical chain is a fixed point of
``canonical()`` and compares the pairings of that chain and of the
uncancelled formula chain with every constant blade form dw_B (see
:mod:`ruminslice.slicing`).  The battery below, 20 forms paired on a
degree-2 rule, is what slices used to certify with; it stays here as an
oracle for ``canonical()``: on exact chains it must pair the canonical
chain and the formula chain to the same Fractions.  The fault-injection
tests break the formula chain, ``canonical()`` or the table a slice
hands its chain, and expect the certificate to notice.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import FIXTURES, constant_blade_forms
from test_sweep_kernel import cube_mesh, float_near_plane

from ruminslice import (
    DegenerateLevelError,
    HeisParams,
    InternalInvariantError,
    Simplex,
    SimplicialCurrent,
    slice_minus,
    slice_plus,
)
from ruminslice import currents, slicing
from ruminslice.currents import pair_forms_batch
from ruminslice.formio import load_chain
from ruminslice.forms import random_form
from ruminslice.slicing import AffineFunction

F = Fraction


def _residual_battery(params, grade, seed=20902):
    """The constant blade forms of a grade, topped up to 20 with random forms."""
    rng = random.Random(seed)
    forms = list(constant_blade_forms(params, grade))
    for _ in range(20 - len(forms)):
        forms.append(random_form(rng, params, grade, max_degree=2, terms=2))
    return forms


def affine(*coeffs):
    return AffineFunction(coeffs)


@pytest.fixture
def certified(monkeypatch):
    """Records (chain, formal) for every certificate a slice checks, before
    the check, so a test can read the pair of a slice that failed it."""
    seen = []
    original = slicing._certificate

    def spy(chain, formal):
        seen.append((chain, formal))
        return original(chain, formal)

    monkeypatch.setattr(slicing, "_certificate", spy)
    return seen


def fuzz_cases():
    """The random exact chains, functions and levels of the slicing fuzz test."""
    rng = random.Random(424242)
    cases = []
    for _ in range(20):
        n = rng.choice((1, 2))
        params = HeisParams(n)
        dim = 2 * n + 1
        degree = rng.randint(1, min(3, dim))
        simplices = []
        for _ in range(rng.randint(1, 2)):
            while True:
                verts = tuple(
                    tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
                    for _ in range(degree + 1))
                try:
                    simplices.append(Simplex(verts, F(rng.choice([-2, -1, 1, 2]))))
                    break
                except Exception:
                    continue
        chain = SimplicialCurrent(params, degree, simplices)
        coeffs = [F(rng.randint(-3, 3)) for _ in range(dim)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = F(1)
        f = AffineFunction(tuple(coeffs))
        values = sorted({f(v) for v in chain.vertices()})
        if len(values) < 2:
            continue
        lo, hi = values[0], values[-1]
        for _ in range(2):
            cases.append((chain, f, lo + (hi - lo) * F(rng.randint(1, 999), 1000)))
    return cases


FIXTURE_CASES = [
    ("segment_h1.json", (1, 0, 0), F(1, 3)),
    ("cube_h1.json", (1, 0, 0), F(1, 2)),
    ("cube_h1.json", (3, 4, 0), F(23, 7)),
    ("cube_h1.json", (0, 0, 1), F(1, 3)),
    ("square_h2.json", (1, 0, 0, 0, 0), F(1, 3)),
    ("square_h2.json", (1, 1, 0, 0, 0), F(3, 4)),
]

MESH_CASES = [(size, coeffs, level) for size in (1, 2)
              for coeffs, level in (((3, 4, 0), F(23, 7)), ((0, 0, 1), F(5, 7)))]


def exact_cases():
    cases = [(load_chain(FIXTURES / name), affine(*coeffs), t)
             for name, coeffs, t in FIXTURE_CASES]
    cases += [(cube_mesh(size), affine(*coeffs), t) for size, coeffs, t in MESH_CASES]
    return cases


def assert_battery_agrees(chain, formal):
    battery = _residual_battery(chain.params, chain.degree)
    direct = pair_forms_batch(chain, battery, degree_hint=2)
    via_formula = pair_forms_batch(formal, battery, degree_hint=2)
    assert not any(isinstance(v, float) for v in direct + via_formula)
    assert direct == via_formula


# -- the battery as an oracle for canonical() ---------------------------------


@pytest.mark.parametrize("name,coeffs,t", FIXTURE_CASES)
def test_battery_agrees_on_fixtures(certified, name, coeffs, t):
    T = load_chain(FIXTURES / name)
    for slicer in (slice_plus, slice_minus):
        result = slicer(T, affine(*coeffs), t)
        chain, formal = certified[-1]
        assert chain == result.chain and result.residual == 0.0
        assert_battery_agrees(chain, formal)


@pytest.mark.parametrize("size,coeffs,t", MESH_CASES)
def test_battery_agrees_on_cube_meshes(certified, size, coeffs, t):
    result = slice_plus(cube_mesh(size), affine(*coeffs), t)
    chain, formal = certified[-1]
    assert not chain.is_empty()
    assert chain == result.chain and result.residual == 0.0
    assert_battery_agrees(chain, formal)


def test_battery_agrees_on_fuzz_cases(certified):
    checked = 0
    for T, f, t in fuzz_cases():
        try:
            result = slice_plus(T, f, t)
        except DegenerateLevelError:
            continue
        checked += 1
        chain, formal = certified[-1]
        assert chain == result.chain and result.residual == 0.0
        assert_battery_agrees(chain, formal)
    assert checked >= 20


# -- fault injection ----------------------------------------------------------


def certificate_parts(certified, T, f, t):
    slice_plus(T, f, t)
    return certified[-1]


def assert_pairs_differently(chain, formal):
    with pytest.raises(InternalInvariantError, match="pair differently"):
        slicing._certificate(chain, formal)


def test_dropping_a_formula_simplex_is_detected(certified):
    for T, f, t in exact_cases():
        chain, formal = certificate_parts(certified, T, f, t)
        size = len(formal.simplices)
        for index in sorted({0, size // 2, size - 1}):
            broken = formal.with_simplices(
                formal.simplices[:index] + formal.simplices[index + 1:])
            assert_pairs_differently(chain, broken)


def test_changing_a_formula_multiplicity_is_detected(certified):
    for T, f, t in exact_cases():
        chain, formal = certificate_parts(certified, T, f, t)
        size = len(formal.simplices)
        for index in sorted({0, size // 2, size - 1}):
            simplices = list(formal.simplices)
            s = simplices[index]
            simplices[index] = Simplex._trusted(s.vertices, s.multiplicity + F(1, 3))
            broken = formal.with_simplices(simplices)
            assert_pairs_differently(chain, broken)


# float(1 / 10**400) is 0.0 and float(10**400) overflows: the certificate
# decides on the exact differences
GAPS = [F(1, 10**400), F(10**400)]


@pytest.mark.parametrize("gap", GAPS)
def test_gaps_outside_the_float_range_are_detected(certified, gap):
    for T, f, t in exact_cases():
        chain, formal = certificate_parts(certified, T, f, t)
        s = formal.simplices[0]
        broken = formal.with_simplices(
            (Simplex._trusted(s.vertices, s.multiplicity + gap),) + formal.simplices[1:])
        assert_pairs_differently(chain, broken)


@pytest.mark.parametrize("gap", GAPS)
def test_a_gap_outside_the_float_range_fails_the_slice(monkeypatch, gap):
    # the fault is in the pairing alone, so only the exact comparison sees it
    original = slicing._blade_pairings
    nudged = []

    def faulty(T):
        totals = original(T)
        if T.canonical() != T:  # the uncancelled formula chain
            blade = min(totals)
            totals[blade] += gap
            nudged.append(blade)
        return totals

    monkeypatch.setattr(slicing, "_blade_pairings", faulty)
    T = load_chain(FIXTURES / "cube_h1.json")
    with pytest.raises(InternalInvariantError, match="pair differently"):
        slice_plus(T, affine(1, 0, 0), F(1, 2))
    assert len(nudged) == 1


def test_a_misranked_slice_table_fails_the_slice(monkeypatch, certified):
    # the slice chain's simplices are right, but the table handed to it
    # ranks two of its cut points the wrong way round; canonical() reads
    # the simplices and the formula merge compares ids, so only the
    # pairings, keyed by the corners each chain's table gives, can see it
    original = slicing._Table

    def misranked(simplices, ids=None, ints=None, **parts):
        if ids is not None:  # the slice chain's table, off the cut table
            points, ints = list(ids[0]), list(ints)
            points[0], points[1] = points[1], points[0]
            ints[0], ints[1] = ints[1], ints[0]
            ids = (points, ids[1])
        return original(simplices, ids=ids, ints=ints, **parts)

    monkeypatch.setattr(slicing, "_Table", misranked)
    # a 0-chain pairs with the constant 0-form by its multiplicities
    # alone, so slices of 1-chains cannot show a misplaced point
    cases = [(T, f, t) for T, f, t in exact_cases() if T.degree >= 2]
    assert len(cases) >= 7
    for T, f, t in cases:
        for slicer in (slice_plus, slice_minus):
            uncertified = slicer(T, f, t, certify=False).chain
            with pytest.raises(InternalInvariantError, match="pair differently"):
                slicer(T, f, t)
            chain, formal = certified[-1]
            assert chain == uncertified and chain.canonical() == chain
            assert currents._corners(chain) != [currents._simplex_corners(s)
                                                for s in chain.simplices]
            assert_pairs_differently(chain, formal)


@pytest.mark.parametrize("fault", ["doubles", "drops the last simplex"])
def test_non_idempotent_canonical_raises(monkeypatch, fault):
    original = SimplicialCurrent.canonical

    def faulty(self):
        merged = original(self)
        if fault == "doubles":
            return merged.scaled(2)
        return merged.with_simplices(merged.simplices[:-1])

    monkeypatch.setattr(SimplicialCurrent, "canonical", faulty)
    T = load_chain(FIXTURES / "cube_h1.json")
    with pytest.raises(InternalInvariantError, match="idempotent"):
        slice_plus(T, affine(1, 0, 0), F(1, 2))


def segment_chain(params, vertices, multiplicity):
    return SimplicialCurrent(params, 1, [Simplex(vertices, multiplicity)])


@pytest.mark.parametrize("t", [0.5 + 1e-3, 0.25, 0.5 + 5e-12])
def test_a_float_chain_certifies_and_a_sliver_fails(certified, t):
    # vertices of the chain sit within 1e-14 of x1 = 1/2; converted
    # exactly, no clip piece or face is a sliver, canonical() drops nothing
    # and the certificate passes, as on exact chains
    T = float_near_plane(0.5)
    f = AffineFunction((1.0, 0.0, 0.0))
    result = slice_plus(T, f, t)
    chain, formal = certified[-1]
    assert chain == result.chain and result.residual == 0.0
    assert not any(s.degenerate() for s in formal.simplices)
    assert_battery_agrees(chain, formal)

    # a segment on the level only 1e-8 long is exact and nondegenerate:
    # canonical() keeps it, and the certificate sees it
    sliver = ((t, 1.0, 0.5), (t, 1.0 + 1e-8, 0.5))
    with_sliver = formal + segment_chain(formal.params, sliver, 1.0)
    assert with_sliver.canonical() != chain
    assert_pairs_differently(chain, with_sliver)

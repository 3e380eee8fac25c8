"""The moment-table pairing kernel against the per-node evaluation.

The oracle below is the direct path: at every quadrature node it wedges
the framed edges (``conftest.tangent_at``), evaluates each form
(``evaluate_at``) and pairs the two, times the weight at the node when
one is given.  The kernel must return the same Fractions, on float
chains too: ``Simplex`` converts float coordinates exactly.  A chain
restricted by a weight (``restrict_by_fn``) pairs through the same
kernel, and must match the weighted oracle on its (pre-split) chain.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, constant_blade_forms, tangent_at

from ruminslice import (
    AdmissibilityError,
    GammaWeight,
    HeisParams,
    MultiVector,
    Simplex,
    SimplicialCurrent,
    boundary,
    is_admissible,
    mass,
    measure_of,
    pair_current,
    restrict_by_fn,
    restrict_to_set,
    rumin_class,
)
from ruminslice.algebra import Covector, all_blades, pair, wedge
from ruminslice.currents import (
    _blade_pairings,
    _node_tangents,
    _numerators,
    _shift_rows,
    _simplex_corners,
    _tangent,
    pair_forms_batch,
    sqrt_exact_or_float,
)
from ruminslice.formio import load_chain
from ruminslice.forms import random_form
from ruminslice.heis import Point, frame_change
from ruminslice.quadrature import grundmann_moller, parameter_nodes, rule_for_degree
from ruminslice.slicing import AffineFunction
from test_slice_certificate import _residual_battery

F = Fraction


# -- the per-node oracle --------------------------------------------------


def oracle_pair_forms_batch(T, forms, degree_hint=None, weight=None):
    forms = list(forms)
    if degree_hint is None:
        degree_hint = T.quadrature_degree + max(
            (f.max_coeff_degree() for f in forms), default=0)
    totals = [0] * len(forms)
    for s in T.simplices:
        rule = rule_for_degree(s.degree, degree_hint)
        node_data = [(Point.from_coords(coords), weight, tangent_at(T.params, s, coords))
                     for coords, weight in parameter_nodes(s.vertices, rule)]
        for index, omega in enumerate(forms):
            acc = 0
            for point, node_weight, tangent in node_data:
                g = 1 if weight is None else weight(point)
                if g == 0:
                    continue
                acc = acc + node_weight * g * pair(omega.evaluate_at(point), tangent)
            totals[index] = totals[index] + s.multiplicity * acc
    return totals


def oracle_mass(T, region=None):
    """Closed form on constant tangents, else a per-node norm of tangent_at."""
    total = F(0)
    for s in T.simplices:
        at_vertices = [tangent_at(T.params, s, v) for v in s.vertices]
        nodes = parameter_nodes(s.vertices, rule_for_degree(s.degree, T.quadrature_degree))
        if region is None and all(v == at_vertices[0] for v in at_vertices):
            volume = F(1, math.factorial(s.degree))
            acc = sqrt_exact_or_float(at_vertices[0].norm_sq()) * volume
        else:
            acc = F(0)
            for coords, weight in nodes:
                if region is None or region(Point.from_coords(coords)):
                    tangent = tangent_at(T.params, s, coords)
                    acc = acc + weight * sqrt_exact_or_float(tangent.norm_sq())
        total = total + abs(s.multiplicity) * acc
    return total


def oracle_is_admissible(V, n):
    k = V.grade
    dim = 2 * n + 1
    theta = Covector.blade(dim, (dim - 1,))
    dtheta = Covector(dim, 2, {(j, n + j): F(-1) for j in range(n)})
    generators = [wedge(theta, Covector.blade(dim, b)) for b in all_blades(dim, k - 1)]
    if k >= 2:
        generators += [wedge(dtheta, Covector.blade(dim, b)) for b in all_blades(dim, k - 2)]
    return all(pair(phi, V) == 0 for phi in generators if phi.grade == k)


# -- chains -----------------------------------------------------------------


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


def random_chain(rng, n, degree, count, exact=True):
    dim = 2 * n + 1
    simplices = []
    while len(simplices) < count:
        if exact:
            verts = tuple(tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
                          for _ in range(degree + 1))
        else:
            verts = tuple(tuple(rng.uniform(-2.0, 2.0) for _ in range(dim))
                          for _ in range(degree + 1))
        mult = F(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
        try:
            simplices.append(Simplex(verts, mult))
        except ValueError:
            continue
    return SimplicialCurrent(HeisParams(n), degree, simplices)


def fixture_chains():
    return [load_chain(FIXTURES / name) for name in
            ("segment_h1.json", "cube_h1.json", "square_h2.json")]


def slice_chains(T, f, t):
    """The formal (uncancelled) slice chain and its canonical form."""
    hs = f.halfspace(t, ">")
    formal = restrict_to_set(boundary(T), [hs]) - boundary(restrict_to_set(T, [hs]))
    return formal, formal.canonical()


def forms_for(rng, params, grade, count, max_degree=2):
    forms = list(constant_blade_forms(params, grade))
    forms += [random_form(rng, params, grade, max_degree=max_degree, terms=2)
              for _ in range(count)]
    return forms


# -- exact agreement --------------------------------------------------------


@pytest.mark.parametrize("index", range(3))
def test_fixtures_exact(index):
    rng = random.Random(100 + index)
    T = fixture_chains()[index]
    forms = forms_for(rng, T.params, T.degree, 4)
    assert pair_forms_batch(T, forms) == oracle_pair_forms_batch(T, forms)
    assert pair_forms_batch(T, forms, degree_hint=2) == oracle_pair_forms_batch(T, forms, 2)
    assert mass(T) == oracle_mass(T)
    bdry = boundary(T)
    assert mass(bdry) == oracle_mass(bdry)
    region = lambda p: p.x[0] > F(1, 3)  # noqa: E731
    assert measure_of(T, region) == oracle_mass(T, region)


@pytest.mark.parametrize("coeffs,level", [
    ((3, 4, 0), F(23, 7)),
    ((0, 0, 1), F(5, 7)),
])
def test_mesh_slices_exact(coeffs, level):
    mesh = cube_mesh(2)
    f = AffineFunction(tuple(F(c) for c in coeffs))
    formal, chain = slice_chains(mesh, f, level)
    battery = _residual_battery(mesh.params, chain.degree)
    for T in (formal, chain):
        assert pair_forms_batch(T, battery, degree_hint=2) == \
            oracle_pair_forms_batch(T, battery, degree_hint=2)
        assert mass(T) == oracle_mass(T)
    default = battery[3:6]
    assert pair_forms_batch(chain, default) == oracle_pair_forms_batch(chain, default)


@pytest.mark.parametrize("n,degree", [(1, k) for k in range(1, 4)] + [(2, k) for k in range(1, 6)])
def test_random_exact_chains(n, degree):
    rng = random.Random(1000 * n + degree)
    T = random_chain(rng, n, degree, count=2)
    forms = forms_for(rng, T.params, degree, 2, max_degree=1 if degree >= 4 else 2)
    assert pair_forms_batch(T, forms) == oracle_pair_forms_batch(T, forms)
    assert mass(T) == oracle_mass(T)


@pytest.mark.parametrize("n,degree", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)])
def test_float_chains_relative(n, degree):
    rng = random.Random(77 + 10 * n + degree)
    T = random_chain(rng, n, degree, count=2, exact=False)
    forms = forms_for(rng, T.params, degree, 3)
    assert pair_forms_batch(T, forms) == oracle_pair_forms_batch(T, forms)
    assert mass(T) == oracle_mass(T)


@pytest.mark.parametrize("size", [1, 2])
def test_weighted_pairing_matches_the_weighted_oracle(size):
    rng = random.Random(40 + size)
    mesh = cube_mesh(size)
    forms = forms_for(rng, mesh.params, mesh.degree, 1, max_degree=1)
    weights = [
        # the ramp's band cuts the corner at the origin, so the pre-split stays small
        GammaWeight((1, 1, 1), 0, F(1, 4), F(1, 4)),
        lambda p: 1 if p.x[0] > F(1, 3) else 0,
    ]
    for weight in weights:
        functional = restrict_by_fn(mesh, weight)
        for omega in forms:
            value = functional.pair(omega)
            assert isinstance(value, Fraction)
            assert value == oracle_pair_forms_batch(functional.chain, [omega], weight=weight)[0]


def test_weighted_chain_keeps_no_piece_below_the_level():
    # the ramp is 0 on {f <= t}: no piece is kept there, and the value is
    # the weighted oracle's on the chain split along all three bands
    mesh = cube_mesh(2)
    weight = GammaWeight((3, 4, 0), 0, F(23, 7), F(1, 2))
    functional = restrict_by_fn(mesh, weight)
    low, high = weight.level_halfspaces()
    assert all(any(low.value(v) > 0 for v in s.vertices) for s in functional.chain.simplices)
    below = restrict_to_set(mesh, [low.complement()])
    assert below.simplices
    omega = constant_blade_forms(mesh.params, 3)[0]
    value = functional.pair(omega)
    assert value == F(55, 112)
    assert value == oracle_pair_forms_batch(functional.chain + below, [omega], weight=weight)[0]


# -- admissibility ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_admissibility_matches_generator_oracle(n):
    rng = random.Random(n)
    dim = 2 * n + 1
    for k in range(1, n + 1):
        blades = list(all_blades(dim, k))
        for _ in range(60):
            chosen = rng.sample(blades, rng.randint(1, min(3, len(blades))))
            V = MultiVector(dim, k, {b: F(rng.choice([-1, 1])) for b in chosen})
            assert is_admissible(V, n) == oracle_is_admissible(V, n)
    # X1^X2 + Y1^Y2 and X1^Y1 - X2^Y2 annihilate dtheta: admissible
    for coeffs in ({(0, 1): F(1), (2, 3): F(1)}, {(0, 2): F(1), (1, 3): F(-1)}):
        V = MultiVector(5, 2, coeffs)
        assert is_admissible(V, 2) and oracle_is_admissible(V, 2)


def test_pair_current_verdicts_match_node_tangents():
    rng = random.Random(9)
    for T in fixture_chains() + [random_chain(rng, 2, 1, 1), random_chain(rng, 2, 2, 1)]:
        omega = random_form(rng, T.params, T.degree, max_degree=2, terms=1)
        c = rumin_class(T.params, T.degree, omega)
        if T.degree > T.params.n:
            assert pair_current(T, c) == oracle_pair_forms_batch(T, [omega])[0]
            continue
        hint = T.quadrature_degree + omega.max_coeff_degree()
        admissible = all(
            is_admissible(tangent_at(T.params, s, coords), T.params.n)
            for s in T.simplices
            for coords, _ in parameter_nodes(s.vertices, rule_for_degree(s.degree, hint)))
        if admissible:
            assert pair_current(T, c) == oracle_pair_forms_batch(T, [omega])[0]
        else:
            with pytest.raises(AdmissibilityError):
                pair_current(T, c)


# -- the affine tangent V(p) = E + L(p) ------------------------------------


@st.composite
def simplex_and_rule(draw):
    n = draw(st.sampled_from([1, 2]))
    dim = 2 * n + 1
    degree = draw(st.integers(min_value=0, max_value=dim))
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    vertices = [tuple(draw(coord) for _ in range(dim)) for _ in range(degree + 1)]
    if degree >= 2 and draw(st.booleans()):
        # the last vertex on the line through two others: a degenerate simplex
        i, j = draw(st.lists(st.integers(0, degree - 1), min_size=2, max_size=2, unique=True))
        lam = draw(coord)
        vertices[-1] = tuple(a + lam * (b - a) for a, b in zip(vertices[i], vertices[j]))
    return (HeisParams(n), Simplex(tuple(vertices), F(0)),
            draw(st.integers(min_value=0, max_value=3)))


@settings(max_examples=60, deadline=None)
@given(simplex_and_rule())
def test_interpolated_tangent_equals_wedge_at_every_node(case):
    params, simplex, s = case
    tangent = _tangent(params.n, _simplex_corners(simplex))

    def evaluated(point, weight=1):
        # V at point / (weight * d), from the integer numerators over den
        value = {b: F(c, weight * tangent.den)
                 for b, c in _numerators(tangent, point, weight).items() if c}
        return MultiVector(params.dim, simplex.degree, value)

    wedged = [tangent_at(params, simplex, v) for v in simplex.vertices]
    assert simplex.degenerate() == wedged[0].is_zero()
    assert [evaluated(p) for p in tangent.points] == wedged
    # the constant blade pairings evaluate V at the centroid
    corners = simplex.degree + 1
    centroid = tuple(sum(axis) / corners for axis in zip(*simplex.vertices))
    volume = F(1, math.factorial(simplex.degree))
    integer_centroid = [sum(axis) for axis in zip(*tangent.points)]
    assert evaluated(integer_centroid, corners) == tangent_at(params, simplex, centroid)
    at_centroid = tangent_at(params, simplex, centroid).scale(volume)
    T = SimplicialCurrent(params, simplex.degree, [Simplex._trusted(simplex.vertices, F(1))])
    assert MultiVector(params.dim, simplex.degree, _blade_pairings(T)) == at_centroid
    rule = grundmann_moller(simplex.degree, s)
    degree = 2 * s + 1
    assert rule_for_degree(simplex.degree, degree) == rule
    nodes = _node_tangents(simplex, tangent, degree)
    assert len(nodes) == len(rule)
    for (bary, weight), (coords, node_weight, tangent) in zip(rule, nodes):
        assert node_weight == weight
        assert coords == tuple(sum(lam * v[axis] for lam, v in zip(bary, simplex.vertices))
                               for axis in range(params.dim))
        expected = tangent_at(params, simplex, coords)
        assert all(c != 0 for c in tangent.values())
        assert MultiVector(params.dim, simplex.degree, tangent) == expected


def test_constant_exactly_when_the_vertex_tangents_agree():
    rng = random.Random(18)
    chains = fixture_chains() + [boundary(cube_mesh(1)), random_chain(rng, 1, 2, 6)]
    chains += [random_chain(rng, 2, degree, 6) for degree in range(1, 5)]
    seen = set()
    for T in chains:
        for s in T.simplices:
            tangent = _tangent(T.params.n, _simplex_corners(s))
            wedged = [tangent_at(T.params, s, v) for v in s.vertices]
            assert tangent.constant == all(w == wedged[0] for w in wedged)
            if tangent.linear:
                seen.add(tangent.constant)
    # both verdicts occur where L is not empty, so the edge test was exercised
    assert seen == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shift_rows_match_frame_change(n):
    rng = random.Random(n)
    dim = 2 * n + 1
    common, rows = _shift_rows(n)
    assert len(rows) == 2 * n
    assert all(isinstance(c, int) for row in rows for _, c in row)
    for _ in range(20):
        coords = tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim))
        point = Point.from_coords(coords)
        for b, row in enumerate(rows):
            unit = tuple(int(axis == b) for axis in range(dim))
            shift = sum(c * coords[axis] for axis, c in row) / common
            assert unit[:-1] + (shift,) == frame_change(point, unit)

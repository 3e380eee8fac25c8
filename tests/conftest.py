"""Shared test paths, fixture chains and oracles."""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def fixture(name):
    """A shipped chain from ``fixtures/``, by file name."""
    from ruminslice.formio import load_chain

    return load_chain(FIXTURES / name)


def unit_segment_chain():
    """The oriented unit x-axis segment in H^1; mass 1."""
    return fixture("segment_h1.json")


def unit_cube_chain():
    """The unit cube in H^1 as six positively oriented Kuhn tetrahedra."""
    return fixture("cube_h1.json")


def horizontal_square_chain():
    """The unit square in the (x1, x2) plane of H^2, as two triangles."""
    return fixture("square_h2.json")


def constant_blade_forms(params, grade: int):
    """All coordinate-blade covectors of a grade, as constant forms."""
    from ruminslice.forms import PolyForm
    from ruminslice.polys import Poly
    from ruminslice.rumin import full_blades

    one = Poly.const(params.dim, 1)
    return [PolyForm.single(params, blade, one) for blade in full_blades(params.n, grade)]


def tangent_at(params, simplex, coords):
    """Wedge of the frame images of a simplex's edge vectors at a point.

    The oracle for the library's tangents, which frame the simplex's
    coordinate k-vector instead of wedging framed edges.
    """
    from ruminslice.algebra import MultiVector, wedge
    from ruminslice.heis import Point, frame_change

    point = Point.from_coords(coords)
    result = MultiVector.blade(params.dim, ())
    for edge in simplex.edges():
        framed = frame_change(point, edge)
        grade_one = MultiVector(params.dim, 1,
                                {(i,): c for i, c in enumerate(framed) if c != 0})
        result = wedge(result, grade_one)
    return result


def atom_levels(T, f):
    """The levels where f is constant on a simplex of T or of dT.

    The oracle of the property report's P0, which reads them off the
    vertex-value table: f is evaluated at coordinates, simplex by simplex,
    and dT is :func:`coordinate_boundary`.
    """
    atoms = set()
    for chain in [T, coordinate_boundary(T)] if T.degree >= 1 else [T]:
        for s in chain.simplices:
            values = {f(v) for v in s.vertices}
            if len(values) == 1:
                atoms |= values
    return sorted(atoms)


# -- the coordinate merge and slice, the oracles of the vertex-id kernel -------


def _inversion_sign(order) -> int:
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -1 if inversions % 2 else 1


def coordinate_canonical(chain):
    """``canonical()`` by sorting coordinate tuples, simplex by simplex.

    The merge as it was before vertices were interned: each simplex's
    vertices are sorted lexicographically, the multiplicity signed by the
    permutation's parity, and equal vertex tuples summed.
    """
    from ruminslice import Simplex

    merged = {}
    for s in chain.simplices:
        order = sorted(range(len(s.vertices)), key=lambda i: s.vertices[i])
        key = tuple(s.vertices[i] for i in order)
        merged[key] = merged.get(key, 0) + _inversion_sign(order) * s.multiplicity
    return chain.with_simplices(Simplex._trusted(v, m) for v, m in sorted(merged.items())
                                if m != 0)


def coordinate_boundary(chain):
    """``boundary()`` with faces on coordinate tuples and :func:`coordinate_canonical`."""
    from ruminslice import Simplex, SimplicialCurrent

    faces = [Simplex._trusted(s.vertices[:i] + s.vertices[i + 1:],
                              s.multiplicity if i % 2 == 0 else -s.multiplicity)
             for s in chain.simplices for i in range(len(s.vertices))]
    return coordinate_canonical(SimplicialCurrent(chain.params, chain.degree - 1, faces,
                                                  chain.quadrature_degree))


def coordinate_slice(T, f, t, side):
    """(chain, formula) of a slice computed on coordinate tuples throughout.

    The crossing simplices are clipped on coordinates, the sections are the
    faces of the kept pieces opposite their one off-level vertex, merged by
    :func:`coordinate_canonical`, and the formula is
    (dT)|{f>t} - d(T|{f>t}) (or d(T|{f<t}) - (dT)|{f<t}) over the crossing
    simplices, each boundary merged by :func:`coordinate_boundary` and
    (dT)|{f>t} clipped afresh.
    """
    from ruminslice import Simplex, SimplicialCurrent, restrict_to_set
    from ruminslice.clipping import _split

    plus = side == "+"
    hs = f.halfspace(t, ">" if plus else "<")
    crossing = []
    for s in T.simplices:
        values = tuple(hs.value(v) for v in s.vertices)
        if min(values) < 0 < max(values):
            crossing.append((s, _split(s.vertices, hs, values)[0]))
    faces = []
    for s, pieces in crossing:
        for piece, values in pieces:
            off = [i for i, v in enumerate(values) if v != 0]
            if len(off) == 1:
                i = off[0]
                negate = plus == (i % 2 == 0)
                faces.append(Simplex._trusted(piece[:i] + piece[i + 1:],
                                              -s.multiplicity if negate else s.multiplicity))
    chain = coordinate_canonical(SimplicialCurrent(T.params, T.degree - 1, faces,
                                                   T.quadrature_degree))
    cut = T.with_simplices([s for s, _ in crossing])
    restricted_boundary = restrict_to_set(coordinate_boundary(cut), [hs])
    boundary_of_restricted = coordinate_boundary(cut.with_simplices(
        Simplex._trusted(piece, s.multiplicity) for s, pieces in crossing for piece, _ in pieces))
    if plus:
        return chain, restricted_boundary - boundary_of_restricted
    return chain, boundary_of_restricted - restricted_boundary


# -- the Fraction tangent kernel, the oracle of the integer one ----------------


def fraction_edge_kvector(simplex):
    """E = e_1 ^ ... ^ e_k on the simplex's Fraction edges, as {blade: minor}."""
    from ruminslice.algebra import wedge_vectors

    return wedge_vectors(len(simplex.vertices[0]), simplex.edges())


def fraction_tangent(n, simplex):
    """(E, L, constant): V(p) = E + L(p) on Fractions.

    L maps each target blade of the frame moves to {axis: coefficient},
    with the shift coefficients read off ``frame_change`` at the unit
    points as Fractions; ``constant`` is true when L vanishes on every
    Fraction edge.
    """
    from ruminslice.currents import _frame_moves
    from ruminslice.heis import Point, frame_change

    dim = 2 * n + 1
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rows = [[(axis, c) for axis, unit in enumerate(units)
             if (c := frame_change(Point.from_coords(unit), units[b])[-1]) != 0]
            for b in range(2 * n)]
    kvector = fraction_edge_kvector(simplex)
    linear = {}
    for blade, c in kvector.items():
        for b, sign, target in _frame_moves(n, blade):
            row = linear.setdefault(target, {})
            for axis, a in rows[b]:
                row[axis] = row.get(axis, 0) + sign * a * c
    constant = not linear or not any(
        sum(c * edge[axis] for axis, c in row.items())
        for edge in simplex.edges() for row in linear.values())
    return kvector, linear, constant


def fraction_tangent_at(tangent, coords):
    """E + L(coords) of a :func:`fraction_tangent`, without zeros."""
    kvector, linear, _ = tangent
    out = dict(kvector)
    for target, row in linear.items():
        out[target] = out.get(target, 0) + sum(c * coords[axis] for axis, c in row.items())
    return {b: c for b, c in out.items() if c != 0}


def fraction_blade_pairings(T):
    """T(dw_B) per blade: V at the Fraction centroid, times mult / k!."""
    from fractions import Fraction
    from math import factorial

    corners = T.degree + 1
    volume = Fraction(1, factorial(T.degree))
    totals = {}
    for s in T.simplices:
        centroid = tuple(sum(axis) / corners for axis in zip(*s.vertices))
        weight = s.multiplicity * volume
        for b, c in fraction_tangent_at(fraction_tangent(T.params.n, s), centroid).items():
            totals[b] = totals.get(b, 0) + weight * c
    return totals


def fraction_mass(T, region=None):
    """M(T), or the predicate measure, with every node built on Fractions.

    A constant tangent gives |V(v_0)| / k!; otherwise the node coordinates
    come from ``parameter_nodes`` and |E + L(p)| is rooted at each node,
    in the rule's order.
    """
    from fractions import Fraction
    from math import factorial

    from ruminslice.currents import sqrt_exact_or_float
    from ruminslice.heis import Point
    from ruminslice.quadrature import parameter_nodes, rule_for_degree

    def norm(value):
        return sqrt_exact_or_float(sum(c * c for c in value.values()))

    total = Fraction(0)
    for s in T.simplices:
        tangent = fraction_tangent(T.params.n, s)
        if tangent[2] and region is None:
            volume = Fraction(1, factorial(s.degree))
            acc = norm(fraction_tangent_at(tangent, s.vertices[0])) * volume
        else:
            acc = Fraction(0)
            rule = rule_for_degree(s.degree, T.quadrature_degree)
            for coords, weight in parameter_nodes(s.vertices, rule):
                if region is None or region(Point.from_coords(coords)):
                    acc = acc + weight * norm(fraction_tangent_at(tangent, coords))
        total = total + abs(s.multiplicity) * acc
    return total


# -- small helpers the library does not need ------------------------------------


def origin(n):
    """The identity (0, ..., 0) of H^n."""
    from fractions import Fraction

    from ruminslice.heis import Point

    return Point.from_coords((Fraction(0),) * (2 * n + 1))


def scale_vars(poly, factors):
    """Substitute ``v_i -> factors[i] * v_i`` in a :class:`Poly`."""
    from fractions import Fraction

    from ruminslice.polys import Poly

    if len(factors) != poly.nvars:
        raise ValueError("need one scale factor per variable")
    out = {}
    for expo, coef in poly.terms.items():
        for factor, e in zip(factors, expo):
            coef = coef * Fraction(factor) ** e
        out[expo] = coef
    return Poly(poly.nvars, out)


def integrate_parametric(vertices, rule, integrand):
    """sum_q w_q F(p_q): the parametric integral of F over a simplex.

    ``rule`` is a Grundmann-Moller rule on the simplex of that degree; the
    result is exact when F is a polynomial of total degree at most the
    rule's and the inputs are rational.
    """
    from ruminslice.quadrature import parameter_nodes

    total = 0
    for coords, weight in parameter_nodes(vertices, rule):
        total = total + weight * integrand(coords)
    return total

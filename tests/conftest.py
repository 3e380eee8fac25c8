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


# -- the Fraction level path, the oracle of the integer level kernel -----------


class FractionValues:
    """coeffs . v at the vertices of a chain, on Fractions, interned afresh.

    ``points`` and ``cells`` are :func:`ruminslice.currents._intern` of
    the chain, ``dot`` holds coeffs . v per id, ``dots`` each cell's
    values in vertex order and ``ranges`` their (min, max).
    """

    def __init__(self, T, f):
        from ruminslice.currents import _intern

        self.points, self.cells = _intern(T.simplices)
        self.dot = [sum(a * b for a, b in zip(f.coeffs, v)) for v in self.points]
        self.dots = [tuple(self.dot[i] for i in cell.vertices) for cell in self.cells]
        self.ranges = [(min(d), max(d)) for d in self.dots]


class FractionCutPoints:
    """The slice's point table on Fraction coordinates.

    A cut point is ``clipping._cut_point`` of its edge, memoised under the
    edge's sorted end ids and deduplicated by its coordinates.
    """

    def __init__(self, vertices):
        self.points = list(vertices)
        self.first = len(self.points)
        self.edges = {}
        self.by_point = {}

    def __call__(self, a, b, va, vb):
        from ruminslice.clipping import _cut_point

        key = (a, b) if a < b else (b, a)
        label = self.edges.get(key)
        if label is None:
            point = _cut_point(self.points[a], self.points[b], va, vb)
            label = self.edges[key] = self.by_point.setdefault(point, len(self.points))
            if label == len(self.points):
                self.points.append(point)
        return label


def fraction_level_share(t, knots):
    """F(t), the share of a simplex's parameter volume where f < t, for a
    Fraction t and the sorted Fraction knots f_0..f_k, f at its vertices:
    the cumulative of the simplex spline by de Boor's triangle
    F(t; f_i..f_j) = [(t - f_i) F(t; f_i..f_(j-1)) + (f_j - t)
    F(t; f_(i+1)..f_j)] / (f_j - f_i), 0 for t <= f_i and 1 for t >= f_j,
    run on integer pairs with t and the knots scaled to ints by their lcm
    at each call.  The oracle of :meth:`ruminslice.slicing._Spline.share`."""
    from fractions import Fraction
    from math import lcm

    if not knots[0] < t < knots[-1]:
        return int(t > knots[0])
    scale = lcm(t.denominator, *(knot.denominator for knot in knots))
    q = t.numerator * (scale // t.denominator)
    points = [knot.numerator * (scale // knot.denominator) for knot in knots]
    row = [(int(q > p), 1) for p in points]
    for span in range(1, len(points)):
        row = [(0, 1) if q <= low else (1, 1) if q >= high
               else ((q - low) * na * db + (high - q) * nb * da, (high - low) * da * db)
               for low, high, (na, da), (nb, db) in zip(points, points[span:], row, row[1:])]
    return Fraction(*row[0])


def fraction_level_density(t, knots):
    """F'(t) = k (F(t; f_0..f_(k-1)) - F(t; f_1..f_k)) / (f_k - f_0) for
    sorted Fraction knots with f_0 < f_k, F as :func:`fraction_level_share`
    gives it (so from the left on a knot).  The oracle of
    :meth:`ruminslice.slicing._Spline.density`."""
    k = len(knots) - 1
    return (k * (fraction_level_share(t, knots[:-1]) - fraction_level_share(t, knots[1:]))
            / (knots[-1] - knots[0]))


def fraction_slice(T, f, t, side, certify=True, clip=None, level=None):
    """``slicing._slice`` with every level decision on Fractions.

    f is evaluated at the interned vertices as Fractions, the generic-level
    refusal and the crossing test compare Fractions, each cut point is
    ``clipping._cut_point``, and each is checked on the level with
    ``HalfSpace.value``.  ``clip`` and ``level`` are accepted for the
    library's call sites and ignored: the table and the clip are built
    afresh.
    """
    from ruminslice import DegenerateLevelError, InternalInvariantError, ParameterError
    from ruminslice import SimplicialCurrent, mass
    from ruminslice.clipping import _split
    from ruminslice.currents import _Cell, _from_cells, _merge, _ranked
    from ruminslice.slicing import SliceResult, _certificate, _formula, _sections

    if T.degree < 1:
        raise ParameterError("cannot slice a 0-chain")
    values = FractionValues(T, f)
    for v, dot in zip(values.points, values.dot):
        if dot + f.const == t:
            shown = "(" + ", ".join(str(c) for c in v) + ")"
            raise DegenerateLevelError(
                f"level {t} hits the vertex {shown}; slice at a nearby generic level instead")
    plus = side == "+"
    hs = f.halfspace(t, ">" if plus else "<")
    level = hs.const
    cuts = FractionCutPoints(values.points)
    crossing = []
    for cell, dots, (least, most) in zip(values.cells, values.dots, values.ranges):
        if least < level < most:
            shifted = tuple(d - level for d in dots)
            crossing.append((cell, shifted, _split(cell.vertices, hs, shifted, cut=cuts)[0]))
    sections = _merge(_sections(crossing, plus))
    first = cuts.first
    if any(i < first for cell in sections for i in cell.vertices):
        raise InternalInvariantError("a section has a vertex of T, not a cut point")
    if any(hs.value(p) != 0 for p in cuts.points[first:]):
        raise InternalInvariantError("a cut point is off the level")
    points, rank = _ranked(cuts.points[first:])
    ranked = _merge(_Cell(tuple(rank[i - first] for i in cell.vertices), cell.multiplicity)
                    for cell in sections)
    chain = SimplicialCurrent(T.params, T.degree - 1, _from_cells(points, ranked),
                              T.quadrature_degree)
    if certify:
        formal = _formula(crossing, hs, plus, cuts)
        if chain.canonical() != chain:
            raise InternalInvariantError("canonical() is not idempotent on the slice chain")
        if _merge(formal) != sections:
            raise InternalInvariantError("the sections differ from the canonical formula chain")
        _certificate(chain, chain.with_simplices(_from_cells(cuts.points, formal)))
    return SliceResult(chain=chain, mass=mass(chain), residual=0.0, level=t, side=side,
                       middle_dimension=(chain.degree == T.params.n))


def fraction_window_measures(T, f, edges):
    """``slicing._window_measures`` with every level decision on Fractions:
    mu_T({e_0 < f < e_last}), as its own window, and the list of
    mu_T({e_i < f < e_(i+1)}).

    The levels are bisected against each simplex's Fraction range, the
    shares are :func:`fraction_level_share` on the Fraction vertex values,
    and each whole mass is computed afresh.
    """
    return (fraction_windows(T, f, [edges[0], edges[-1]])[0],
            fraction_windows(T, f, edges))


def fraction_windows(T, f, edges):
    """mu_T({e_i < f < e_(i+1)}) per pair of consecutive ``edges``, on Fractions."""
    from bisect import bisect_left, bisect_right
    from fractions import Fraction

    from ruminslice import restrict_to_set
    from ruminslice.currents import _simplex_corners, _simplex_mass, _tangent

    values = FractionValues(T, f)
    levels = [e - f.const for e in edges]
    totals = [Fraction(0)] * (len(levels) - 1)
    for index, (dots, (least, most)) in enumerate(zip(values.dots, values.ranges)):
        first = max(bisect_right(levels, least) - 1, 0)
        last = min(bisect_left(levels, most), len(totals))
        if first >= last:
            continue
        s = T.simplices[index]
        weight = abs(s.multiplicity)
        value = _simplex_mass(T.params, s, T.quadrature_degree)
        scales = (_tangent(T.params.n, _simplex_corners(s)).constant
                  and isinstance(value, Fraction))
        if last - first == 1 and levels[first] <= least and most <= levels[last]:
            totals[first] = totals[first] + weight * value
            continue
        if scales:
            knots = sorted(dots)
            shares = [fraction_level_share(level, knots) for level in levels[first:last + 1]]
        for i in range(first, last):
            if scales and isinstance(totals[i], Fraction):
                share = shares[i + 1 - first] - shares[i - first]
                totals[i] = totals[i] + weight * (value * share)
                continue
            planes = [f.halfspace(edges[i], ">"), f.halfspace(edges[i + 1], "<")]
            for piece in restrict_to_set(T.with_simplices([s]), planes).simplices:
                totals[i] = totals[i] + weight * _simplex_mass(T.params, piece, T.quadrature_degree)
    return totals


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


# -- Fraction-coefficient Rumin arithmetic, the oracle of the integer one -------


class FractionPoly:
    """A polynomial as {exponent tuple: nonzero Fraction}, with Fraction arithmetic.

    The oracle of :class:`ruminslice.polys.Poly`, which keeps integer
    numerators over one denominator: the same operations, term by term
    on Fraction coefficients, in the same order.
    """

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = terms

    @classmethod
    def of(cls, poly):
        return cls(poly.nvars, poly.terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            new = terms.get(expo, 0) + coef
            if new == 0:
                terms.pop(expo, None)
            else:
                terms[expo] = new
        return FractionPoly(self.nvars, terms)

    def __neg__(self):
        return FractionPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            if other == 0:
                return FractionPoly(self.nvars, {})
            return FractionPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(expo, 0) + c1 * c2
                if new == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = new
        return FractionPoly(self.nvars, out)

    def partial(self, index):
        out = {}
        for expo, coef in self.terms.items():
            if expo[index]:
                lowered = list(expo)
                lowered[index] -= 1
                out[tuple(lowered)] = coef * expo[index]
        return FractionPoly(self.nvars, out)

    def evaluate(self, point):
        from fractions import Fraction

        total = Fraction(0)
        for expo, coef in self.terms.items():
            value = coef
            for base, e in zip(point, expo):
                if e:
                    value = value * base ** e
            total = total + value
        return total


def fraction_random_poly(rng, nvars, max_degree=3, terms=4, coeff_bound=9):
    """``forms.random_poly``'s draws, summed into Fraction terms."""
    from fractions import Fraction

    coeffs = {}
    for _ in range(terms):
        expo = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(nvars)] += 1
        coef = 0
        while coef == 0:
            coef = rng.randint(-coeff_bound, coeff_bound)
        key = tuple(expo)
        total = coeffs.get(key, 0) + coef
        if total:
            coeffs[key] = Fraction(total)
        else:
            del coeffs[key]
    return FractionPoly(nvars, coeffs)


def assert_normal(poly):
    """Int numerators over an int den >= 1 sharing no factor with it; den 1 for zero."""
    import math

    assert type(poly.den) is int and poly.den >= 1
    assert all(type(c) is int and c != 0 for c in poly.nums.values())
    assert math.gcd(poly.den, *poly.nums.values()) == 1
    if not poly.nums:
        assert poly.den == 1


def fraction_form(form):
    """{blade: {exponent tuple: Fraction}} of a PolyForm, the oracles' currency."""
    return {blade: poly.terms for blade, poly in form.coeffs.items()}


def _drop_empty(coeffs):
    return {blade: terms for blade, terms in coeffs.items() if terms}


def fraction_exterior_d(n, coeffs):
    """exterior_d term by term on Fraction coefficients, halves included.

    Each term c x^e e_B reaches the signed target blades of ``_d_table``:
    X_j, Y_j and T act on e with coefficients e_j c and (1/2) e_t c.
    """
    from ruminslice.forms import _d_table

    t = 2 * n
    out = {}

    def add(acc, expo, value):
        acc[expo] = acc.get(expo, 0) + value

    for blade, terms in coeffs.items():
        wedges, dtheta = _d_table(n, blade)
        for expo, coef in terms.items():
            et = expo[t]
            lowered = list(expo)
            lowered[t] -= 1
            for j, sign, target in wedges:
                acc = out.setdefault(target, {})
                if j == t:
                    if et:
                        add(acc, tuple(lowered), sign * coef * et)
                    continue
                if expo[j]:
                    shifted = list(expo)
                    shifted[j] -= 1
                    add(acc, tuple(shifted), sign * coef * expo[j])
                if et:
                    # X_j carries -(1/2) y_j T, Y_j carries +(1/2) x_j T
                    shifted = list(lowered)
                    shifted[j + n if j < n else j - n] += 1
                    add(acc, tuple(shifted), sign * (1 if j >= n else -1) * coef * et / 2)
            for sign, target in dtheta:
                add(out.setdefault(target, {}), expo, sign * coef)
    return _drop_empty({b: {e: c for e, c in acc.items() if c} for b, acc in out.items()})


def fraction_wedge(nvars, a, b):
    """Wedge of two {blade: {expo: Fraction}} forms, by FractionPoly products."""
    from ruminslice.algebra import wedge_blades

    out = {}
    for left, pl in a.items():
        for right, pr in b.items():
            merged = wedge_blades(left, right)
            if merged is None:
                continue
            sign, blade = merged
            term = FractionPoly(nvars, pl) * FractionPoly(nvars, pr) * sign
            out[blade] = (FractionPoly(nvars, out.get(blade, {})) + term).terms
    return _drop_empty(out)


def _fraction_per_monomial(coeffs, blades, out_blades, solve):
    """Apply ``solve`` to each monomial's Fraction vector over ``blades``."""
    from fractions import Fraction

    index = {b: i for i, b in enumerate(blades)}
    slices = {}
    for blade, terms in coeffs.items():
        for expo, coef in terms.items():
            slices.setdefault(expo, [Fraction(0)] * len(blades))[index[blade]] = coef
    out = {}
    for expo, vec in slices.items():
        image = solve(vec)
        if image is None:
            return None
        for blade, value in zip(out_blades, image):
            if value:
                out.setdefault(blade, {})[expo] = value
    return out


def fraction_canonical_rep(n, k, coeffs):
    """Strip theta, then subtract the dense Fraction projection onto the image of L."""
    from ruminslice import linalg
    from ruminslice.rumin import _generator_columns, horizontal_blades

    horizontal = {b: t for b, t in coeffs.items() if 2 * n not in b}
    columns = _generator_columns(n, "dtheta", k - 2, True)
    if not columns:
        return horizontal
    projection = linalg.column_space_projection(columns)
    blades = horizontal_blades(n, k)
    return _fraction_per_monomial(
        horizontal, blades, blades,
        lambda vec: [a - b for a, b in zip(vec, linalg.mat_vec(projection, vec))])


def fraction_L_inv(n, coeffs):
    """u with dtheta ^ u = w, by the dense Fraction inverse of L."""
    from ruminslice import linalg
    from ruminslice.rumin import _generator_columns, horizontal_blades

    inverse = linalg.invert(linalg.transpose(_generator_columns(n, "dtheta", n - 1, True)))
    return _fraction_per_monomial(coeffs, horizontal_blades(n, n + 1),
                                  horizontal_blades(n, n - 1),
                                  lambda vec: linalg.mat_vec(inverse, vec))


def fraction_ideal_witnesses(n, k, coeffs):
    """(alpha, beta) of omega = alpha ^ theta + beta ^ dtheta by linalg.solve, or None."""
    from ruminslice import linalg
    from ruminslice.rumin import _ideal_columns, full_blades

    rows = linalg.transpose(_ideal_columns(n, k))
    split = len(full_blades(n, k - 1))
    targets = full_blades(n, k - 1) + full_blades(n, k - 2)
    solution = _fraction_per_monomial(coeffs, full_blades(n, k), range(len(targets)),
                                      lambda vec: linalg.solve(rows, vec))
    if solution is None:
        return None
    alpha = {targets[i]: terms for i, terms in solution.items() if i < split}
    beta = {targets[i]: terms for i, terms in solution.items() if i >= split}
    return alpha, beta


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

"""Desk-scale currents: weighted oriented affine simplicial chains.

A degree-k current is a finite list of k-simplices in R^(2n+1) with
rational multiplicities.  ``Simplex`` converts float coordinates and
multiplicities exactly (see :func:`ruminslice.clipping.exact`), so every
chain is exact.  Writing e_1..e_k for the edge vectors of a simplex, its
coordinate k-vector is E = e_1 ^ ... ^ e_k, held as {blade: k x k minor
of the edges} (see :func:`ruminslice.algebra.wedge_vectors`); a simplex
is degenerate when E is empty.  The tangent k-vector V(p) at a point p
is the wedge of the frame images frame_change(p, e_i); the pairing with
a polynomial form and the induced measure are

    T(omega)  = sum_S mult(S) * int_S <omega(p) | V(p)> ds,
    mu_T(A)   = sum_S |mult(S)| * int_(S cap A) |V(p)| ds,

where ds is the parameter measure of the affine chart (so no square
roots enter the pairing, and polynomial integrands are integrated
exactly by the Grundmann-Moller rules).  |V(p)| is the frame l2 norm;
exact square roots are kept rational when possible.

V(p) is E pushed through the frame change at p.  The frame change fixes
T and adds shift_b(p) T to each coordinate vector e_b, where shift_b(p)
is the T coefficient of frame_change(p, e_b), linear in p.  So a blade
of E that holds T stays fixed, and any other blade B adds, for each
index b in B, +-shift_b(p) E_B to B with b swapped for T: V(p) = E + L(p)
with L linear in p.

The tangent kernel runs on integers (see :func:`_tangent`).  It takes a
simplex's vertices as (numerators, den) pairs, each vertex over the lcm
of its own coordinate denominators; a chain reads them off its table,
and only a bare simplex (a clip piece, or the degeneracy check) converts
its Fraction coordinates.  The vertices are scaled by d, the lcm of
their dens, and the shift coefficients by their common denominator A,
so the edge minors (d^k E), the numerators of E and L over the one
denominator A d^(k+1), and V at the vertices and at the sum of the
vertices (k + 1 times the centroid) are ints.  A Fraction is made only
where a value leaves the kernel: per blade and denominator for the
constant blade pairings (int_S V_B ds = V_B(centroid) / k!), per blade
at a quadrature node for the moment table, per node for a varying
tangent's mass, and once for a constant tangent's rational mass
root / (den k!).  Masses are summed on ints per denominator too (see
:class:`_Sum`): a sum makes one Fraction per denominator it met, unless
a float enters, and from the first float on it adds in the order of the
terms, so float totals are the floats a sum from Fraction(0) gives.  V is affine and the
barycentric weights lambda of a node sum to 1, so V there is
sum lambda_i V(v_i) and

    |V|^2 = lambda^T G lambda,   G_ij = <V(v_i), V(v_j)>,

with G the integer Gram matrix of the vertex numerators and the rule's
lambda as integers over one denominator (see
:func:`ruminslice.quadrature._integer_rule`): the mass builds no node
coordinates.  When L vanishes on every edge V is constant, and its norm
is taken once.  A batch of forms is paired through a per-simplex moment
table (see :func:`pair_forms_batch`), one pass over the nodes for the
whole batch.  T restricted by a weight g (:func:`restrict_by_fn`) pairs
through the same table, with g(p_q) multiplied into each node's weight.

:func:`measure_of` is ``mass(restrict_to_set(T, planes))``, or for a
predicate the mass quadrature over the nodes inside it.  A cut point
lies strictly inside its edge, so no clip piece is degenerate.

Chains merge on integer vertex ids (see :func:`_merge`): ``canonical()``
and :func:`boundary` intern their vertices, hashing each once and
sorting the distinct ones once, so id order is coordinate order, and
fold orientation signs on id tuples; slices merge their sections the
same way.  A boundary, and each boundary in a slice's formula, folds
the signs cell by cell (see :func:`_merged_faces`).  No coordinate
tuple is sorted per simplex.

A chain keeps what depends on its simplices alone in a table built on
first use (:class:`_Table`): the interned vertices, which
:func:`boundary` and the slices read, the vertices on ints, each
simplex's vertices on ints (its corners, which the tangents read), one
tangent per simplex, which :func:`mass`, the blade pairings and
:func:`pair_current` share, the whole masses per quadrature degree,
and, once a blade pairing asks, one framing per distinct simplex keyed
by its sorted corners.  A routine that builds a chain from integer
points hands the table in: a slice chain is born with its interned
vertices and cells and their ints, all read off the slice's cut table,
and the certificate's formula chain with its corners and the slice
chain's framings.  ``canonical()`` interns afresh, so the slice
certificate's idempotence check does not read the table it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import linalg
from .algebra import MultiVector, sort_indices, wedge_vectors
from .clipping import HalfSpace, _split, exact
from .errors import (
    AdmissibilityError,
    DimensionMismatchError,
    GradeMismatchError,
    ParameterError,
)
from .forms import PolyForm
from .heis import HeisParams, Point, frame_change
from .quadrature import _integer_rule, parameter_nodes, rule_for_degree
from .rumin import RuminClass, _ideal_columns, full_blades

DEFAULT_QUADRATURE_DEGREE = 5


def _integer_point(point: tuple) -> tuple:
    """(numerators, den): ``point`` as ints over the lcm of its coordinate
    denominators, the reduced homogeneous form of the point."""
    den = math.lcm(*(c.denominator for c in point))
    return tuple(c.numerator * (den // c.denominator) for c in point), den


def _integer_edges(corners) -> tuple:
    """(d, points, edges): a simplex scaled to integers.

    ``corners`` are its vertices as (numerators, den) pairs, in vertex
    order (see :func:`_integer_point`).  d is the lcm of their dens, which
    is the lcm of the coordinate denominators, ``points`` the vertices
    times d and ``edges`` the edges of ``points``, all as ints.
    """
    d = math.lcm(*(den for _, den in corners))
    points = tuple(nums if den == d else tuple(x * (d // den) for x in nums)
                   for nums, den in corners)
    base = points[0]
    return d, points, tuple(tuple(a - b for a, b in zip(p, base)) for p in points[1:])


def _simplex_corners(simplex) -> tuple:
    """The vertices of a bare simplex as (numerators, den) pairs: the
    corners of :func:`_integer_edges` for a simplex outside any table."""
    return tuple(_integer_point(v) for v in simplex.vertices)


def _integer_minors(dim: int, edges) -> dict:
    """{blade: k x k minor} of integer edges, without zeros: d^k times E."""
    # the empty wedge is 1; wedge_vectors gives it as Fraction(1)
    return wedge_vectors(dim, edges) if edges else {(): 1}


def _edge_kvector(simplex) -> dict:
    """E = e_1 ^ ... ^ e_k of the simplex's edges, as {blade: minor}."""
    d, points, edges = _integer_edges(_simplex_corners(simplex))
    scale = d ** len(edges)
    return {b: Fraction(m, scale) for b, m in _integer_minors(len(points[0]), edges).items()}


@dataclass(frozen=True)
class Simplex:
    """Oriented affine simplex: ordered vertices and a multiplicity."""

    vertices: tuple
    multiplicity: object = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(
            tuple(exact(c, "vertex coordinate") for c in v) for v in self.vertices))
        object.__setattr__(self, "multiplicity", exact(self.multiplicity, "multiplicity"))
        if not self.vertices:
            raise ParameterError("a simplex needs at least one vertex")
        lengths = {len(v) for v in self.vertices}
        if len(lengths) != 1:
            raise ParameterError("simplex vertices of unequal dimension")
        if self.multiplicity != 0 and self.degenerate():
            raise ParameterError("affinely dependent vertices with nonzero multiplicity")

    @classmethod
    def _trusted(cls, vertices: tuple, multiplicity) -> "Simplex":
        """A simplex built without the checks, for internal constructions.

        ``vertices`` must be a tuple of equal-length tuples of exact
        coordinates whose degeneracy the caller has decided already (a
        face, clip piece, reordering or rescaling of a checked simplex),
        and ``multiplicity`` a Fraction.  Floats never get here: the public
        constructor converts them exactly.
        """
        simplex = object.__new__(cls)
        object.__setattr__(simplex, "vertices", vertices)
        object.__setattr__(simplex, "multiplicity", multiplicity)
        return simplex

    @property
    def degree(self) -> int:
        return len(self.vertices) - 1

    def degenerate(self) -> bool:
        """True when the vertices do not span an affine ``degree``-plane."""
        return not _edge_kvector(self)

    def edges(self) -> tuple:
        base = self.vertices[0]
        return tuple(
            tuple(a - b for a, b in zip(v, base)) for v in self.vertices[1:]
        )


class SimplicialCurrent:
    """A finite chain of equal-degree simplices over H^n."""

    # ``_table`` (see :class:`_Table`) is left unset here and built on first use
    __slots__ = ("params", "degree", "simplices", "quadrature_degree", "_table")

    def __init__(self, params: HeisParams, degree: int, simplices,
                 quadrature_degree: int = DEFAULT_QUADRATURE_DEGREE):
        self.params = params
        self.degree = degree
        self.quadrature_degree = quadrature_degree
        cleaned = []
        for s in simplices:
            if not isinstance(s, Simplex):
                s = Simplex(*s)
            if s.degree != degree:
                raise ParameterError(f"simplex of degree {s.degree} in degree-{degree} chain")
            if len(s.vertices[0]) != params.dim:
                raise DimensionMismatchError("simplex vertices do not match the group dimension")
            if s.multiplicity == 0:
                continue
            cleaned.append(s)
        self.simplices = tuple(cleaned)

    @classmethod
    def _trusted(cls, params, degree, simplices, quadrature_degree) -> "SimplicialCurrent":
        """A chain of checked, nonzero Simplex instances, built without the checks."""
        chain = object.__new__(cls)
        chain.params, chain.degree, chain.quadrature_degree = params, degree, quadrature_degree
        chain.simplices = tuple(simplices)
        return chain

    def is_empty(self) -> bool:
        return not self.simplices

    def with_simplices(self, simplices) -> "SimplicialCurrent":
        return SimplicialCurrent(self.params, self.degree, simplices,
                                 self.quadrature_degree)

    def scaled(self, factor) -> "SimplicialCurrent":
        factor = exact(factor, "scale factor")
        return self.with_simplices(
            Simplex._trusted(s.vertices, s.multiplicity * factor) for s in self.simplices
        )

    def __add__(self, other: "SimplicialCurrent") -> "SimplicialCurrent":
        if self.params != other.params or self.degree != other.degree:
            raise ParameterError("cannot add chains of different type")
        return self.with_simplices(self.simplices + other.simplices)

    def __neg__(self) -> "SimplicialCurrent":
        return self.scaled(-1)

    def __sub__(self, other: "SimplicialCurrent") -> "SimplicialCurrent":
        return self + (-other)

    def canonical(self) -> "SimplicialCurrent":
        """Merge simplices with equal vertex sets, folding orientation signs.

        The result lists each support simplex once, vertices sorted
        lexicographically, with the net multiplicity; zero multiplicities
        disappear.  Canonical chains compare meaningfully with ``==`` on
        their simplex tuples.  No simplex is degenerate: the public
        constructor refuses them (after converting floats exactly), and
        faces, clip pieces and reorderings of a nondegenerate simplex stay
        nondegenerate.  The vertices are interned (see :func:`_intern`) and
        the simplices merged on their ids (see :func:`_merge`).
        """
        points, cells = _intern(self.simplices)
        return self._trusted(self.params, self.degree, _from_cells(points, _merge(cells)),
                             self.quadrature_degree)

    def vertices(self) -> set:
        out = set()
        for s in self.simplices:
            out.update(s.vertices)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialCurrent)
            and self.params == other.params
            and self.degree == other.degree
            and self.simplices == other.simplices
        )

    def __repr__(self):
        return f"SimplicialCurrent(n={self.params.n}, degree={self.degree}, size={len(self.simplices)})"


# -- merging on vertex ids ----------------------------------------------------


class _Cell(NamedTuple):
    """A simplex as a tuple of integer vertex ids, with its multiplicity."""

    vertices: tuple
    multiplicity: Fraction


def _ranked(points: list) -> tuple:
    """(sorted points, rank): ``points`` sorted once, and the index there of
    ``points[i]`` as ``rank[i]``."""
    order = sorted(range(len(points)), key=points.__getitem__)
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return [points[i] for i in order], rank


def _intern(simplices) -> tuple:
    """(points, cells): the distinct vertices of ``simplices`` in
    lexicographic order, and each simplex as a cell on indices into
    ``points``.

    Vertices are keyed by their coordinates' (numerator, denominator) pairs and
    the distinct ones sorted once, so id order is coordinate order.
    """
    first_seen = {}
    labels = [[first_seen.setdefault(tuple([c.as_integer_ratio() for c in v]),
                                     (len(first_seen), v))[0] for v in s.vertices]
              for s in simplices]
    points, rank = _ranked([v for _, v in first_seen.values()])
    return points, [_Cell(tuple(rank[i] for i in ids), s.multiplicity)
                    for ids, s in zip(labels, simplices)]


def _merge(cells) -> list:
    """Merge cells with equal vertex id sets, folding orientation signs.

    Each cell's ids are sorted, its multiplicity negated for an odd
    permutation, and the multiplicities of equal id tuples summed.  Returns
    the cells with nonzero net multiplicity, sorted by their id tuples: when
    id order is coordinate order, this is :meth:`SimplicialCurrent.canonical`
    on ids.
    """
    merged = {}
    for cell in cells:
        sign, key = sort_indices(cell.vertices)
        mult = cell.multiplicity if sign > 0 else -cell.multiplicity
        merged[key] = merged[key] + mult if key in merged else mult
    return [_Cell(ids, m) for ids, m in sorted(merged.items()) if m != 0]


def _merged_faces(cells) -> list:
    """The faces of ``cells`` with the boundary's alternating signs, merged
    as :func:`_merge` merges cells, with each cell's ids sorted once.

    A cell with sorted ids has sorted faces, and face i carries (-1)^i
    times the cell's multiplicity, negated once more for an odd sort of
    the cell's ids.  The multiplicities are summed on ints per face, over
    the lcm of the denominators met there, and each face left nonzero
    gets one Fraction.
    """
    merged = {}
    for cell in cells:
        sign, ids = sort_indices(cell.vertices)
        mult = cell.multiplicity
        num, den = mult.numerator if sign > 0 else -mult.numerator, mult.denominator
        for i in range(len(ids)):
            face = ids[:i] + ids[i + 1:]
            c = num if i % 2 == 0 else -num
            entry = merged.get(face)
            if entry is None:
                merged[face] = (c, den)
            elif entry[1] == den:
                merged[face] = (entry[0] + c, den)
            else:
                common = math.lcm(entry[1], den)
                merged[face] = (entry[0] * (common // entry[1]) + c * (common // den), common)
    return [_Cell(ids, Fraction(c, den)) for ids, (c, den) in sorted(merged.items()) if c]


def _from_cells(points, cells) -> list:
    """Simplices from cells whose ids index ``points``."""
    return [Simplex._trusted(tuple(points[i] for i in cell.vertices), cell.multiplicity)
            for cell in cells]


# -- the chain table ----------------------------------------------------------


class _Table:
    """What a chain's routines derive from its simplices alone.

    A chain builds its table on first use and keeps it in its ``_table``
    slot; the table is keyed to the ``simplices`` tuple it was built from,
    and :func:`_table` builds a fresh one when that tuple is rebound.
    Each part is built on first use too:

    - ``ids``: the interned vertices and cells, as :func:`_intern` gives
      them (see :func:`_interned`);
    - ``ints``: each vertex as (integer numerators, denominator) over the
      lcm of its own coordinate denominators (see :func:`_integer_points`);
    - ``corners``: each simplex's vertices as such pairs, in vertex order
      (see :func:`_corners`);
    - ``functions``: per tuple of affine coefficients, what
      :mod:`ruminslice.slicing` reads off f at the vertices;
    - ``tangents``: each simplex's :class:`_Tangent` (see :func:`_tangent_of`);
    - ``masses``: per quadrature degree, each simplex's whole mass (see
      :func:`_whole`);
    - ``framed``: per distinct simplex, keyed by its sorted corners, its
      framing for the blade pairings (see :func:`_blade_pairings`).  It
      stays None until a blade pairing asks for it.

    A routine that builds a chain and already holds some of these parts
    hands them in: a slice gives its chain ``ids`` and ``ints`` from its
    cut table, and a certified slice gives its formula chain the
    ``corners`` and the slice chain's ``framed``, so the formula frames
    only the simplices the slice chain lacks.
    """

    __slots__ = ("simplices", "ids", "ints", "corners", "functions", "tangents", "masses",
                 "framed")

    def __init__(self, simplices: tuple, ids=None, ints=None, corners=None, framed=None):
        self.simplices = simplices
        self.ids = ids
        self.ints = ints
        self.corners = corners
        self.functions = {}
        self.tangents = [None] * len(simplices)
        self.masses = {}
        self.framed = framed


def _table(T: "SimplicialCurrent") -> _Table:
    """T's table, built afresh when T has none or its simplices were rebound."""
    table = getattr(T, "_table", None)
    if table is None or table.simplices is not T.simplices:
        table = T._table = _Table(T.simplices)
    return table


def _interned(T: "SimplicialCurrent") -> tuple:
    """(points, cells) of T, interned once per table (see :func:`_intern`)."""
    table = _table(T)
    if table.ids is None:
        table.ids = _intern(T.simplices)
    return table.ids


def _integer_points(T: "SimplicialCurrent") -> list:
    """:func:`_integer_point` of each interned vertex of T, in id order."""
    table = _table(T)
    if table.ints is None:
        table.ints = [_integer_point(p) for p in _interned(T)[0]]
    return table.ints


def _corners(T: "SimplicialCurrent") -> list:
    """Each simplex of T as its vertices' (numerators, den) pairs, in
    vertex order: the :func:`_integer_points` of its interned cell."""
    table = _table(T)
    if table.corners is None:
        points = _integer_points(T)
        table.corners = [tuple(points[i] for i in cell.vertices) for cell in _interned(T)[1]]
    return table.corners


# -- tangents ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _frame_moves(n: int, blade: tuple) -> tuple:
    """(b, sign, target) for each index b of a blade that lacks T.

    Framed at p, e_b becomes e_b + shift_b(p) T, so the blade e_B gains
    shift_b(p) times e_B with e_b replaced by T; ``target`` is that
    blade sorted (T is the last index) and ``sign`` the parity of moving
    T from b's place to the end.  A blade holding T has no moves: the T
    parts of its other vectors wedge to zero against T.
    """
    top = 2 * n
    if top in blade:
        return ()
    last = len(blade) - 1
    return tuple((b, -1 if (last - i) % 2 else 1, blade[:i] + blade[i + 1:] + (top,))
                 for i, b in enumerate(blade))


@lru_cache(maxsize=None)
def _shift_rows(n: int) -> tuple:
    """(A, rows): shift_b(p) = sum c p_axis / A over ``rows[b]`` = ((axis, c), ...).

    shift_b(p) is the T coefficient of frame_change(p, e_b), linear in p,
    so its coefficients are read once off frame_change at the unit points
    and kept as ints times their common denominator A.
    """
    dim = 2 * n + 1
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    points = [Point.from_coords(unit) for unit in units]
    rows = [[(axis, c) for axis, point in enumerate(points)
             if (c := frame_change(point, units[b])[-1]) != 0]
            for b in range(2 * n)]
    common = math.lcm(*(c.denominator for row in rows for _, c in row))
    return common, tuple(tuple((axis, c.numerator * (common // c.denominator)) for axis, c in row)
                         for row in rows)


class _Tangent(NamedTuple):
    """A simplex's tangent V(p) = E + L(p) on integers over one denominator.

    With d the lcm of the vertex denominators and A that of the
    shift coefficients, ``den`` = A d^(k+1): ``kvector`` holds den * E and
    ``linear`` maps each target blade of :func:`_frame_moves` to
    {axis: c}, so den * L(p)_B = sum c u_axis at the integer point u = d p.
    ``points`` are the vertices times d.  ``constant`` is true when L
    vanishes on every edge: V then takes one value on the whole simplex.
    """

    kvector: dict
    linear: dict
    den: int
    points: tuple
    constant: bool


def _tangent(n: int, corners) -> _Tangent:
    """The :class:`_Tangent` of the simplex with vertices ``corners``, as
    (numerators, den) pairs in vertex order, from its integer edge minors."""
    d, points, edges = _integer_edges(corners)
    minors = _integer_minors(len(points[0]), edges)
    common, rows = _shift_rows(n)
    scale = common * d
    linear = {}
    for blade, m in minors.items():
        for b, sign, target in _frame_moves(n, blade):
            row = linear.setdefault(target, {})
            for axis, a in rows[b]:
                row[axis] = row.get(axis, 0) + sign * a * m
    constant = not any(sum(c * edge[axis] for axis, c in row.items())
                       for edge in edges for row in linear.values())
    return _Tangent({b: scale * m for b, m in minors.items()}, linear,
                    scale * d ** len(edges), points, constant)


def _tangent_of(T: "SimplicialCurrent", index: int) -> _Tangent:
    """The :func:`_tangent` of simplex ``index`` of T, built once per table
    from the simplex's :func:`_corners`."""
    tangents = _table(T).tangents
    tangent = tangents[index]
    if tangent is None:
        tangent = tangents[index] = _tangent(T.params.n, _corners(T)[index])
    return tangent


def _numerators(tangent: _Tangent, point, weight: int = 1) -> dict:
    """weight * den * V(p) at p = point / (weight d), for an integer
    ``point``: {blade: int}, zeros kept, blades in one order for every point.

    A vertex is its point with weight 1, and the centroid the sum of the
    points with weight k + 1.
    """
    out = {b: weight * c for b, c in tangent.kvector.items()}
    for target, row in tangent.linear.items():
        out[target] = out.get(target, 0) + sum(c * point[axis] for axis, c in row.items())
    return out


def _vertex_numerators(tangent: _Tangent) -> tuple:
    """(blades, rows): den * V at each vertex, as rows of ints in the order of ``blades``."""
    values = [_numerators(tangent, point) for point in tangent.points]
    return tuple(values[0]), [list(value.values()) for value in values]


def _over(blades, numerators, den: int) -> dict:
    """{blade: numerator / den} without zeros."""
    return {b: Fraction(c, den) for b, c in zip(blades, numerators) if c}


def sqrt_exact_or_float(value):
    """Square root of a nonnegative rational, exact when possible."""
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
    return math.sqrt(float(value))


def _root(square: int, den: int):
    """sqrt(square) / den for ints, as :func:`sqrt_exact_or_float` gives it.

    The denominator is a square, so the root is rational exactly when
    ``square`` is a square; else int true division rounds square / den^2
    correctly, as float() of the Fraction does.
    """
    root = math.isqrt(square)
    if root * root == square:
        return Fraction(root, den)
    return _float_root(square, den)


def _float_root(square: int, den: int) -> float:
    """sqrt(square / den^2) as a float, for a ``square`` that is not a square."""
    return math.sqrt(square / (den * den))


def _node_tangents(simplex: Simplex, tangent: _Tangent, degree: int) -> list:
    """(coords, weight, V(coords)) at each node of the rule exact to
    ``degree``, for the simplex's :func:`_tangent`.

    V is affine, so at the node sum lambda_i v_i it is sum lambda_i V(v_i):
    the integer rule (see :func:`ruminslice.quadrature._integer_rule`)
    weights the vertex numerators, and each blade is one Fraction.
    """
    k = simplex.degree
    nodes = parameter_nodes(simplex.vertices, rule_for_degree(k, degree))
    blades, corners = _vertex_numerators(tangent)
    if tangent.constant:
        value = _over(blades, corners[0], tangent.den)
        return [(coords, weight, value) for coords, weight in nodes]
    common, rule = _integer_rule(k, degree)
    den = common * tangent.den
    columns = list(zip(*corners))
    return [(coords, weight, _over(blades, [sum(map(mul, ell, column)) for column in columns],
                                   den))
            for (coords, weight), (ell, _) in zip(nodes, rule)]


def _parameter_volume(degree: int) -> Fraction:
    return Fraction(1, math.factorial(degree))


# -- pairing, mass, measure ---------------------------------------------------


def pair_form(T: SimplicialCurrent, omega: PolyForm):
    """Pairing against a raw polynomial form (no quotient bookkeeping)."""
    return pair_forms_batch(T, [omega])[0]


def pair_forms_batch(T: SimplicialCurrent, forms, degree_hint=None):
    """Pair several forms against one chain, in one pass per simplex.

    Every form is a sum of terms c * p^e dw_B (a monomial p^e on a
    coframe blade B).  Per simplex, the moment table

        M[(B, e)] = sum_q w_q * p_q^e * V_B(p_q)

    over the quadrature nodes p_q is accumulated once for the union of
    (blade, exponent) pairs the batch uses, and each form's integral is
    then sum c * M[(B, e)].  The rule and the node tangents are those of
    the per-node evaluation <omega(p_q) | V(p_q)>, and exact rational
    sums do not depend on their order, so the results are the same
    Fractions.

    With the default hint the rule is exact for every polynomial
    integrand the forms produce; pass a smaller hint when only
    rule-for-rule comparisons are needed.
    """
    forms = list(forms)
    for omega in forms:
        if omega.grade != T.degree:
            raise GradeMismatchError(T.degree, omega.grade, "T(omega)")
    if degree_hint is None:
        degree_hint = T.quadrature_degree + max(
            (f.max_coeff_degree() for f in forms), default=0)
    return _pair_batch(T, forms, degree_hint, None)


def _pair_batch(T: SimplicialCurrent, forms: list, degree: int, weight) -> list:
    """The moment-table pairing of :func:`pair_forms_batch`, by the rule exact to ``degree``.

    With a ``weight``, each node's quadrature weight is multiplied by
    ``weight(Point)`` there, and nodes where the product is 0 are skipped.
    A form over another group than T is refused.
    """
    for omega in forms:
        if omega.params != T.params:
            raise DimensionMismatchError("form and chain over different groups")
    terms = [
        [(blade, expo, coef) for blade, poly in omega.coeffs.items()
         for expo, coef in poly.terms.items()]
        for omega in forms
    ]
    keys = {(blade, expo) for form_terms in terms for blade, expo, _ in form_terms}
    exponents_of = {}
    for blade, expo in keys:
        exponents_of.setdefault(blade, []).append(expo)
    exponents = {expo for _, expo in keys}
    top = [max((e[axis] for e in exponents), default=0) for axis in range(T.params.dim)]
    totals = [Fraction(0)] * len(forms)
    for index, s in enumerate(T.simplices):
        moments = dict.fromkeys(keys, 0)
        for coords, node_weight, tangent in _node_tangents(s, _tangent_of(T, index), degree):
            if weight is not None:
                node_weight = node_weight * weight(Point.from_coords(coords))
                if node_weight == 0:
                    continue
            powers = []
            for c, highest in zip(coords, top):
                row = [1]
                for _ in range(highest):
                    row.append(row[-1] * c)
                powers.append(row)
            weighted = {}
            for expo in exponents:
                value = node_weight
                for row, e in zip(powers, expo):
                    if e:
                        value = value * row[e]
                weighted[expo] = value
            for blade, v in tangent.items():
                if not v or blade not in exponents_of:
                    continue
                for expo in exponents_of[blade]:
                    moments[blade, expo] += weighted[expo] * v
        for index, form_terms in enumerate(terms):
            value = sum(coef * moments[blade, expo] for blade, expo, coef in form_terms)
            totals[index] = totals[index] + s.multiplicity * value
    return totals


def is_admissible(V: MultiVector, n: int) -> bool:
    """True iff V annihilates the contact ideal generators at its grade.

    The generators theta ^ blade and dtheta ^ blade are the cached columns
    of :func:`ruminslice.rumin._ideal_columns` over the k-blades, dotted
    with V's blade vector.  Defined for grades k <= n; such tangents make
    the pairing with quotient classes independent of the representative.
    A multivector of another dimension than 2n + 1 is refused.
    """
    if V.dim != 2 * n + 1:
        raise DimensionMismatchError(f"a multivector in dimension {V.dim} over H^{n}")
    k = V.grade
    if k > n:
        raise ParameterError(f"admissibility is defined for grades <= n, got {k}")
    if k == 0:
        return True
    vector = [V.coeffs.get(blade, 0) for blade in full_blades(n, k)]
    return not any(linalg.mat_vec(_ideal_columns(n, k), vector))


def pair_current(T: SimplicialCurrent, c: RuminClass):
    """T(c) for a class of matching degree.

    In the Low regime (degree <= n) every quadrature tangent must be
    admissible, otherwise the value would depend on the representative;
    inadmissible tangents raise :class:`AdmissibilityError`.  A constant
    tangent is checked once per simplex, at its first vertex.  The check
    and the pairing read the tangents off T's table.
    """
    if c.degree != T.degree:
        raise GradeMismatchError(T.degree, c.degree, "T(class)")
    if c.params != T.params:
        raise DimensionMismatchError("chain and class over different groups")
    omega = c.payload
    n = T.params.n
    if c.degree <= n:
        degree_hint = T.quadrature_degree + omega.max_coeff_degree()
        for index, s in enumerate(T.simplices):
            tangent = _tangent_of(T, index)
            if tangent.constant:
                first = _numerators(tangent, tangent.points[0])
                values = [_over(first, first.values(), tangent.den)]
            else:
                values = [value for _, _, value in _node_tangents(s, tangent, degree_hint)]
            for value in values:
                if not is_admissible(MultiVector(T.params.dim, c.degree, value), n):
                    raise AdmissibilityError(
                        f"simplex {index} has an inadmissible tangent; "
                        "pairing with a quotient class is undefined"
                    )
    return pair_form(T, omega)


def _simplex_mass(params: HeisParams, simplex: Simplex, quadrature_degree: int):
    """int_S |V(p)| ds for one simplex outside any table (a clip piece)."""
    return _mass_from_tangent(simplex, _tangent(params.n, _simplex_corners(simplex)),
                              quadrature_degree)


def _mass_from_tangent(simplex: Simplex, tangent: _Tangent, quadrature_degree: int,
                       region=None):
    """int_S |V(p)| ds for the simplex's :func:`_tangent`, or with a
    ``region`` predicate the quadrature sum over the nodes inside it.

    V is affine and barycentric weights sum to 1, so at the node with
    integer weights ell over D, den * D * V = sum ell_i N_i for the vertex
    numerators N_i, and |V|^2 = ell^T G ell / (D den)^2 with G the Gram
    matrix of the N_i.  Only a region needs the nodes' coordinates.
    """
    k = simplex.degree
    if tangent.constant and region is None:
        square = sum(c * c for c in _numerators(tangent, tangent.points[0]).values())
        root = math.isqrt(square)
        if root * root == square:
            return Fraction(root, tangent.den * math.factorial(k))
        return _float_root(square, tangent.den) * _parameter_volume(k)
    _, corners = _vertex_numerators(tangent)
    gram = [[sum(map(mul, a, b)) for b in corners] for a in corners]
    common, rule = _integer_rule(k, quadrature_degree)
    if region is not None:
        nodes = parameter_nodes(simplex.vertices, rule_for_degree(k, quadrature_degree))
        rule = [node for node, (coords, _) in zip(rule, nodes)
                if region(Point.from_coords(coords))]
    den = common * tangent.den
    acc = Fraction(0)
    for ell, weight in rule:
        square = sum(lam * sum(map(mul, row, ell)) for lam, row in zip(ell, gram))
        acc = acc + weight * _root(square, den)
    return acc


class _Sum:
    """A running sum that keeps its exact terms on ints until a float enters.

    An exact term num / den is added to the int sum of its denominator;
    :meth:`value` makes one Fraction per denominator.  The first float
    term turns the exact part into that Fraction and the sum goes on as
    ``total + term``, so a float total is the float the terms summed
    from Fraction(0) in the same order give, and an exact total is a
    Fraction of the same value.
    """

    __slots__ = ("parts", "total")

    def __init__(self):
        self.parts = {}
        self.total = None  # set when the first float enters

    def exact(self) -> bool:
        """True while no float has entered."""
        return self.total is None

    def add_ratio(self, num: int, den: int) -> None:
        """Add the exact term num / den, for ints with den > 0."""
        if self.total is None:
            parts = self.parts
            parts[den] = parts.get(den, 0) + num
        else:
            self.total = self.total + Fraction(num, den)

    def add(self, term) -> None:
        """Add a Fraction or a float."""
        if self.total is None:
            if isinstance(term, Fraction):
                self.add_ratio(term.numerator, term.denominator)
                return
            self.total = self.value()
        self.total = self.total + term

    def value(self):
        if self.total is not None:
            return self.total
        total = Fraction(0)
        for den, num in self.parts.items():
            total = total + Fraction(num, den)
        return total


def _add_weighted(acc: _Sum, multiplicity: Fraction, value) -> None:
    """Add |multiplicity| * value to ``acc``, on ints when ``value`` is a Fraction."""
    if isinstance(value, Fraction) and acc.exact():
        acc.add_ratio(abs(multiplicity.numerator) * value.numerator,
                      multiplicity.denominator * value.denominator)
    else:
        acc.add(abs(multiplicity) * value)


def mass(T: SimplicialCurrent):
    """M(T): total measure; exact Fraction when every root closes in Q.

    The simplices' masses are the whole masses of T's table (see
    :func:`_whole`), summed per denominator on ints (see :class:`_Sum`).
    """
    acc = _Sum()
    for index, s in enumerate(T.simplices):
        _add_weighted(acc, s.multiplicity, _whole(T, index)[0])
    return acc.value()


def _framed(T: SimplicialCurrent) -> dict:
    """T's memo of blade-pairing framings, made on first use."""
    table = _table(T)
    if table.framed is None:
        table.framed = {}
    return table.framed


def _blade_pairings(T: SimplicialCurrent) -> dict:
    """T(dw_B) for the constant blade forms dw_B, keyed by blade B.

    V_B is affine in the point, so int_S V_B ds = V_B(centroid) / k!,
    exactly.  The simplices are grouped by their sorted corners: each
    corner is a point's reduced (numerators, den) pair, so equal points
    give equal pairs and the key names a simplex by its coordinates.
    Each simplex's multiplicity, negated for an odd vertex order, is
    summed on ints into its group's net multiplicity.  A group whose net
    is 0 pairs to 0 and is skipped; every other group is framed once:
    V at the sum of the integer vertices, in sorted vertex order, read
    off the tangent of its first simplex (see
    :func:`_tangent_of`, which :func:`mass` shares).  The framings are
    kept in T's ``framed`` memo under their keys, and a chain handed
    another chain's memo frames only the simplices that one lacks.  The
    numerators are summed as ints per blade and denominator, and each
    sum becomes one Fraction.  The result holds no zero: blades absent
    from it pair to zero.
    """
    nets = {}
    for index, (s, corners) in enumerate(zip(T.simplices, _corners(T))):
        oriented = sort_indices(corners)
        if oriented is None:
            continue  # a repeated vertex: the simplex is degenerate and pairs to 0
        sign, key = oriented
        mult = s.multiplicity
        num = mult.numerator if sign > 0 else -mult.numerator
        entry = nets.get(key)
        if entry is None:
            nets[key] = (index, sign, {mult.denominator: num})
        else:
            parts = entry[2]
            parts[mult.denominator] = parts.get(mult.denominator, 0) + num
    framed = _framed(T)
    vertices = T.degree + 1
    scale = math.factorial(T.degree) * vertices
    sums = {}
    for key, (index, sign, parts) in nets.items():
        if len(parts) == 1:
            ((mden, num),) = parts.items()
        else:
            mden = math.lcm(*parts)
            num = sum(c * (mden // d) for d, c in parts.items())
        if not num:
            continue
        entry = framed.get(key)
        if entry is None:
            tangent = _tangent_of(T, index)
            centroid = [sum(axis) for axis in zip(*tangent.points)]
            entry = framed[key] = (tangent.den, [
                (b, c if sign > 0 else -c)
                for b, c in _numerators(tangent, centroid, vertices).items() if c])
        den = mden * scale * entry[0]
        for b, c in entry[1]:
            sums[b, den] = sums.get((b, den), 0) + num * c
    totals = {}
    for (b, den), c in sums.items():
        totals[b] = totals.get(b, 0) + Fraction(c, den)
    return {b: value for b, value in totals.items() if value}


# -- clipping ---------------------------------------------------------------


def _whole(T: SimplicialCurrent, index: int) -> tuple:
    """(whole mass, scales) of simplex ``index`` of T.

    ``scales`` is true when the tangent is constant and its norm
    rational: a part's mass is then the whole mass times the part's
    share of the parameter volume, the Fraction its own minors give.
    The entries live in T's table under T's quadrature degree, so
    :func:`mass`, every sweep, band and window measure of T and the
    property report share them across calls, and a change of
    ``quadrature_degree`` reads (and fills) another set.
    """
    masses = _table(T).masses.setdefault(T.quadrature_degree, {})
    entry = masses.get(index)
    if entry is None:
        s = T.simplices[index]
        tangent = _tangent_of(T, index)
        value = _mass_from_tangent(s, tangent, T.quadrature_degree)
        entry = masses[index] = (value, tangent.constant and isinstance(value, Fraction))
    return entry


def _check_coeffs(T: SimplicialCurrent, coeffs) -> None:
    """Refuse a function or half-space over another group than T: zip would truncate it."""
    if len(coeffs) != T.params.dim:
        raise DimensionMismatchError(f"{len(coeffs)} coefficients for a chain over H^{T.params.n}")


def restrict_to_set(T: SimplicialCurrent, halfspaces) -> SimplicialCurrent:
    """T restricted to an intersection of affine half-spaces, exactly.

    Each simplex is subdivided along the bounding hyperplanes, one
    half-space after the other; kept pieces inherit multiplicity and
    orientation.  Coordinates are exact (floats were converted by
    ``Simplex``), so every cut point lies strictly inside its edge and no
    piece is a degenerate sliver.
    """
    halfspaces = [halfspaces] if isinstance(halfspaces, HalfSpace) else list(halfspaces)
    for hs in halfspaces:
        _check_coeffs(T, hs.coeffs)
    clipped = []
    for s in T.simplices:
        pieces = [s.vertices]
        for hs in halfspaces:
            pieces = [kept for piece in pieces
                      for kept, _ in _split(piece, hs, tuple(hs.value(v) for v in piece))[0]]
        clipped.extend(Simplex._trusted(piece, s.multiplicity) for piece in pieces)
    return T.with_simplices(clipped)


def measure_of(T: SimplicialCurrent, region):
    """mu_T(region): region is a half-space list (exact) or a predicate.

    Predicates are sampled at quadrature nodes, so they are only as good
    as the rule; half-space lists go through exact clipping, as the mass
    of :func:`restrict_to_set`.
    """
    if callable(region):
        total = Fraction(0)
        for index, s in enumerate(T.simplices):
            total = total + abs(s.multiplicity) * _mass_from_tangent(
                s, _tangent_of(T, index), T.quadrature_degree, region)
        return total
    return mass(restrict_to_set(T, region))


def boundary(T: SimplicialCurrent) -> SimplicialCurrent:
    """Combinatorial boundary with alternating-sign faces, canonicalized.

    Internal faces of a closed mesh cancel exactly in the canonical form.
    The faces are merged on the interned vertex ids of T's table, as
    ``canonical()`` merges on ids.
    """
    if T.degree < 1:
        raise ParameterError("boundary of a 0-chain is not defined")
    points, cells = _interned(T)
    faces = _from_cells(points, _merged_faces(cells))
    return SimplicialCurrent._trusted(T.params, T.degree - 1, faces, T.quadrature_degree)


def restrict_by_fn(T: SimplicialCurrent, g) -> "WeightedCurrent":
    """T restricted by a scalar weight: (T|g)(omega) = int g <omega|V>."""
    return WeightedCurrent(T, g)


def gamma_h_eval(s, t, h):
    """The clamped ramp (|s-t| - |s-(t+h)| + h) / (2h); h > 0.

    Equals 0 for s <= t, (s-t)/h on (t, t+h), and 1 for s >= t+h.
    """
    if not h > 0:
        raise ParameterError(f"band width must be positive, got {h}")
    return (abs(s - t) - abs(s - (t + h)) + h) / (2 * h)


@dataclass(frozen=True)
class GammaWeight:
    """The clamped ramp gamma_h composed with an affine function.

    Piecewise affine with kinks on {f = t} and {f = t + h}; carrying the
    pieces explicitly lets the pairing pre-split simplices so the
    quadrature stays exact.
    """

    fcoeffs: tuple
    fconst: object
    t: object
    h: object

    def __post_init__(self):
        object.__setattr__(self, "fcoeffs", tuple(exact(c, "coefficient") for c in self.fcoeffs))
        object.__setattr__(self, "fconst", exact(self.fconst, "constant"))
        object.__setattr__(self, "t", exact(self.t, "level"))
        object.__setattr__(self, "h", exact(self.h, "band width"))
        if not self.h > 0:
            raise ParameterError(f"band width must be positive, got {self.h}")

    def level_halfspaces(self):
        low = HalfSpace(self.fcoeffs, self.t - self.fconst, ">")
        high = HalfSpace(self.fcoeffs, self.t + self.h - self.fconst, ">")
        return low, high

    def __call__(self, point: Point):
        coords = point.coords()
        if len(coords) != len(self.fcoeffs):
            raise DimensionMismatchError(
                f"a point of {len(coords)} coordinates for a function of {len(self.fcoeffs)}")
        value = sum(a * b for a, b in zip(self.fcoeffs, coords)) + self.fconst
        return gamma_h_eval(value, self.t, self.h)


class WeightedCurrent:
    """The functional omega -> sum quadrature of g(p) <omega(p)|V(p)>."""

    __slots__ = ("chain", "weight")

    def __init__(self, chain: SimplicialCurrent, weight):
        if isinstance(weight, GammaWeight):
            _check_coeffs(chain, weight.fcoeffs)
            # below the level the ramp is 0, so those pieces would pair to 0
            low, high = weight.level_halfspaces()
            bands = ([low, high.complement()], [low, high])
            chain = chain.with_simplices(
                piece for s in chain.simplices for band in bands
                for piece in restrict_to_set(chain.with_simplices([s]), band).simplices)
        self.chain = chain
        self.weight = weight

    def pair(self, omega):
        if isinstance(omega, RuminClass):
            omega = omega.payload
        if omega.grade != self.chain.degree:
            raise GradeMismatchError(self.chain.degree, omega.grade, "(T|g)(omega)")
        degree_hint = self.chain.quadrature_degree + omega.max_coeff_degree()
        return _pair_batch(self.chain, [omega], degree_hint, self.weight)[0]


def dual_boundary_functional(T: SimplicialCurrent):
    """The middle-degree dual boundary, exposed only weakly: c -> T(d_c c)."""
    from .rumin import d_c

    def functional(c: RuminClass):
        return pair_current(T, d_c(c))

    return functional

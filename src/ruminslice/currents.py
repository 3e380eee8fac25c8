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
index b in B, +-shift_b(p) E_B to B with b swapped for T: every blade
coefficient of V(p) is affine in p.  The tangent at a quadrature node
with barycentric weights lambda is therefore sum_i lambda_i V(v_i),
exactly, and E is framed only at the k+1 vertices (at the centroid for
the constant blade pairings).  A batch of forms is paired through a
per-simplex moment table (see :func:`pair_forms_batch`), one pass over
the nodes for the whole batch.

The clip records each piece's share of its simplex's parameter volume
(a cut at lam on an edge splits a share as lam : 1 - lam; see
:mod:`ruminslice.clipping`), and a piece's E is its share times the
simplex's.  So when the simplex's tangent is constant with a rational
norm, a piece's mass is the whole mass times its share: the Fraction
its own minors would give, with no minors computed.  Any other piece is
measured like any simplex, from its own E, so float sums stay the same
numbers.  A cut point lies strictly inside its edge, so no clip piece
is degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .algebra import MultiVector, pair, wedge_vectors
from .clipping import HalfSpace, _split, exact, split_simplex
from .errors import (
    AdmissibilityError,
    DimensionMismatchError,
    GradeMismatchError,
    ParameterError,
)
from .forms import PolyForm
from .heis import HeisParams, Point, frame_change
from .quadrature import parameter_nodes, rule_for_degree
from .rumin import RuminClass, _generator_columns, full_blades

DEFAULT_QUADRATURE_DEGREE = 5


def _edge_kvector(simplex) -> dict:
    """E = e_1 ^ ... ^ e_k of the simplex's edges, as {blade: minor}."""
    return wedge_vectors(len(simplex.vertices[0]), simplex.edges())


@dataclass(frozen=True)
class Simplex:
    """Oriented affine simplex: ordered vertices and a multiplicity."""

    vertices: tuple
    multiplicity: object = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(
            tuple(exact(c, "vertex coordinate") for c in v) for v in self.vertices))
        object.__setattr__(self, "multiplicity", exact(self.multiplicity, "multiplicity"))
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

    __slots__ = ("params", "degree", "simplices", "quadrature_degree")

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
        nondegenerate.
        """
        merged = {}
        for s in self.simplices:
            order = sorted(range(len(s.vertices)), key=lambda i: tuple(s.vertices[i]))
            sign = _permutation_sign(order)
            key = tuple(s.vertices[i] for i in order)
            merged[key] = merged.get(key, 0) + sign * s.multiplicity
        kept = [Simplex._trusted(v, m) for v, m in sorted(merged.items()) if m != 0]
        return self.with_simplices(kept)

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


def _permutation_sign(order) -> int:
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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
def _horizontal_units(n: int) -> tuple:
    dim = 2 * n + 1
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(2 * n))


def _framed(n: int, kvector: dict, coords) -> dict:
    """The coordinate k-vector ``kvector`` framed at ``coords``: V(p) from E."""
    point = Point.from_coords(coords)
    units = _horizontal_units(n)
    shifts = {}
    out = dict(kvector)
    for blade, c in kvector.items():
        for b, sign, target in _frame_moves(n, blade):
            if b not in shifts:
                shifts[b] = frame_change(point, units[b])[-1]
            if shifts[b]:
                out[target] = out.get(target, 0) + sign * shifts[b] * c
    return {b: c for b, c in out.items() if c != 0}


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


def _vertex_tangents(params: HeisParams, simplex: Simplex) -> list:
    """Blade coefficients of the tangent at each vertex, in vertex order."""
    kvector = _edge_kvector(simplex)
    if not any(_frame_moves(params.n, blade) for blade in kvector):
        # every blade holds T (or E is 1 or 0): V(p) = E everywhere
        return [kvector] * len(simplex.vertices)
    return [_framed(params.n, kvector, v) for v in simplex.vertices]


def _constant_tangent(vertex_tangents):
    """The tangent coefficients when position-independent, else None.

    Takes the output of :func:`_vertex_tangents`.  Tangent blade
    coefficients are affine in the point (the frame change moves only
    the T coefficient, affinely, and a blade holds T at most once), so
    agreeing on every vertex forces agreement everywhere.
    """
    first = vertex_tangents[0]
    if all(v == first for v in vertex_tangents[1:]):
        return first
    return None


def _node_tangents(simplex: Simplex, vertex_tangents, degree: int) -> list:
    """(coords, weight, tangent) at each node of the rule exact to ``degree``.

    ``tangent`` maps blades to coefficients.  Blade coefficients are
    affine in the point, so the node tangent is sum_i lambda_i V(v_i)
    over the node's barycentric weights, equal to the wedge of the framed
    edges there.
    """
    rule = rule_for_degree(simplex.degree, degree)
    nodes = parameter_nodes(simplex.vertices, rule)
    constant = _constant_tangent(vertex_tangents)
    if constant is not None:
        return [(coords, weight, constant) for coords, weight in nodes]
    blades = dict.fromkeys(b for tangent in vertex_tangents for b in tangent)
    out = []
    for (barycentric, _), (coords, weight) in zip(rule, nodes):
        tangent = {
            b: sum(lam * v.get(b, 0) for lam, v in zip(barycentric, vertex_tangents))
            for b in blades
        }
        out.append((coords, weight, tangent))
    return out


def _tangent_norm(tangent):
    return sqrt_exact_or_float(sum(c * c for c in tangent.values()))


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
    totals = [0] * len(forms)
    for s in T.simplices:
        moments = dict.fromkeys(keys, 0)
        for coords, weight, tangent in _node_tangents(
                s, _vertex_tangents(T.params, s), degree_hint):
            powers = []
            for c, highest in zip(coords, top):
                row = [1]
                for _ in range(highest):
                    row.append(row[-1] * c)
                powers.append(row)
            weighted = {}
            for expo in exponents:
                value = weight
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

    The generators theta ^ blade and dtheta ^ blade are the columns of
    :func:`ruminslice.rumin._generator_columns` over the k-blades, dotted
    with V's blade vector.  Defined for grades k <= n; such tangents make
    the pairing with quotient classes independent of the representative.
    """
    k = V.grade
    if k > n:
        raise ParameterError(f"admissibility is defined for grades <= n, got {k}")
    if k == 0:
        return True
    columns = (_generator_columns(n, "theta", k - 1, False)
               + _generator_columns(n, "dtheta", k - 2, False))
    vector = [V.coeffs.get(blade, 0) for blade in full_blades(n, k)]
    return not any(linalg.mat_vec(columns, vector))


def pair_current(T: SimplicialCurrent, c: RuminClass):
    """T(c) for a class of matching degree.

    In the Low regime (degree <= n) every quadrature tangent must be
    admissible, otherwise the value would depend on the representative;
    inadmissible tangents raise :class:`AdmissibilityError`.
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
            for _, _, tangent in _node_tangents(s, _vertex_tangents(T.params, s), degree_hint):
                if not is_admissible(MultiVector(T.params.dim, c.degree, tangent), n):
                    raise AdmissibilityError(
                        f"simplex {index} has an inadmissible tangent; "
                        "pairing with a quotient class is undefined"
                    )
    return pair_form(T, omega)


def _simplex_mass(params: HeisParams, simplex: Simplex, quadrature_degree: int):
    """int_S |V(p)| ds for one simplex."""
    return _mass_from_tangents(simplex, _vertex_tangents(params, simplex), quadrature_degree)


def _mass_from_tangents(simplex: Simplex, vertex_tangents, quadrature_degree: int):
    constant = _constant_tangent(vertex_tangents)
    if constant is not None:
        return _tangent_norm(constant) * _parameter_volume(simplex.degree)
    acc = Fraction(0)
    for _, weight, tangent in _node_tangents(simplex, vertex_tangents, quadrature_degree):
        acc = acc + weight * _tangent_norm(tangent)
    return acc


def mass(T: SimplicialCurrent):
    """M(T): total measure; exact Fraction when every root closes in Q."""
    total = Fraction(0)
    for s in T.simplices:
        total = total + abs(s.multiplicity) * _simplex_mass(T.params, s, T.quadrature_degree)
    return total


def _blade_pairings(T: SimplicialCurrent) -> dict:
    """T(dw_B) for the constant blade forms dw_B, keyed by blade B.

    V_B is affine in the point, so int_S V_B ds = V_B(centroid) / k!,
    exactly: one framing of E per simplex.  Blades absent from the
    result pair to zero.
    """
    corners = T.degree + 1
    volume = _parameter_volume(T.degree)
    totals = {}
    for s in T.simplices:
        centroid = tuple(sum(axis) / corners for axis in zip(*s.vertices))
        weight = s.multiplicity * volume
        for b, c in _framed(T.params.n, _edge_kvector(s), centroid).items():
            totals[b] = totals.get(b, 0) + weight * c
    return totals


# -- clipping ---------------------------------------------------------------


def _clip_pieces(vertices, halfspaces, values=None) -> list:
    """The (piece, share) pairs of one simplex kept by every half-space, in clip order.

    ``values`` are the vertices' :meth:`HalfSpace.value` for the first
    half-space, when the caller has them.  For a later half-space with
    the same coefficients (another level of the same function) a piece's
    values are its values for the previous one shifted by the difference
    of the constants; other values are evaluated.  A piece's share is
    its part of the simplex's parameter volume (see
    :func:`ruminslice.clipping._split`).
    """
    pieces = [(tuple(vertices), values, 1)]
    previous = None
    for hs in halfspaces:
        shift = None
        if previous is not None and previous.coeffs == hs.coeffs:
            shift = previous.const - hs.const
        clipped = []
        for piece, piece_values, piece_share in pieces:
            if shift is not None:
                piece_values = tuple(v + shift for v in piece_values)
            elif previous is not None or piece_values is None:
                piece_values = tuple(hs.value(v) for v in piece)
            clipped.extend(_split(piece, hs, piece_values, piece_share)[0])
        pieces = clipped
        previous = hs
    return [(piece, piece_share) for piece, _, piece_share in pieces]


def _halfspace_list(halfspaces) -> list:
    return [halfspaces] if isinstance(halfspaces, HalfSpace) else list(halfspaces)


def _whole(T: SimplicialCurrent, index: int, whole: dict, need_mass: bool) -> tuple:
    """(whole mass, scales) of simplex ``index``, cached in ``whole``.

    ``scales`` is true when the tangent is constant and its norm
    rational: a clip piece's tangent is then the simplex's times the
    piece's share, so its mass is the whole mass times the share, the
    same Fraction its own minors give.  The mass of a simplex with a
    varying tangent is left None until ``need_mass``.
    """
    entry = whole.get(index)
    if entry is None or (need_mass and entry[0] is None):
        s = T.simplices[index]
        vertex_tangents = _vertex_tangents(T.params, s)
        constant = _constant_tangent(vertex_tangents) is not None
        value = None
        if constant or need_mass:
            value = _mass_from_tangents(s, vertex_tangents, T.quadrature_degree)
        entry = whole[index] = (value, constant and isinstance(value, Fraction))
    return entry


def _clipped_measure(T: SimplicialCurrent, cuts, whole: dict):
    """mu_T of a region cut out by half-spaces, in simplex and clip order.

    ``cuts`` yields (index, planes, values) in simplex order, for every
    simplex that may meet the region: the half-spaces ``planes`` cut the
    region out of simplex ``index`` (none when it lies inside), and
    ``values`` are its vertices' values for the first plane, or None.
    A simplex the clip leaves whole adds its whole mass.  A piece adds
    the whole mass times its share when that scales (see :func:`_whole`),
    else its own mass, so float sums add the same terms in the same
    order as M(restrict_to_set(T, ...)).  ``whole`` caches the whole
    masses; the calls of one sweep share it.
    """
    total = Fraction(0)
    for index, planes, values in cuts:
        s = T.simplices[index]
        pieces = _clip_pieces(s.vertices, planes, values)
        if not pieces:
            continue
        weight = abs(s.multiplicity)
        uncut = pieces[0][1] == 1
        value, scales = _whole(T, index, whole, uncut)
        if uncut:
            total = total + weight * value
            continue
        for piece, share in pieces:
            if scales:
                total = total + weight * (value * share)
            else:
                total = total + weight * _simplex_mass(
                    T.params, Simplex._trusted(piece, s.multiplicity), T.quadrature_degree)
    return total


def restrict_to_set(T: SimplicialCurrent, halfspaces) -> SimplicialCurrent:
    """T restricted to an intersection of affine half-spaces, exactly.

    Each simplex is subdivided along the bounding hyperplanes; kept
    pieces inherit multiplicity and orientation.  Coordinates are exact
    (floats were converted by ``Simplex``), so every cut point lies
    strictly inside its edge and no piece is a degenerate sliver.
    """
    halfspaces = _halfspace_list(halfspaces)
    clipped = []
    for s in T.simplices:
        clipped.extend(Simplex._trusted(piece, s.multiplicity)
                       for piece, _ in _clip_pieces(s.vertices, halfspaces))
    return T.with_simplices(clipped)


def measure_of(T: SimplicialCurrent, region):
    """mu_T(region): region is a half-space list (exact) or a predicate.

    Predicates are sampled at quadrature nodes, so they are only as good
    as the rule; half-space lists go through exact clipping.
    """
    if callable(region):
        total = Fraction(0)
        for s in T.simplices:
            acc = Fraction(0)
            for coords, weight, tangent in _node_tangents(
                    s, _vertex_tangents(T.params, s), T.quadrature_degree):
                if region(Point.from_coords(coords)):
                    acc = acc + weight * _tangent_norm(tangent)
            total = total + abs(s.multiplicity) * acc
        return total
    planes = _halfspace_list(region)
    return _clipped_measure(T, ((index, planes, None) for index in range(len(T.simplices))), {})


def boundary(T: SimplicialCurrent) -> SimplicialCurrent:
    """Combinatorial boundary with alternating-sign faces, canonicalized.

    Internal faces of a closed mesh cancel exactly in the canonical form.
    """
    if T.degree < 1:
        raise ParameterError("boundary of a 0-chain is not defined")
    faces = []
    for s in T.simplices:
        for i in range(len(s.vertices)):
            face = s.vertices[:i] + s.vertices[i + 1:]
            mult = s.multiplicity if i % 2 == 0 else -s.multiplicity
            faces.append(Simplex._trusted(face, mult))
    out = SimplicialCurrent(T.params, T.degree - 1, faces, T.quadrature_degree)
    return out.canonical()


def restrict_by_fn(T: SimplicialCurrent, g) -> "WeightedCurrent":
    """T restricted by a scalar weight: (T|g)(omega) = int g <omega|V>."""
    return WeightedCurrent(T, g)


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

    def level_halfspaces(self):
        low = HalfSpace(self.fcoeffs, self.t - self.fconst, ">")
        high = HalfSpace(self.fcoeffs, self.t + self.h - self.fconst, ">")
        return low, high

    def __call__(self, point: Point):
        value = sum(a * b for a, b in zip(self.fcoeffs, point.coords())) + self.fconst
        if value <= self.t:
            return 0 * value
        if value >= self.t + self.h:
            return 1 + 0 * value
        return (value - self.t) / self.h


class WeightedCurrent:
    """The functional omega -> sum quadrature of g(p) <omega(p)|V(p)>."""

    __slots__ = ("chain", "weight")

    def __init__(self, chain: SimplicialCurrent, weight):
        if isinstance(weight, GammaWeight):
            low, high = weight.level_halfspaces()
            pieces = []
            for s in chain.simplices:
                below, rest = [], [s]
                for hs in (low, high):
                    next_rest = []
                    for piece in rest:
                        kept, dropped = split_simplex(piece.vertices, hs)
                        next_rest.extend(Simplex._trusted(p, piece.multiplicity) for p in kept)
                        below.extend(Simplex._trusted(p, piece.multiplicity) for p in dropped)
                    rest = next_rest
                pieces.extend(below + rest)
            chain = chain.with_simplices(pieces)
        self.chain = chain
        self.weight = weight

    def pair(self, omega):
        if isinstance(omega, RuminClass):
            omega = omega.payload
        if omega.grade != self.chain.degree:
            raise GradeMismatchError(self.chain.degree, omega.grade, "(T|g)(omega)")
        degree_hint = self.chain.quadrature_degree + omega.max_coeff_degree()
        params = self.chain.params
        total = 0
        for s in self.chain.simplices:
            acc = 0
            for coords, weight_q, tangent in _node_tangents(
                    s, _vertex_tangents(params, s), degree_hint):
                point = Point.from_coords(coords)
                g_val = self.weight(point)
                if g_val == 0:
                    continue
                value = pair(omega.evaluate_at(point), MultiVector(params.dim, s.degree, tangent))
                acc = acc + weight_q * g_val * value
            total = total + s.multiplicity * acc
        return total


def dual_boundary_functional(T: SimplicialCurrent):
    """The middle-degree dual boundary, exposed only weakly: c -> T(d_c c)."""
    from .rumin import d_c

    def functional(c: RuminClass):
        return pair_current(T, d_c(c))

    return functional

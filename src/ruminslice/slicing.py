"""Slicing of simplicial currents along level sets of affine functions.

The two slices of a chain T at level t of f are

    <T,f,t+> = (dT)|{f>t} - d(T|{f>t}),
    <T,f,t-> = d(T|{f<t}) - (dT)|{f<t},

computed by exact clipping and combinatorial boundary.  At a generic
level (one that misses every vertex value) the off-level faces cancel
combinatorially and the result is carried by {f = t}.  Levels hitting a
vertex raise :class:`DegenerateLevelError` rather than being perturbed
silently.

Geometry is exact only: ``AffineFunction`` and the level arguments of
every public function here convert floats exactly (see
:func:`ruminslice.clipping.exact`), as ``Simplex`` does for chains, so a
float vertex touches a level only when it equals it.

A simplex whose vertices all lie strictly on one side of the level
contributes the same faces to both terms.  Within a simplex the level
crosses, the off-level faces cancel too: the kept clip pieces share
their interior faces, and the clip subdivides each face of the simplex
as it would clip that face alone.  So a slice is read off the kept clip
pieces of the crossing simplices: a piece with exactly one off-level
vertex i gives its face opposite i, with the formula's multiplicity
-(-1)^i mult on the plus side and +(-1)^i mult on the minus side, and
one merge folds the faces.  A slice costs in the simplices it cuts, not
in the size of T.

f meets the vertices of T on ints, through T's chain table (see
:class:`ruminslice.currents._Table`), which T builds on first use and
keeps: its interned vertices, each vertex as integer numerators over
the lcm of its own coordinate denominators, and per tuple of
coefficients f scaled to integers with its integer value at every
vertex, their order, and each simplex's least and greatest vertex
(:class:`_Dots`).  Every slice, sweep, window measure and report of T
reads that table itself (:func:`_interned`, :func:`_integer_points`,
:func:`_dots`), so they share it, across calls as well as within one.
A level t = p/q gives each vertex the int dot q - p scale den
(:meth:`_Dots.signs`), which has the sign of f(v) - t: the generic-level
refusal and the crossing test read these ints.  A level-window measure
places each vertex among the window's levels on ints, takes a simplex S
it cuts as M(S) (F(hi) - F(lo)) in closed form where S's mass scales
with parameter volume (F's integer pieces, :class:`_Spline`, and the
whole masses M(S) are kept in the table too), and clips the others.  A
window sums its exact terms on ints per denominator, with F as an
integer pair, and makes one Fraction per denominator at the end (see
:class:`ruminslice.currents._Sum`).

A slice clips, merges and cancels on integer vertex ids, not on
coordinate tuples.  The chain's vertices, sorted once, are numbered in
that order, so id order is coordinate order and the clip splits the
same edges as it does on coordinates.  A cut point is computed once per
crossing edge, memoised under the edge's end ids, as a reduced
homogeneous integer point (numerators over a positive denominator, see
:func:`_integer_cut`), and deduplicated on that pair, so equal ids mean
equal points even where two edges meet the level at one point.
The cut points the merged sections use are ranked on ints (scaled to
the lcm of their dens, they sort as their coordinates do), and
Fractions are made only for them and, in a certified slice, for the
formula chain.  The slice chain is born with its table (see
:class:`ruminslice.currents._Table`): its interned vertices and cells
and its vertices on ints come off the cut table, so its tangents and
its mass never convert a Fraction back to ints; the formula chain is
born with its corners the same way.  The two slices at one level share
one clip (:func:`_clip_level`): the pieces a crossing simplex keeps
below the level are the ones it drops above it, so the property report
clips each level once for P1.

Every slice, certified or not, checks the two tables it holds: every
vertex of a section is a cut point, not a vertex of T, and every cut
point is on the level (coeffs . n q = p scale den on ints), once per
point.  Either failure raises :class:`InternalInvariantError`.

A certified slice also builds the formula, from the same clip pieces
and on the same ids, as the witness of the cancellation; its two
boundaries are merged cell by cell (see
:func:`ruminslice.currents._merged_faces`), not face by face as the
sections are.  It checks that the slice chain is a fixed point of
``canonical()``, that the formula merges to the same cells as the
sections, and that the two chains pair alike with every constant blade
form dw_B, exactly (see :func:`_certificate`); a failed check raises
:class:`InternalInvariantError`.
Pairing is linear in simplices and alternating in vertex order, and
every blade coefficient of the tangent is affine in the point, so a
k-simplex pairs with dw_B as mult * V_B(centroid) / k!.  Each chain
folds its simplices by their sorted integer corners into net
multiplicities and frames each distinct simplex whose net is not 0
once (see :func:`ruminslice.currents._blade_pairings`).  The slice
chain frames through its own tangents, which its mass reads again, and
the formula shares the slice chain's framings: in a correct slice its
off-level simplices cancel to net 0 and the rest are the slice chain's,
so it frames nothing.  The keys are coordinates, each chain's read off
its own table, so the pairings catch a merge that is wrong in the same
way on both sides, and a slice table that misplaces a point.

Mass bounds and the coarea sweep require the slice dimension k to differ
from n; requests at k = n raise :class:`MiddleDimensionError`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import linalg
from .clipping import HalfSpace, _split, exact
from .currents import (
    SimplicialCurrent,
    _add_weighted,
    _blade_pairings,
    _Cell,
    _check_coeffs,
    _framed,
    _from_cells,
    _merged_faces,
    _integer_points,
    _interned,
    _merge,
    _numerators,
    _ranked,
    _simplex_mass,
    _Sum,
    _Table,
    _table,
    _tangent_of,
    _whole,
    boundary,
    gamma_h_eval,  # re-exported: the ramp lives with GammaWeight
    mass,
    restrict_to_set,
    sqrt_exact_or_float,
)
from .errors import (
    DegenerateLevelError,
    DimensionMismatchError,
    InternalInvariantError,
    MiddleDimensionError,
    ParameterError,
)
from .heis import Point, koranyi_dist


@dataclass(frozen=True)
class AffineFunction:
    """f(p) = coeffs . (x, y, t) + const over H^n."""

    coeffs: tuple
    const: object = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(exact(c, "coefficient") for c in self.coeffs))
        object.__setattr__(self, "const", exact(self.const, "constant"))
        if len(self.coeffs) % 2 != 1 or len(self.coeffs) < 3:
            raise ParameterError("coefficient length must be 2n+1")

    @property
    def n(self) -> int:
        return len(self.coeffs) // 2

    def __call__(self, p):
        coords = p.coords() if isinstance(p, Point) else tuple(p)
        if len(coords) != len(self.coeffs):
            raise DimensionMismatchError(
                f"a point of {len(coords)} coordinates for a function of {len(self.coeffs)}")
        return sum(a * b for a, b in zip(self.coeffs, coords)) + self.const

    def is_horizontal_affine(self) -> bool:
        """True when the vertical coefficient vanishes: f = <(a,b),(x,y)> + c."""
        return self.coeffs[-1] == 0

    def lipschitz_constant(self):
        """Closed-form Koranyi Lipschitz constant |(a, b)|, horizontal case.

        The horizontal displacement embeds isometrically into the Koranyi
        norm, so the Euclidean bound is attained along horizontal lines.
        """
        if not self.is_horizontal_affine():
            raise ParameterError("closed-form Lipschitz constant needs a horizontal-affine f")
        return sqrt_exact_or_float(sum(c * c for c in self.coeffs[:-1]))

    def halfspace(self, t, op: str) -> HalfSpace:
        return HalfSpace(self.coeffs, t - self.const, op)


def lipschitz_estimate(f, point_pairs):
    """Sampled lower bound of the Koranyi Lipschitz constant.

    Returns (sampled, closed_form); ``closed_form`` is None unless ``f``
    is a horizontal-affine :class:`AffineFunction`.  Coincident pairs are
    skipped.  A sampled value above the closed form would contradict the
    closed form, so that situation is treated as an internal error.
    """
    best = 0.0
    for p, q in point_pairs:
        dist = koranyi_dist(p, q)
        if dist == 0:
            continue
        best = max(best, abs(float(f(p)) - float(f(q))) / dist)
    closed = None
    if isinstance(f, AffineFunction) and f.is_horizontal_affine():
        closed = f.lipschitz_constant()
        if best > float(closed) + 1e-9:
            raise InternalInvariantError(
                f"sampled Lipschitz quotient {best} exceeds the closed form {closed}"
            )
    return best, closed


@dataclass(frozen=True)
class SliceResult:
    """A computed slice: the chain, its mass, level and side.

    ``residual`` is always 0.0: a certified slice whose chain pairs
    otherwise than the uncancelled defining combination with a constant
    blade form raises :class:`InternalInvariantError` instead of
    returning (see :func:`_certificate`), and an uncertified slice does
    not compare them.  ``middle_dimension`` flags slices of dimension
    k = n, which the mass-bound reports exclude.
    """

    chain: SimplicialCurrent
    mass: object
    residual: float
    level: object
    side: str
    middle_dimension: bool


class _Dots(NamedTuple):
    """f at the vertices of a chain on ints, for one tuple of coefficients.

    f's coefficients are ``coeffs`` (ints) over ``scale``, and a vertex v
    is its numerators over ``dens[v]`` (see
    :func:`ruminslice.currents._integer_points`), so coeffs . v =
    ``dots[v]`` / (scale * dens[v]).  ``rank`` numbers the distinct
    values of coeffs . v in ascending order, equal values alike, and
    ``low`` and ``high`` hold, per cell, a vertex id where the cell's value
    is least and one where it is greatest.  Sweeps fill ``groups`` and ``splines``.
    """

    scale: int
    coeffs: tuple
    dots: list
    dens: list
    rank: list
    low: list
    high: list
    groups: dict
    splines: dict

    def signs(self, level: Fraction) -> list:
        """Per vertex id, an int with the sign of coeffs . v - ``level``.

        With ``level`` = p/q it is dots[v] q - p scale dens[v], which is
        (coeffs . v - level) times the positive scale dens[v] q.
        """
        q, shift = level.denominator, level.numerator * self.scale
        return [dot * q - shift * den for dot, den in zip(self.dots, self.dens)]

    def value(self, vertex: int) -> Fraction:
        """coeffs . v at vertex id ``vertex``."""
        return Fraction(self.dots[vertex], self.scale * self.dens[vertex])

    def spline(self, index: int, vertices: tuple) -> _Spline:
        """Cell ``index``'s :class:`_Spline`, made once from its vertex ids ``vertices``."""
        if index not in self.splines:
            lcm = math.lcm(*(self.dens[i] for i in vertices))
            knots = sorted(self.dots[i] * (lcm // self.dens[i]) for i in vertices)
            self.splines[index] = _Spline(knots, self.scale * lcm, {})
        return self.splines[index]


def _dots(T: SimplicialCurrent, f: AffineFunction) -> _Dots:
    """T's :class:`_Dots` for f's coefficients, built once per chain table;
    f over another group than T's is refused (see :func:`_check_coeffs`)."""
    _check_coeffs(T, f.coeffs)
    functions = _table(T).functions
    entry = functions.get(f.coeffs)
    if entry is None:
        scale = math.lcm(*(c.denominator for c in f.coeffs))
        ints = tuple(c.numerator * (scale // c.denominator) for c in f.coeffs)
        points = _integer_points(T)
        dots = [sum(map(mul, ints, nums)) for nums, _ in points]
        dens = [den for _, den in points]
        values = [Fraction(dot, den) for dot, den in zip(dots, dens)]
        order = sorted(range(len(values)), key=values.__getitem__)
        rank = [0] * len(values)
        for previous, i in zip(order, order[1:]):
            rank[i] = rank[previous] + (values[i] != values[previous])
        cells = _interned(T)[1]
        entry = functions[f.coeffs] = _Dots(
            scale, ints, dots, dens, rank,
            [min(cell.vertices, key=rank.__getitem__) for cell in cells],
            [max(cell.vertices, key=rank.__getitem__) for cell in cells], {}, {})
    return entry


def _integer_cut(a: tuple, b: tuple, va: int, vb: int) -> tuple:
    """The point where the level meets the edge from ``a`` to ``b``.

    ``a`` and ``b`` are (numerators, den) pairs and ``va``, ``vb`` their
    :meth:`_Dots.signs` values, of opposite signs.  Each value is the
    half-space value times den * (a positive factor shared by both ends),
    so the cut is (vb n_a - va n_b) / (vb d_a - va d_b), returned reduced
    with a positive denominator: equal points give equal pairs.
    """
    (na, da), (nb, db) = a, b
    nums = [vb * x - va * y for x, y in zip(na, nb)]
    den = vb * da - va * db
    common = math.gcd(den, *nums)
    if den < 0:
        common = -common
    return tuple(x // common for x in nums), den // common


class _CutPoints:
    """The point table of one slice: the chain's vertices, then cut points.

    Called as the ``cut`` of :func:`ruminslice.clipping._split` on vertex
    ids.  A cut point is computed once per crossing edge, on ints (see
    :func:`_integer_cut`), memoised under the edge's sorted end ids, and
    takes the id of an equal cut point when two edges meet the level at
    the same point, so equal ids mean equal points.  Indexing the table
    gives a point's Fraction coordinates, made once per cut point.
    """

    __slots__ = ("points", "ints", "first", "edges", "by_point", "made")

    def __init__(self, points: list, ints: list):
        self.points = points
        self.ints = list(ints)
        self.first = len(self.ints)
        self.edges = {}
        self.by_point = {}
        self.made = {}

    def __call__(self, a: int, b: int, va, vb) -> int:
        key = (a, b) if a < b else (b, a)
        label = self.edges.get(key)
        if label is None:
            point = _integer_cut(self.ints[a], self.ints[b], va, vb)
            label = self.edges[key] = self.by_point.setdefault(point, len(self.ints))
            if label == len(self.ints):
                self.ints.append(point)
        return label

    def __getitem__(self, label: int) -> tuple:
        if label < self.first:
            return self.points[label]
        point = self.made.get(label)
        if point is None:
            nums, den = self.ints[label]
            point = self.made[label] = tuple(Fraction(x, den) for x in nums)
        return point


class _Clip(NamedTuple):
    """One level of a chain, clipped: what both slices at the level share.

    ``above`` is the half-space {f > t}, ``cuts`` the slice's point
    table and ``split`` holds, for each simplex the level crosses, its
    cell, its vertices' values and its (kept, dropped) clip pieces by
    ``above``.  Every piece of a crossing simplex keeps a vertex off the
    level, so the dropped pieces are the kept pieces of {f < t}, in the
    same order.
    """

    above: HalfSpace
    cuts: _CutPoints
    split: list


def _at_level(T: SimplicialCurrent, f: AffineFunction, t) -> tuple:
    """(T's :class:`_Dots` for f, {f > t}, :meth:`_Dots.signs` at t); no refusal."""
    dots, above = _dots(T, f), f.halfspace(t, ">")
    return dots, above, dots.signs(above.const)


def _clip_level(T: SimplicialCurrent, f: AffineFunction, t, level=None) -> _Clip:
    """Clip the simplices of T the generic level t crosses, once for both sides,
    on ``level`` (see :func:`_at_level`) where the caller holds it already.

    Refuses a level on a vertex, and checks that every cut point is on
    the level (coeffs . n q = p scale den on ints), once per point.
    """
    dots, above, signs = level or _at_level(T, f, t)
    points, cells = _interned(T)
    if 0 in signs:
        shown = "(" + ", ".join(str(c) for c in points[signs.index(0)]) + ")"
        raise DegenerateLevelError(
            f"level {t} hits the vertex {shown}; slice at a nearby generic level instead"
        )
    cuts = _CutPoints(points, _integer_points(T))
    # a generic level misses every vertex, so it meets exactly the
    # simplices with vertices on both sides of it
    split = []
    for cell, low, high in zip(cells, dots.low, dots.high):
        if signs[low] < 0 < signs[high]:
            shifted = tuple(signs[i] for i in cell.vertices)
            split.append((cell, shifted, _split(cell.vertices, above, shifted, cut=cuts)))
    q, shift = above.const.denominator, above.const.numerator * dots.scale
    if any(sum(map(mul, dots.coeffs, nums)) * q != shift * den
           for nums, den in cuts.ints[cuts.first:]):
        raise InternalInvariantError("a cut point is off the level")
    return _Clip(above, cuts, split)


def _slice(T: SimplicialCurrent, f: AffineFunction, t, side: str,
           certify: bool = True, clip=None, level=None) -> SliceResult:
    """The slice of T at t on ``side``, from ``clip`` (see :func:`_clip_level`)
    or ``level`` (see :func:`_at_level`) when the caller holds either already."""
    if T.degree < 1:
        raise ParameterError("cannot slice a 0-chain")
    if clip is None:
        clip = _clip_level(T, f, t, level)
    plus = side == "+"
    cuts = clip.cuts
    crossing = [(cell, shifted, pieces[0 if plus else 1]) for cell, shifted, pieces in clip.split]
    sections = _merge(_sections(crossing, plus))
    # every vertex of a section is a cut point (and every cut point is on
    # the level, which the clip checked)
    first = cuts.first
    if any(i < first for cell in sections for i in cell.vertices):
        raise InternalInvariantError("a section has a vertex of T, not a cut point")
    # rank the cut points the merged sections use, on ints: scaled to the
    # lcm of their dens, the points sort as their coordinates do
    used = sorted({i for cell in sections for i in cell.vertices})
    common = math.lcm(*(cuts.ints[i][1] for i in used))
    _, rank = _ranked([tuple(x * (common // den) for x in nums)
                       for nums, den in (cuts.ints[i] for i in used)])
    place = dict(zip(used, rank))
    points, ints = [None] * len(used), [None] * len(used)
    for i, r in place.items():
        points[r] = cuts[i]
        ints[r] = cuts.ints[i]
    ranked = _merge(_Cell(tuple(place[i] for i in cell.vertices), cell.multiplicity)
                    for cell in sections)
    chain = SimplicialCurrent._trusted(T.params, T.degree - 1, _from_cells(points, ranked),
                                       T.quadrature_degree)
    # the chain's table from the cut table: its interned vertices and cells
    # (id order is coordinate order) and its vertices on ints
    chain._table = _Table(chain.simplices, ids=(points, ranked), ints=ints)
    if certify:
        hs = clip.above if plus else f.halfspace(t, "<")
        formal = _formula(crossing, hs, plus, cuts)
        if chain.canonical() != chain:
            raise InternalInvariantError("canonical() is not idempotent on the slice chain")
        if _merge(formal) != sections:
            raise InternalInvariantError("the sections differ from the canonical formula chain")
        # the formula's cells have nonzero multiplicities, so they line up
        # with its simplices, and their corners come off the cut table; it
        # shares the slice chain's framings, so it frames only what differs
        formula = SimplicialCurrent._trusted(chain.params, chain.degree,
                                             _from_cells(cuts, formal), chain.quadrature_degree)
        formula._table = _Table(formula.simplices, corners=[
            tuple(cuts.ints[i] for i in cell.vertices) for cell in formal],
            framed=_framed(chain))
        # both checks above merge on ids; the pairings see coordinates
        _certificate(chain, formula)
    return SliceResult(chain=chain, mass=mass(chain), residual=0.0,
                       level=t, side=side,
                       middle_dimension=(chain.degree == T.params.n))


def _sections(crossing, plus: bool) -> list:
    """The faces of the kept clip pieces that lie on the level, signed.

    ``crossing`` holds, for each simplex the level crosses, its vertex
    ids and multiplicity as a cell, its vertices' values and its kept
    pieces, as (piece, values) pairs on ids.  A piece with
    exactly one off-level vertex i has its face opposite i on the level,
    and the formula takes that face from -d(T|{f>t}) with multiplicity
    -(-1)^i mult, or from d(T|{f<t}) with +(-1)^i mult.  The formula's
    other faces cancel within each simplex: pieces share their interior
    faces, and the clip subdivides a face of the simplex as it clips
    that face alone.  Returns the faces as unmerged cells.
    """
    faces = []
    for cell, _, pieces in crossing:
        mult = cell.multiplicity
        for piece, piece_values in pieces:
            off = [i for i, v in enumerate(piece_values) if v != 0]
            if len(off) == 1:
                i = off[0]
                negate = plus == (i % 2 == 0)
                faces.append(_Cell(piece[:i] + piece[i + 1:], -mult if negate else mult))
    return faces


def _formula(crossing, hs: HalfSpace, plus: bool, cuts: _CutPoints) -> list:
    """The uncancelled defining combination over the crossing simplices.

    (dT)|{f>t} - d(T|{f>t}) for the plus side, d(T|{f<t}) - (dT)|{f<t}
    for the minus side, as cells on the ids of ``cuts``: T|{f>t} (or
    T|{f<t}) is the kept pieces of ``crossing``, each boundary is merged
    cell by cell (see :func:`ruminslice.currents._merged_faces`), and
    (dT)|{f>t} is clipped afresh, with its faces' values looked up from
    ``crossing``.
    """
    value = {}
    for cell, shifted, _ in crossing:
        value.update(zip(cell.vertices, shifted))
    restricted_boundary = []
    for face in _merged_faces(cell for cell, _, _ in crossing):
        kept = _split(face.vertices, hs, tuple(value[i] for i in face.vertices), cut=cuts)[0]
        restricted_boundary.extend(_Cell(piece, face.multiplicity) for piece, _ in kept)
    boundary_of_restricted = _merged_faces(
        _Cell(piece, cell.multiplicity) for cell, _, pieces in crossing for piece, _ in pieces)
    if plus:
        first, second = restricted_boundary, boundary_of_restricted
    else:
        first, second = boundary_of_restricted, restricted_boundary
    return first + [_Cell(cell.vertices, -cell.multiplicity) for cell in second]


def _certificate(chain: SimplicialCurrent, formal: SimplicialCurrent) -> None:
    """Raise :class:`InternalInvariantError` unless ``chain`` and ``formal``
    pair alike with every constant blade form dw_B.

    Each side is one :func:`ruminslice.currents._blade_pairings` call,
    exact and holding no zero, so the two dicts are equal exactly when
    every pairing is; ``chain`` goes first, so its framings are in the
    memo a slice hands ``formal`` before ``formal`` looks there.
    """
    if _blade_pairings(chain) != _blade_pairings(formal):
        raise InternalInvariantError("the slice chain and the formula chain pair differently")


def slice_plus(T: SimplicialCurrent, f: AffineFunction, t,
               certify: bool = True) -> SliceResult:
    """<T,f,t+> at a generic level, with cancellation certificate."""
    return _slice(T, f, exact(t, "level"), "+", certify=certify)


def slice_minus(T: SimplicialCurrent, f: AffineFunction, t,
                certify: bool = True) -> SliceResult:
    """<T,f,t-> at a generic level."""
    return _slice(T, f, exact(t, "level"), "-", certify=certify)


def band_measure(T: SimplicialCurrent, f: AffineFunction, t, h):
    """mu_T({t < f < t + h}), exactly; h > 0."""
    t, width = exact(t, "level"), exact(h, "band width")
    if not width > 0:
        raise ParameterError(f"band width must be positive, got {h}")
    return measure_between(T, f, t, t + width)


def measure_between(T: SimplicialCurrent, f: AffineFunction, lo, hi):
    """mu_T({lo < f < hi}), exactly."""
    lo, hi = exact(lo, "level"), exact(hi, "level")
    return _window_measures(T, f, [lo, hi])[0] if lo < hi else Fraction(0)


class _Spline(NamedTuple):
    """The share F(t) of a simplex's parameter volume where f < t: the cumulative of the
    simplex spline on the sorted ``knots`` f_0..f_k, f at the vertices as ints over ``scale``
    (Curry and Schoenberg 1966), a polynomial between distinct knots kept in ``pieces``."""

    knots: list
    scale: int
    pieces: dict

    def share(self, p: int, q: int) -> tuple:
        """F(p/q) as an integer pair (num, den), den > 0 and not reduced."""
        x, knots = p * self.scale, self.knots
        if not knots[0] * q < x < knots[-1] * q:
            return int(x > knots[0] * q), 1
        coeffs, den = self._piece_at(x, q)
        return _horner(coeffs, x, q), den * q ** (len(coeffs) - 1)

    def density(self, p: int, q: int) -> tuple:
        """F'(p/q) as an integer pair: 0 off (f_0, f_k], from the left on a knot."""
        x, knots = p * self.scale, self.knots
        if not knots[0] * q < x <= knots[-1] * q:
            return 0, 1
        coeffs, den = self._piece_at(x, q)
        slopes = [m * c for m, c in enumerate(coeffs)][1:]
        return self.scale * _horner(slopes, x, q), den * q ** (len(slopes) - 1)

    def _piece_at(self, x: int, q: int) -> tuple:
        """The piece of the knot interval (f_s, f_(s+1)] holding x / q, f_0 < x / q <= f_k."""
        # s + 1 knots lie below x / q: as ints, those below its ceiling
        s = bisect_left(self.knots, -(-x // q)) - 1
        if s not in self.pieces:
            self.pieces[s] = _piece(self.knots, s)
        return self.pieces[s]


def _piece(knots: list, s: int) -> tuple:
    """F = sum c_m x^m / den on (knots[s], knots[s + 1]) as ([c_0..c_k], den), by de
    Boor's triangle F(x; f_i..f_j) = [(x - f_i) F(x; f_i..f_(j-1)) + (f_j - x)
    F(x; f_(i+1)..f_j)] / (f_j - f_i) on int polynomials: 1 for j <= s, 0 for i > s."""
    row = [([int(i <= s)], 1) for i in range(len(knots))]
    for span in range(1, len(knots)):
        next_row = []
        for i, ((ca, da), (cb, db)) in enumerate(zip(row, row[1:])):
            if i <= s < i + span:
                low, high = knots[i], knots[i + span]
                # (x - low) ca db + (high - x) cb da; xa, xb: the coefficients of x ca, x cb
                coeffs = [da * (high * v - xb) - db * (low * u - xa)
                          for u, v, xa, xb in zip(ca + [0], cb + [0], [0] + ca, [0] + cb)]
                den = (high - low) * da * db
                common = math.gcd(den, *coeffs)
                next_row.append(([c // common for c in coeffs], den // common))
            else:
                next_row.append(([int(i + span <= s)] + [0] * span, 1))
        row = next_row
    return row[0]


def _horner(coeffs: list, x: int, q: int) -> int:
    """sum c_m x^m q^(n-1-m) over the n ``coeffs``: the polynomial at x / q times q^(n-1)."""
    total, power = 0, 1
    for c in reversed(coeffs):
        total, power = total * x + c * power, power * q
    return total


def _window_measures(T: SimplicialCurrent, f: AffineFunction, edges) -> tuple:
    """mu_T({e_0 < f < e_last}) and [mu_T({e_i < f < e_(i+1)})] for ascending ``edges``.

    The whole window is one more total of the same pass (the one
    window's own when there is one).  A simplex adds its whole mass to a
    total whose window it lies in.  In a window it crosses, it adds M(S)
    (F(hi) - F(lo)) if it scales (see :func:`_whole`) and the total is
    still exact, else its clip pieces' masses: exact sums do not depend
    on order, so every total is the float or Fraction
    M(restrict_to_set(T, window)) gives.  Each vertex is placed among the
    levels once on ints, and a simplex's windows are read off the places
    of its least and greatest vertex.  F (:class:`_Spline`) and the whole
    masses are kept in T's table, and each total sums its exact terms on
    ints per denominator (see :class:`ruminslice.currents._Sum`).
    """
    levels = [e - f.const for e in edges]
    common = math.lcm(*(level.denominator for level in levels))
    ints = [level.numerator * (common // level.denominator) for level in levels]
    f_at = _dots(T, f)
    dots, dens, scale = f_at.dots, f_at.dens, f_at.scale
    # per vertex id: how many levels are <= its value, and how many are <
    at_most, below = [], []
    for dot, den in zip(dots, dens):
        whole, part = divmod(dot * common, scale * den)
        count = bisect_right(ints, whole)
        at_most.append(count)
        below.append(count if part else bisect_left(ints, whole))
    windows = len(levels) - 1
    totals = [_Sum() for _ in range(windows)]
    whole = totals[0] if windows == 1 else _Sum()
    for index, (cell, low, high) in enumerate(zip(_interned(T)[1], f_at.low, f_at.high)):
        start, stop = at_most[low], below[high]
        if start > windows or stop == 0:
            continue  # the cell lies in {f <= e_0} or in {f >= e_last}
        first, last = max(start - 1, 0), min(stop, windows)
        # (total, i, j): the cell's term in {e_i < f < e_j}
        terms = [(totals[i], i, i + 1) for i in range(first, last)]
        if windows > 1:
            terms.append((whole, 0, windows))
        s = T.simplices[index]
        value, scales = _whole(T, index)
        shares = None
        for total, i, j in terms:
            if start > i and stop <= j:  # the cell lies in [e_i, e_j]
                _add_weighted(total, s.multiplicity, value)
            elif scales and total.exact():
                if shares is None:
                    spline = f_at.spline(index, cell.vertices)
                    shares = [spline.share(p, common) for p in ints[first:last + 1]]
                    # |mult| M(S) as ints, a scaling mass being a Fraction
                    mass_num = abs(s.multiplicity.numerator) * value.numerator
                    mass_den = s.multiplicity.denominator * value.denominator
                # F is 0 at the levels below the cell's first and 1 above its last
                n0, d0 = shares[i - first] if i >= first else (0, 1)
                n1, d1 = shares[j - first] if j <= last else (1, 1)
                total.add_ratio(mass_num * (n1 * d0 - n0 * d1), mass_den * d0 * d1)
            else:
                weight = abs(s.multiplicity)
                planes = [f.halfspace(edges[i], ">"), f.halfspace(edges[j], "<")]
                for piece in restrict_to_set(T.with_simplices([s]), planes).simplices:
                    total.add(weight * _simplex_mass(T.params, piece, T.quadrature_degree))
    return whole.value(), [total.value() for total in totals]


def band_trend(T: SimplicialCurrent, f: AffineFunction, t, h_values):
    """Slice mass against the shrinking band bound.

    Returns rows (h, slice_mass, bound, excess) with excess =
    max(0, mass - bound); requires slice dimension different from n.
    """
    k = T.degree - 1
    if k == T.params.n:
        raise MiddleDimensionError(
            "mass bounds for slices of the middle dimension k = n are an open case"
        )
    t = exact(t, "level")
    h_values = [exact(h, "band width") for h in h_values]
    return _band_rows(T, f, t, h_values, _slice(T, f, t, "+").mass)


def _band_rows(T: SimplicialCurrent, f: AffineFunction, t, h_values, m_slice) -> list:
    """The rows of :func:`band_trend` for a slice of mass ``m_slice`` at t."""
    lip = f.lipschitz_constant()
    rows = []
    for h in h_values:
        if not h > 0:
            raise ParameterError(f"band width must be positive, got {h}")
        bound = lip * _window_measures(T, f, [t, t + h])[0] / h
        excess = max(0.0, float(m_slice) - float(bound))
        rows.append((h, m_slice, bound, excess))
    return rows


# the coarea ratio passes at 1 + this: P5's bound and ``coarea --tol``'s default
COAREA_TOLERANCE = 1e-2


@dataclass(frozen=True)
class CoareaRow:
    t: object
    mass: object
    band_bound: object
    ratio: float


@dataclass(frozen=True)
class CoareaResult:
    rows: tuple
    integral: object
    lip: object
    band_measure: object
    ratio: float


def coarea_sweep(T: SimplicialCurrent, f: AffineFunction, a, b, grid: int) -> CoareaResult:
    """Slice-mass sweep over a uniform grid in (a, b) with the coarea ratio.

    The grid holds the midpoints of ``grid`` equal cells; the integral is
    the trapezoid rule over the grid extended by the two half-cell end
    slabs (on a uniform midpoint grid this is the midpoint rule).  Each
    row compares the slice mass with the band density of its own cell,
    Lip(f) * mu_T(cell) / width, so the row bounds sum to the global
    denominator.  The final ratio integral / (Lip(f) * mu_T({a < f < b}))
    is at most 1 up to grid error.
    A row's mass is the coarea formula's Fraction where exact (:func:`_coarea_mass`), else sliced.
    """
    k = T.degree - 1
    if k == T.params.n:
        raise MiddleDimensionError(
            "coarea sweep at the middle dimension k = n is an open case"
        )
    if grid < 1:
        raise ParameterError("grid must have at least one point")
    a, b = exact(a, "level"), exact(b, "level")
    if not a < b:
        raise ParameterError("need a < b")
    width = (b - a) / grid
    lip = f.lipschitz_constant()
    whole, cells = _window_measures(T, f, [a + width * i for i in range(grid + 1)])
    rows = []
    for i, cell in enumerate(cells):
        t = a + width * Fraction(2 * i + 1, 2)
        level = _at_level(T, f, t)
        m_slice = _coarea_mass(T, level)
        if m_slice is None:
            m_slice = _slice(T, f, t, "+", certify=False, level=level).mass
        bound = lip * cell / width
        rows.append(CoareaRow(t=t, mass=m_slice, band_bound=bound, ratio=_ratio(m_slice, bound)))
    masses = [row.mass for row in rows]
    # trapezoid over the grid points plus the two end slabs
    integral = 0
    for left, right in zip(masses, masses[1:]):
        integral = integral + (left + right) * width / 2
    integral = integral + masses[0] * width / 2 + masses[-1] * width / 2
    # the whole window, not the sum of the cells: an atom on a cell edge
    # counts in (a, b) and in no cell
    denominator = lip * whole
    return CoareaResult(rows=tuple(rows), integral=integral, lip=lip,
                        band_measure=denominator, ratio=_ratio(integral, denominator))


def _coarea_mass(T: SimplicialCurrent, level: tuple):
    """M<T,f,t+> for a horizontal f in closed form, or None where the row must slice.

    T's cells fold by vertex set into net multiplicities once per f.  A crossing
    simplex S of net m adds |m| |V_S -| df| / k! F_S'(t), k = T.degree (see
    :class:`_Spline`) at ``level`` (see :func:`_at_level`): the slice's Fraction when
    every crosser's V_S is constant and |V_S -| df| rational, and no two crossing
    edges meet the level at one point.
    """
    dots, above, signs = level
    if T.degree < 1 or 0 in signs:
        return None
    ints, cells, groups = _integer_points(T), _interned(T)[1], dots.groups
    if not groups:
        member = {tuple(sorted(cell.vertices)): i for i, cell in enumerate(cells)}
        groups.update((member[c.vertices], [abs(c.multiplicity), None]) for c in _merge(cells))
    crossing = [(index, entry) for index, entry in groups.items()
                if signs[dots.low[index]] < 0 < signs[dots.high[index]]]
    for index, entry in crossing:
        if entry[1] is None:
            entry[1] = _contracted_root(T, dots.coeffs, index)
        if not entry[1]:
            return None
    edges = {(u, w) for index, _ in crossing for u in cells[index].vertices
             for w in cells[index].vertices if signs[u] < 0 < signs[w]}
    if len({_integer_cut(ints[u], ints[w], signs[u], signs[w]) for u, w in edges}) < len(edges):
        return None
    p, q = above.const.numerator, above.const.denominator
    over = dots.scale * math.factorial(T.degree)  # |V_S -| df| = root / (den scale), over k!
    total = _Sum()
    for index, (net, (root, den)) in crossing:
        num, slope_den = dots.spline(index, cells[index].vertices).density(p, q)
        total.add_ratio(net.numerator * root * num, net.denominator * den * over * slope_den)
    return total.value()


def _contracted_root(T: SimplicialCurrent, coeffs: tuple, index: int):
    """(root, den), |V_S -| df| = root / (den scale) for simplex ``index`` and f's
    ``coeffs`` over scale, or False unless V_S is constant and root an int."""
    tangent = _tangent_of(T, index)
    if not tangent.constant:
        return False
    contracted = {}
    for blade, c in _numerators(tangent, tangent.points[0]).items():
        for j, axis in enumerate(blade):
            face = blade[:j] + blade[j + 1:]
            contracted[face] = contracted.get(face, 0) + (-1) ** j * coeffs[axis] * c
    square = sum(c * c for c in contracted.values())
    root = math.isqrt(square)
    return root * root == square and (root, tangent.den)


def _ratio(num, den) -> float:
    """num / den as floats: 0.0 for 0/0, inf for a nonzero num over 0."""
    if float(den) != 0:
        return float(num) / float(den)
    return 0.0 if float(num) == 0 else math.inf


# -- the seven-property report ------------------------------------------------


@dataclass(frozen=True)
class PropertyEntry:
    key: str
    status: str  # PASS / FAIL / SKIP
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    entries: tuple

    def passed(self) -> bool:
        return all(e.status != "FAIL" for e in self.entries)

    def lines(self):
        return [f"{e.key} {e.status} {e.detail}" for e in self.entries]


def _point_in_chain(simplices, coords) -> bool:
    """True when ``coords`` lies in one of ``simplices``, by a solve on each."""
    for s in simplices:
        base = s.vertices[0]
        edges = s.edges()
        if not edges:
            if tuple(coords) == base:
                return True
            continue
        rows = [[e[axis] for e in edges] for axis in range(len(base))]
        rhs = [c - b for c, b in zip(coords, base)]
        solution = linalg.solve(rows, rhs)
        if solution is None:
            continue
        if all(lam >= 0 for lam in solution) and sum(solution) <= 1:
            return True
    return False


def property_report(T: SimplicialCurrent, f: AffineFunction, t_samples,
                    h_values=(Fraction(1, 4), Fraction(1, 16), Fraction(1, 256)),
                    sweep=None, properties=None) -> PropertyReport:
    """Check the seven slicing properties on a chain; one entry per key P0..P6.

    ``t_samples`` are the generic levels used for P1, P2, P3, and P4 and
    P6 read the middle one, so they need at least one level; ``sweep``
    is an (a, b, grid) triple for P5 (defaults to the span of f over the
    vertices).  P4/P5 are skipped with a scope note when the slice
    dimension equals n, and raise :class:`MiddleDimensionError` when
    explicitly requested via ``properties``.
    """
    dots = _dots(T, f)
    points, cells = _interned(T)
    t_samples = [exact(t, "level") for t in t_samples]
    h_values = [exact(h, "band width") for h in h_values]
    if sweep is not None:
        a, b, grid = sweep
        sweep = (exact(a, "level"), exact(b, "level"), grid)
    k = T.degree - 1
    n = T.params.n
    middle = k == n
    wanted = set(properties) if properties is not None else None
    if middle and wanted and wanted & {4, 5}:
        raise MiddleDimensionError(
            "properties (4) and (5) at the middle dimension k = n are an open case"
        )

    def requested(index):
        return wanted is None or index in wanted

    if not middle and (requested(4) or requested(5)):
        # P4 and P5 need the closed-form constant: refuse before slicing
        f.lipschitz_constant()
    if not t_samples and (requested(6) or (requested(4) and not middle)):
        raise ParameterError("properties (4) and (6) need at least one level in t_samples")
    if sweep is None and not points and requested(5) and not middle:
        raise ParameterError("property (5) on an empty chain needs an explicit sweep")

    entries = []

    if requested(0):
        # f is constant on a cell of T or of dT: dT's cells on T's ids
        faces = _merged_faces(cells) if T.degree >= 1 else []
        rank = dots.rank
        atoms = sorted({dots.value(cell.vertices[0]) + f.const for cell in cells + faces
                        if len({rank[i] for i in cell.vertices}) == 1})
        shown = "{" + ", ".join(str(a) for a in atoms) + "}"
        entries.append(PropertyEntry(
            "P0", "PASS",
            f"finite atom set of (mu_T + mu_dT) o f^-1: {len(atoms)} level(s) {shown}"))

    plus_results, clips = {}, {}
    if requested(1) or requested(2) or requested(3) or requested(6):
        for t in t_samples:
            # P1's minus slice reads the plus slice's clip: each level clips once
            clip = clips[t] = _clip_level(T, f, t) if requested(1) else None
            plus_results[t] = _slice(T, f, t, "+", clip=clip)

    if requested(1):
        bad = [t for t in t_samples
               if plus_results[t].chain
               != _slice(T, f, t, "-", clip=clips[t]).chain]
        entries.append(PropertyEntry(
            "P1", "FAIL" if bad else "PASS",
            f"plus/minus slices equal at {len(t_samples) - len(bad)}/{len(t_samples)} generic levels"
            + (f"; mismatches at {bad}" if bad else "")))

    if requested(2):
        bad = []
        for t, result in plus_results.items():
            # t is generic: only a simplex whose f-range holds t strictly meets f^-1(t)
            signs = dots.signs(t - f.const)
            crossing = [s for s, low, high in zip(T.simplices, dots.low, dots.high)
                        if signs[low] < 0 < signs[high]]
            for v in dict.fromkeys(v for s in result.chain.simplices for v in s.vertices):
                if f(v) != t or not _point_in_chain(crossing, v):
                    bad.append((t, v))
        entries.append(PropertyEntry(
            "P2", "FAIL" if bad else "PASS",
            "slice support inside f^-1(t) and spt T at every vertex"
            + (f"; violations {bad[:3]}" if bad else "")))

    if requested(3):
        if T.degree < 2:
            entries.append(PropertyEntry(
                "P3", "SKIP", "slice is a 0-chain; boundary undefined"))
        else:
            bdry = boundary(T)
            bad = []
            for t, result in plus_results.items():
                left = boundary(result.chain).canonical()
                right = (-_slice(bdry, f, t, "+").chain).canonical()
                if left != right:
                    bad.append(t)
            entries.append(PropertyEntry(
                "P3", "FAIL" if bad else "PASS",
                "boundary anticommutes with slicing, exactly"
                + (f"; failures at {bad}" if bad else "")))

    if requested(4):
        if middle:
            entries.append(PropertyEntry(
                "P4", "SKIP",
                "k = n: mass bound outside scope (open middle-dimension case)"))
        else:
            t = t_samples[len(t_samples) // 2]
            result = plus_results.get(t) or _slice(T, f, t, "+")
            rows = _band_rows(T, f, t, h_values, result.mass)
            worst = max(row[3] for row in rows)
            final_excess = rows[-1][3]
            status = "PASS" if final_excess <= 1e-3 else "FAIL"
            trend = ", ".join(f"h={float(h):g}: excess={exc:.3e}" for h, _, _, exc in rows)
            entries.append(PropertyEntry(
                "P4", status,
                f"band mass bound at t={t}: {trend} (worst {worst:.3e})"))

    if requested(5):
        if middle:
            entries.append(PropertyEntry(
                "P5", "SKIP",
                "k = n: coarea sweep outside scope (open middle-dimension case)"))
        else:
            if sweep is None:
                rank = dots.rank
                sweep = (dots.value(rank.index(0)) + f.const,
                         dots.value(rank.index(max(rank))) + f.const, 50)
            a, b, grid = sweep
            result = coarea_sweep(T, f, a, b, grid)
            status = "PASS" if result.ratio <= 1 + COAREA_TOLERANCE else "FAIL"
            entries.append(PropertyEntry(
                "P5", status,
                f"coarea ratio {result.ratio:.6f} over ({float(a):g}, {float(b):g}), grid {grid}"))

    if requested(6):
        t = t_samples[len(t_samples) // 2]
        result = plus_results.get(t) or _slice(T, f, t, "+")
        m_slice = float(result.mass)
        if result.chain.degree >= 1:
            m_bdry = float(mass(boundary(result.chain)))
        else:
            m_bdry = 0.0
        finite = math.isfinite(m_slice) and math.isfinite(m_bdry)
        entries.append(PropertyEntry(
            "P6", "PASS" if finite else "FAIL",
            f"M(slice)={m_slice:.6g}, M(boundary slice)={m_bdry:.6g}, both finite"))

    return PropertyReport(tuple(entries))

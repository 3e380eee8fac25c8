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
one ``canonical()`` pass merges the faces.  A slice costs in the
simplices it cuts, not in the size of T.  f is evaluated once per
vertex of T, and each simplex's range of f is kept with it.  A coarea
sweep shares both across all its levels and cells: a cell skips the
simplices it misses, takes whole the ones inside it, clips the others
only by the planes that cut them, and the whole mass of each simplex is
computed at most once per sweep.

A certified slice also builds the formula, from the same clip pieces,
as the witness of the cancellation.  It checks that the slice chain is
a fixed point of ``canonical()`` and that it equals the formula's
canonical chain, and compares the pairings of the two with every
constant blade form dw_B.  Pairing is linear in simplices and
alternating in vertex order, and every blade coefficient of the tangent
is affine in the point, so a k-simplex pairs with dw_B as
mult * V_B(centroid) / k!: one framing of the simplex's coordinate
k-vector per simplex of either chain.  The residual is exactly 0.0
whenever the cancellation holds, float input included.

Mass bounds and the coarea sweep require the slice dimension k to differ
from n; requests at k = n raise :class:`MiddleDimensionError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .clipping import HalfSpace, _split, exact
from .currents import (
    Simplex,
    SimplicialCurrent,
    _blade_pairings,
    _clipped_measure,
    boundary,
    mass,
    restrict_to_set,
    sqrt_exact_or_float,
)
from .errors import (
    DegenerateLevelError,
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


def gamma_h_eval(s, t, h):
    """The clamped ramp (|s-t| - |s-(t+h)| + h) / (2h); h > 0.

    Equals 0 for s <= t, (s-t)/h on (t, t+h), and 1 for s >= t+h.
    """
    if not h > 0:
        raise ParameterError(f"band width must be positive, got {h}")
    return (abs(s - t) - abs(s - (t + h)) + h) / (2 * h)


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
    """A computed slice: the chain, its mass, and a cancellation residual.

    ``residual`` is the largest discrepancy, over the constant blade
    forms dw_B, between the pairings of the canonical slice chain and of
    the uncancelled defining combination.  Every chain is exact (floats
    are converted exactly on the way in), so it is exactly 0.0; a nonzero
    value would mean ``canonical()`` lost or altered a simplex.
    Uncertified slices report 0.0.  ``middle_dimension`` flags
    slices of dimension k = n, which the mass-bound reports exclude.
    """

    chain: SimplicialCurrent
    mass: object
    residual: float
    level: object
    side: str
    middle_dimension: bool


class _Values:
    """coeffs . v at the vertices of a chain, computed once per (chain, f).

    A level's half-space value at v is this minus the half-space
    constant, the same arithmetic as :meth:`HalfSpace.value`; f(v) is
    this plus f.const.  ``table`` maps the vertices, in sorted order, to
    it; ``dots`` holds it per simplex in vertex order, and ``ranges`` the
    (min, max) of each simplex's ``dots``.
    """

    __slots__ = ("table", "dots", "ranges")

    def __init__(self, T: SimplicialCurrent, f: AffineFunction):
        self.table = {v: sum(a * b for a, b in zip(f.coeffs, v)) for v in sorted(T.vertices())}
        self.dots = [tuple(self.table[v] for v in s.vertices) for s in T.simplices]
        self.ranges = [(min(d), max(d)) for d in self.dots]


def _check_generic_level(table: dict, f: AffineFunction, t):
    for v, dot in table.items():
        if dot + f.const == t:
            shown = "(" + ", ".join(str(c) for c in v) + ")"
            raise DegenerateLevelError(
                f"level {t} hits the vertex {shown}; slice at a nearby generic level instead"
            )


def _slice(T: SimplicialCurrent, f: AffineFunction, t, side: str,
           certify: bool = True, values=None) -> SliceResult:
    if T.degree < 1:
        raise ParameterError("cannot slice a 0-chain")
    if values is None:
        values = _Values(T, f)
    _check_generic_level(values.table, f, t)
    plus = side == "+"
    hs = f.halfspace(t, ">" if plus else "<")
    level = hs.const
    # a generic level misses every vertex, so it meets exactly the
    # simplices with vertices on both sides of it
    crossing = [(s, _split(s.vertices, hs, tuple(d - level for d in dots))[0])
                for s, dots, (least, most) in zip(T.simplices, values.dots, values.ranges)
                if least < level < most]
    chain = SimplicialCurrent(T.params, T.degree - 1, _sections(crossing, plus),
                              T.quadrature_degree).canonical()
    _check_on_level(chain, f, t)
    residual = 0.0
    if certify:
        formal = _formula(T, hs, crossing, plus)
        if chain.canonical() != chain:
            raise InternalInvariantError("canonical() is not idempotent on the slice chain")
        if formal.canonical() != chain:
            raise InternalInvariantError("the sections differ from the canonical formula chain")
        residual = _certificate(chain, formal)
    return SliceResult(chain=chain, mass=mass(chain), residual=residual,
                       level=t, side=side,
                       middle_dimension=(chain.degree == T.params.n))


def _sections(crossing, plus: bool) -> list:
    """The faces of the kept clip pieces that lie on the level, signed.

    ``crossing`` pairs each simplex the level crosses with its kept
    pieces, as (piece, values, share) triples.  A piece with exactly one
    off-level vertex i has its face opposite i on the level, and the
    formula takes that face from -d(T|{f>t}) with multiplicity
    -(-1)^i mult, or from d(T|{f<t}) with +(-1)^i mult.  The formula's
    other faces cancel within each simplex: pieces share their interior
    faces, and the clip subdivides a face of the simplex as it clips
    that face alone.
    """
    faces = []
    for s, pieces in crossing:
        for piece, piece_values, _ in pieces:
            off = [i for i, v in enumerate(piece_values) if v != 0]
            if len(off) == 1:
                i = off[0]
                negate = plus == (i % 2 == 0)
                faces.append(Simplex._trusted(piece[:i] + piece[i + 1:],
                                              -s.multiplicity if negate else s.multiplicity))
    return faces


def _formula(T: SimplicialCurrent, hs: HalfSpace, crossing, plus: bool) -> SimplicialCurrent:
    """The uncancelled defining combination over the crossing simplices.

    (dT)|{f>t} - d(T|{f>t}) for the plus side, d(T|{f<t}) - (dT)|{f<t}
    for the minus side, with T|{f>t} (or T|{f<t}) the kept pieces of
    ``crossing`` and (dT)|{f>t} clipped afresh.
    """
    cut = T.with_simplices([s for s, _ in crossing])
    restricted_boundary = restrict_to_set(boundary(cut), [hs])
    boundary_of_restricted = boundary(cut.with_simplices(
        Simplex._trusted(piece, s.multiplicity) for s, pieces in crossing for piece, _, _ in pieces))
    if plus:
        return restricted_boundary - boundary_of_restricted
    return boundary_of_restricted - restricted_boundary


def _certificate(chain: SimplicialCurrent, formal: SimplicialCurrent) -> float:
    """max over blades B of |chain(dw_B) - formal(dw_B)|, as a float.

    The value is exactly 0.0 when ``chain`` is the canonical form of
    ``formal``.
    """
    direct = _blade_pairings(chain)
    via_formula = _blade_pairings(formal)
    return max((abs(float(direct.get(b, 0) - via_formula.get(b, 0)))
                for b in direct.keys() | via_formula.keys()), default=0.0)


def _check_on_level(chain: SimplicialCurrent, f: AffineFunction, t):
    for s in chain.simplices:
        for v in s.vertices:
            if f(v) != t:
                raise InternalInvariantError(
                    f"off-level face survived cancellation at {v}"
                )


def slice_plus(T: SimplicialCurrent, f: AffineFunction, t,
               certify: bool = True) -> SliceResult:
    """<T,f,t+> at a generic level, with cancellation certificate."""
    return _slice(T, f, exact(t, "level"), "+", certify=certify)


def slice_minus(T: SimplicialCurrent, f: AffineFunction, t,
                certify: bool = True) -> SliceResult:
    """<T,f,t-> at a generic level."""
    return _slice(T, f, exact(t, "level"), "-", certify=certify)


def band_measure(T: SimplicialCurrent, f: AffineFunction, t, h):
    """mu_T({t < f < t + h}), by exact clipping; h > 0."""
    t, width = exact(t, "level"), exact(h, "band width")
    if not width > 0:
        raise ParameterError(f"band width must be positive, got {h}")
    return measure_between(T, f, t, t + width)


def measure_between(T: SimplicialCurrent, f: AffineFunction, lo, hi):
    """mu_T({lo < f < hi}), by exact clipping."""
    return _measure_between(T, f, exact(lo, "level"), exact(hi, "level"), _Values(T, f), {})


def _measure_between(T: SimplicialCurrent, f: AffineFunction, lo, hi, values: _Values,
                     whole: dict):
    """mu_T({lo < f < hi}), each simplex classified by its range of f.

    A simplex with no vertex above lo or none below hi adds nothing (a
    face in a plane included, as the open half-spaces drop it), one with
    every vertex in [lo, hi] adds its whole mass, and any other is
    clipped by the planes its range crosses.  The pieces and the order
    of the terms are those of clipping every simplex by both planes.
    """
    below, above = f.halfspace(lo, ">"), f.halfspace(hi, "<")
    low, high = below.const, above.const
    cuts = []
    for index, (dots, (least, most)) in enumerate(zip(values.dots, values.ranges)):
        if most <= low or least >= high:
            continue
        if least < low:
            planes = (below, above) if most > high else (below,)
            cuts.append((index, planes, tuple(d - low for d in dots)))
        elif most > high:
            cuts.append((index, (above,), tuple(d - high for d in dots)))
        else:
            cuts.append((index, (), None))
    return _clipped_measure(T, cuts, whole)


def band_bound(T: SimplicialCurrent, f: AffineFunction, t, h):
    """Lip(f) * mu_T({t < f < t+h}) / h, the mass bound for <T,f,t+>."""
    h = exact(h, "band width")
    lip = f.lipschitz_constant()
    return lip * band_measure(T, f, t, h) / h


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
    return _band_rows(T, f, t, h_values, slice_plus(T, f, t).mass)


def _band_rows(T: SimplicialCurrent, f: AffineFunction, t, h_values, m_slice) -> list:
    """The rows of :func:`band_trend` for a slice of mass ``m_slice`` at t."""
    rows = []
    for h in h_values:
        bound = band_bound(T, f, t, h)
        excess = max(0.0, float(m_slice) - float(bound))
        rows.append((h, m_slice, bound, excess))
    return rows


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
    # f at the vertices, shared by every slice and cell of this sweep, and
    # the whole masses of the simplices, shared by its cells
    values = _Values(T, f)
    whole = {}
    rows = []
    masses = []
    for i in range(grid):
        t = a + width * Fraction(2 * i + 1, 2)
        m_slice = _slice(T, f, t, "+", certify=False, values=values).mass
        lo = t - width / 2
        cell = _measure_between(T, f, lo, lo + width, values, whole)
        bound = lip * cell / width
        ratio = float(m_slice) / float(bound) if float(bound) != 0 else (
            0.0 if float(m_slice) == 0 else math.inf
        )
        rows.append(CoareaRow(t=t, mass=m_slice, band_bound=bound, ratio=ratio))
        masses.append(m_slice)
    # trapezoid over the grid points plus the two end slabs
    integral = 0
    for left, right in zip(masses, masses[1:]):
        integral = integral + (left + right) * width / 2
    integral = integral + masses[0] * width / 2 + masses[-1] * width / 2
    denominator = lip * _measure_between(T, f, a, b, values, whole)
    ratio = float(integral) / float(denominator) if float(denominator) != 0 else (
        0.0 if float(integral) == 0 else math.inf
    )
    return CoareaResult(rows=tuple(rows), integral=integral, lip=lip,
                        band_measure=denominator, ratio=ratio)


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


def _atom_levels(T: SimplicialCurrent, f: AffineFunction):
    """Levels where f is constant on a simplex of T or of dT."""
    atoms = set()
    chains = [T]
    if T.degree >= 1:
        chains.append(boundary(T))
    for chain in chains:
        for s in chain.simplices:
            values = {f(v) for v in s.vertices}
            if len(values) == 1:
                atoms.add(next(iter(values)))
    return sorted(atoms)


def _point_in_chain(T: SimplicialCurrent, coords) -> bool:
    for s in T.simplices:
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
        residue = [sum(r * s_ for r, s_ in zip(row, solution)) - b
                   for row, b in zip(rows, rhs)]
        if any(v != 0 for v in residue):
            continue
        if all(lam >= 0 for lam in solution) and sum(solution) <= 1:
            return True
    return False


def property_report(T: SimplicialCurrent, f: AffineFunction, t_samples,
                    h_values=(Fraction(1, 4), Fraction(1, 16), Fraction(1, 256)),
                    sweep=None, ratio_tolerance=1e-2,
                    properties=None) -> PropertyReport:
    """Check the seven slicing properties on a chain; one entry per key P0..P6.

    ``t_samples`` are the generic levels used for P1, P2, P3; ``sweep``
    is an (a, b, grid) triple for P5 (defaults to the span of f over the
    vertices).  P4/P5 are skipped with a scope note when the slice
    dimension equals n, and raise :class:`MiddleDimensionError` when
    explicitly requested via ``properties``.
    """
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

    entries = []

    if requested(0):
        atoms = _atom_levels(T, f)
        shown = "{" + ", ".join(str(a) for a in atoms) + "}"
        entries.append(PropertyEntry(
            "P0", "PASS",
            f"finite atom set of (mu_T + mu_dT) o f^-1: {len(atoms)} level(s) {shown}"))

    plus_results = {}
    if requested(1) or requested(2) or requested(3) or requested(6):
        for t in t_samples:
            plus_results[t] = slice_plus(T, f, t)

    if requested(1):
        bad = [t for t in t_samples
               if plus_results[t].chain != slice_minus(T, f, t).chain]
        entries.append(PropertyEntry(
            "P1", "FAIL" if bad else "PASS",
            f"plus/minus slices equal at {len(t_samples) - len(bad)}/{len(t_samples)} generic levels"
            + (f"; mismatches at {bad}" if bad else "")))

    if requested(2):
        bad = []
        for t, result in plus_results.items():
            for s in result.chain.simplices:
                for v in s.vertices:
                    if f(v) != t or not _point_in_chain(T, v):
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
                right = (-slice_plus(bdry, f, t).chain).canonical()
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
            result = plus_results.get(t) or slice_plus(T, f, t)
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
                values = sorted(f(v) for v in T.vertices())
                sweep = (values[0], values[-1], 50)
            a, b, grid = sweep
            result = coarea_sweep(T, f, a, b, grid)
            status = "PASS" if result.ratio <= 1 + ratio_tolerance else "FAIL"
            entries.append(PropertyEntry(
                "P5", status,
                f"coarea ratio {result.ratio:.6f} over ({float(a):g}, {float(b):g}), grid {grid}"))

    if requested(6):
        t = t_samples[len(t_samples) // 2]
        result = plus_results.get(t) or slice_plus(T, f, t)
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

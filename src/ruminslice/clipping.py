"""Exact polyhedral clipping of simplicial chains by affine half-spaces.

A half-space is {p : a . p OP c} with OP one of >, >=, <, <=.  Clipping
subdivides each simplex along the bounding hyperplane by repeatedly
splitting a crossing edge at its exact intersection point.  The crossing
edge is always the one whose (sorted) endpoint pair is lexicographically
smallest, which makes the induced subdivision of any shared face
identical on both sides; combinatorial boundary cancellation therefore
survives clipping.

The caller passes the value a . p - c of each input vertex, or a value
of the same sign, and the split carries it down the recursion; a cut
point's value is exactly 0.
:meth:`HalfSpace.sides` is the one rule that turns values into sides.

The kernel works on vertex labels: coordinate tuples, or integer
vertex ids numbered in coordinate order, with a function that names the
cut point of an edge (see ``_split``).  Only vertices off the plane end
a crossing edge, so ids split the same edges as coordinates do.

``_split`` is the one clipping routine: slices call it, and so does
``restrict_to_set``, which the ramp weight's pre-split and the clip path
of the level-window measure go through (see :mod:`ruminslice.slicing`).

Geometry is exact only.  Every finite float is a dyadic rational, so the
public constructors (:class:`HalfSpace` here, ``Simplex``,
``AffineFunction``, ``GammaWeight`` and the level arguments of
:mod:`ruminslice.slicing`) convert their numbers with :func:`exact`;
sides are exact signs, and a cut point lies strictly inside its edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

_OPS = (">", ">=", "<", "<=")


def exact(value, what: str = "value") -> Fraction:
    """``value`` as a Fraction: ints and Fractions as they are, finite
    floats exactly (every finite float is a dyadic rational).

    NaN, infinities and other types raise :class:`ParameterError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        try:
            return Fraction(value)
        except (ValueError, OverflowError) as exc:
            raise ParameterError(f"{what} must be finite, got {value!r}") from exc
    raise ParameterError(f"{what} must be an int, Fraction or finite float, "
                         f"got {type(value).__name__}")


@dataclass(frozen=True)
class HalfSpace:
    """Affine half-space {p : coeffs . p OP const} in coordinates."""

    coeffs: tuple
    const: object
    op: str = ">"

    def __post_init__(self):
        if self.op not in _OPS:
            raise ParameterError(f"half-space op must be one of {_OPS}, got {self.op!r}")
        object.__setattr__(self, "coeffs",
                           tuple(exact(c, "half-space coefficient") for c in self.coeffs))
        object.__setattr__(self, "const", exact(self.const, "half-space constant"))

    def value(self, coords):
        return sum(a * b for a, b in zip(self.coeffs, coords)) - self.const

    def sides(self, values) -> tuple:
        """Side of the hyperplane for each value of :meth:`value`: 1, -1 or 0."""
        return tuple((v > 0) - (v < 0) for v in values)

    def keeps_boundary(self) -> bool:
        return self.op in (">=", "<=")

    def keeps_positive(self) -> bool:
        return self.op in (">", ">=")

    def complement(self) -> "HalfSpace":
        flip = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}
        return HalfSpace(self.coeffs, self.const, flip[self.op])


def _edge_key(a, b):
    # the edge's endpoint labels in order: lexicographic on coordinates
    return (a, b) if a <= b else (b, a)


def _cut_point(a, b, va, vb):
    # exact: the same point whichever endpoint it is interpolated from
    lam = -va / (vb - va)
    return tuple(x + lam * (y - x) for x, y in zip(a, b))


def _split(simplex: tuple, halfspace: HalfSpace, values: tuple, cut=_cut_point):
    """Split one simplex along the hyperplane of ``halfspace``.

    Returns (kept, dropped): lists of (piece, values) pairs for the
    pieces in the closed half-space and in its closed complement.
    Pieces entirely inside the hyperplane are kept iff the half-space is
    closed.

    ``simplex`` holds vertex labels: coordinate tuples, or any labels
    whose order is the lexicographic order of their points on every
    vertex off the plane, with ``cut(a, b, va, vb)`` the label of the
    point where the plane meets the edge from a to b, whose values are
    va and vb (:func:`_cut_point` for coordinates).  The crossing edge
    split first is the one whose sorted label pair is smallest; only
    vertices off the plane end a crossing edge, so any such labelling
    splits the same edges in the same order.

    ``values`` are the simplex's :meth:`HalfSpace.value`, or any values
    with the same signs that ``cut`` reads (a slice passes ints, see
    :meth:`ruminslice.slicing._Dots.signs`), and are carried to each
    piece.
    """
    want_positive = halfspace.keeps_positive()
    kept, dropped = [], []
    stack = [(simplex, values, halfspace.sides(values))]
    while stack:
        simplex, values, signs = stack.pop()
        has_pos = 1 in signs
        has_neg = -1 in signs
        if not (has_pos and has_neg):
            on_plane = not has_pos and not has_neg
            inside = has_pos if want_positive else has_neg
            keep = inside or (on_plane and halfspace.keeps_boundary())
            (kept if keep else dropped).append((simplex, values))
            continue
        crossing = [
            (i, j)
            for i in range(len(simplex))
            for j in range(i + 1, len(simplex))
            if signs[i] * signs[j] < 0
        ]
        i, j = min(crossing, key=lambda e: _edge_key(simplex[e[0]], simplex[e[1]]))
        point = cut(simplex[i], simplex[j], values[i], values[j])
        # the cut lies on the plane: value 0 and side 0, never recomputed
        for index in (i, j):
            piece = list(simplex)
            piece[index] = point
            piece_values = list(values)
            piece_values[index] = 0
            piece_signs = list(signs)
            piece_signs[index] = 0
            stack.append((tuple(piece), tuple(piece_values), tuple(piece_signs)))
    return kept, dropped

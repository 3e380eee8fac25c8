"""Exact polyhedral clipping of simplicial chains by affine half-spaces.

A half-space is {p : a . p OP c} with OP one of >, >=, <, <=.  Clipping
subdivides each simplex along the bounding hyperplane by repeatedly
splitting a crossing edge at its exact intersection point.  The crossing
edge is always the one whose (sorted) endpoint pair is lexicographically
smallest, which makes the induced subdivision of any shared face
identical on both sides; combinatorial boundary cancellation therefore
survives clipping.

The value a . p - c of each input vertex is computed once (or passed in
by a caller that already has it) and carried down the recursion; a cut
point's value is exactly 0.  :meth:`HalfSpace.sides` is the one rule
that turns values into sides.

The split also records each piece's share of the parameter volume of
the simplex it was cut from.  The cut point (1 - lam) v_i + lam v_j
replaces v_i in one piece and v_j in the other, and those pieces are
the fractions 1 - lam and lam of the simplex, so shares multiply down
the recursion.  :func:`split_simplex` returns the pieces alone; the
library's clipping, measures and slices use the kernel ``_split``,
which keeps each piece's values and share with it.

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
    # exact lexicographic order on endpoint coordinate tuples
    return (a, b) if tuple(a) <= tuple(b) else (b, a)


def _cut_point(a, b, va, vb):
    # exact: the same point whichever endpoint it is interpolated from
    lam = -va / (vb - va)
    return tuple(x + lam * (y - x) for x, y in zip(a, b))


def split_simplex(vertices, halfspace: HalfSpace, values=None):
    """Split one simplex along the hyperplane of ``halfspace``.

    Returns (kept, dropped): lists of vertex tuples lying in the closed
    half-space and its closed complement.  Pieces entirely inside the
    hyperplane go to ``kept`` iff the half-space is closed.  ``values``
    are the vertices' :meth:`HalfSpace.value`, when the caller has them.
    Coordinates are exact (``Simplex`` converts floats on the way in).
    """
    simplex = tuple(vertices)
    if values is None:
        values = [halfspace.value(v) for v in simplex]
    kept, dropped = _split(simplex, halfspace, tuple(values))
    return [piece for piece, _, _ in kept], [piece for piece, _, _ in dropped]


def _split(simplex: tuple, halfspace: HalfSpace, values: tuple, share=1):
    """:func:`split_simplex` on (piece, values, share) triples.

    ``values`` are the simplex's :meth:`HalfSpace.value` and are carried
    to each piece.  ``share`` is the simplex's share of the parameter
    volume of the simplex it was cut from.  The cut point (1 - lam) v_i
    + lam v_j replaces v_i in one piece and v_j in the other; the piece
    without v_i is the fraction 1 - lam of the simplex (the cut's
    barycentric weight of v_i), the other the fraction lam.
    """
    want_positive = halfspace.keeps_positive()
    kept, dropped = [], []
    stack = [(simplex, values, halfspace.sides(values), share)]
    while stack:
        simplex, values, signs, share = stack.pop()
        has_pos = 1 in signs
        has_neg = -1 in signs
        if not (has_pos and has_neg):
            on_plane = not has_pos and not has_neg
            inside = has_pos if want_positive else has_neg
            keep = inside or (on_plane and halfspace.keeps_boundary())
            (kept if keep else dropped).append((simplex, values, share))
            continue
        crossing = [
            (i, j)
            for i in range(len(simplex))
            for j in range(i + 1, len(simplex))
            if signs[i] * signs[j] < 0
        ]
        i, j = min(crossing, key=lambda e: _edge_key(simplex[e[0]], simplex[e[1]]))
        cut = _cut_point(simplex[i], simplex[j], values[i], values[j])
        lam = values[i] / (values[i] - values[j])
        # the cut lies on the plane: value 0 and side 0, never recomputed
        for index, part in ((i, 1 - lam), (j, lam)):
            piece = list(simplex)
            piece[index] = cut
            piece_values = list(values)
            piece_values[index] = 0
            piece_signs = list(signs)
            piece_signs[index] = 0
            stack.append((tuple(piece), tuple(piece_values), tuple(piece_signs),
                          share * part))
    return kept, dropped

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
that turns values into sides, for the split and for callers that
classify whole simplices before clipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

_OPS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class HalfSpace:
    """Affine half-space {p : coeffs . p OP const} in coordinates."""

    coeffs: tuple
    const: object
    op: str = ">"

    def __post_init__(self):
        if self.op not in _OPS:
            raise ParameterError(f"half-space op must be one of {_OPS}, got {self.op!r}")
        # ints would fall into float division later; promote them now
        object.__setattr__(
            self, "coeffs",
            tuple(Fraction(c) if isinstance(c, int) else c for c in self.coeffs),
        )
        if isinstance(self.const, int):
            object.__setattr__(self, "const", Fraction(self.const))

    def value(self, coords):
        return sum(a * b for a, b in zip(self.coeffs, coords)) - self.const

    def sides(self, values) -> tuple:
        """Side of the hyperplane for each value of :meth:`value`: 1, -1 or 0.

        Exact values are on the plane only at 0; float values within
        :meth:`float_tolerance` of 0 are on it.
        """
        tol = None
        out = []
        for v in values:
            if isinstance(v, float):
                if tol is None:
                    tol = self.float_tolerance()
                if abs(v) <= tol:
                    out.append(0)
                    continue
            elif v == 0:
                out.append(0)
                continue
            out.append(1 if v > 0 else -1)
        return tuple(out)

    def float_tolerance(self) -> float:
        """On-plane tolerance for float vertices; depends only on the
        half-space so adjacent simplices classify shared edges alike."""
        return 1e-12 * (1.0 + abs(float(self.const))
                        + sum(abs(float(c)) for c in self.coeffs))

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
    # interpolate from the canonically smaller endpoint so the float
    # result is bitwise identical no matter which simplex cuts the edge
    if tuple(b) < tuple(a):
        a, b, va, vb = b, a, vb, va
    lam = -va / (vb - va)
    return tuple(x + lam * (y - x) for x, y in zip(a, b))


def split_simplex(vertices, halfspace: HalfSpace, values=None):
    """Split one simplex along the hyperplane of ``halfspace``.

    Returns (kept, dropped): lists of vertex tuples lying in the closed
    half-space and its closed complement.  Pieces entirely inside the
    hyperplane go to ``kept`` iff the half-space is closed.  ``values``
    are the vertices' :meth:`HalfSpace.value`, when the caller has them.
    """
    simplex = tuple(vertices)
    if values is None:
        values = [halfspace.value(v) for v in simplex]
    want_positive = halfspace.keeps_positive()
    kept, dropped = [], []
    stack = [(simplex, tuple(values), halfspace.sides(values))]
    while stack:
        simplex, values, signs = stack.pop()
        has_pos = 1 in signs
        has_neg = -1 in signs
        if not (has_pos and has_neg):
            on_plane = not has_pos and not has_neg
            inside = has_pos if want_positive else has_neg
            if inside:
                kept.append(simplex)
            elif on_plane:
                (kept if halfspace.keeps_boundary() else dropped).append(simplex)
            else:
                dropped.append(simplex)
            continue
        crossing = [
            (i, j)
            for i in range(len(simplex))
            for j in range(i + 1, len(simplex))
            if signs[i] * signs[j] < 0
        ]
        i, j = min(crossing, key=lambda e: _edge_key(simplex[e[0]], simplex[e[1]]))
        cut = _cut_point(simplex[i], simplex[j], values[i], values[j])
        # the cut lies on the plane: value 0 and side 0, never recomputed
        # (a float recomputation could leave the tolerance and recurse forever)
        for index in (i, j):
            piece = list(simplex)
            piece[index] = cut
            piece_values = list(values)
            piece_values[index] = 0
            piece_signs = list(signs)
            piece_signs[index] = 0
            stack.append((tuple(piece), tuple(piece_values), tuple(piece_signs)))
    return kept, dropped

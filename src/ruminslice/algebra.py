"""Constant-coefficient exterior algebra over the left-invariant frame.

Frame indices run 0..2n in the order X_1..X_n, Y_1..Y_n, T; the dual
coframe is dx_1..dx_n, dy_1..dy_n, theta.  A blade is a strictly
increasing tuple of frame indices.  :class:`MultiVector` (frame side) and
:class:`Covector` (coframe side) share the same sparse blade/coefficient
representation; duality pairs equal blades to 1.

The frame is orthonormal, so the mass norm of a multivector is the l2
norm of its blade coefficients, and comass is estimated by sampling unit
simple vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import GradeMismatchError, ParameterError
from .linalg import det

THETA_OFFSET = 1  # theta / T is always the last frame index, dim - 1


def all_blades(dim: int, grade: int):
    """All sorted blades of the given grade, in lexicographic order."""
    return combinations(range(dim), grade)


def sort_indices(indices):
    """Sort a repetition-free index sequence; return (sign, blade) or None.

    ``None`` signals a repeated index (the wedge vanishes).  The sign is
    the parity of the sorting permutation.  Any comparable, hashable
    items sort the same way, such as a simplex's integer corners.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # insertion sort; counts transpositions exactly
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(idx)


def wedge_blades(left, right):
    """Concatenate-and-sort two blades; ``None`` if they overlap."""
    return sort_indices(tuple(left) + tuple(right))


class _GradedElement:
    """Shared sparse container for multivectors and covectors."""

    __slots__ = ("dim", "grade", "coeffs")

    def __init__(self, dim: int, grade: int, coeffs=None):
        if not 0 <= grade <= dim:
            raise ParameterError(f"grade {grade} out of range for dimension {dim}")
        self.dim = dim
        self.grade = grade
        clean = {}
        if coeffs:
            for blade, coef in coeffs.items():
                if coef == 0:
                    continue
                blade = tuple(blade)
                if len(blade) != grade or list(blade) != sorted(set(blade)):
                    raise ParameterError(f"bad blade {blade!r} for grade {grade}")
                if blade and (blade[0] < 0 or blade[-1] >= dim):
                    raise ParameterError(f"blade {blade!r} out of range for dimension {dim}")
                clean[blade] = coef
        self.coeffs = clean

    @classmethod
    def zero(cls, dim: int, grade: int):
        return cls(dim, grade)

    @classmethod
    def blade(cls, dim: int, indices, coef=1):
        indices = tuple(indices)
        return cls(dim, len(indices), {indices: Fraction(coef) if isinstance(coef, int) else coef})

    def coefficient(self, blade):
        return self.coeffs.get(tuple(blade), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compatible(self, other, operation):
        if type(self) is not type(other):
            raise ParameterError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.dim != other.dim:
            raise ParameterError("operands over different frames")
        if operation in ("+", "-") and self.grade != other.grade:
            raise GradeMismatchError(self.grade, other.grade, operation)

    def __add__(self, other):
        self._compatible(other, "+")
        coeffs = dict(self.coeffs)
        for blade, coef in other.coeffs.items():
            new = coeffs.get(blade, 0) + coef
            if new == 0:
                coeffs.pop(blade, None)
            else:
                coeffs[blade] = new
        return type(self)(self.dim, self.grade, coeffs)

    def __neg__(self):
        return type(self)(self.dim, self.grade, {b: -c for b, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        if factor == 0:
            return type(self)(self.dim, self.grade)
        return type(self)(self.dim, self.grade, {b: c * factor for b, c in self.coeffs.items()})

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.dim == other.dim
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((type(self).__name__, self.dim, self.grade,
                     frozenset(self.coeffs.items())))

    def norm_sq(self):
        """Frame l2 norm squared of the coefficient vector."""
        return sum(c * c for c in self.coeffs.values())

    def __repr__(self):
        if not self.coeffs:
            return f"{type(self).__name__}(0, grade={self.grade})"
        bits = [f"{c}*e{''.join(str(i + 1) for i in b)}" for b, c in sorted(self.coeffs.items())]
        return f"{type(self).__name__}({' + '.join(bits)})"


class MultiVector(_GradedElement):
    """Element of the exterior algebra of the frame (vector side)."""


class Covector(_GradedElement):
    """Element of the exterior algebra of the coframe (form side)."""


def wedge(a, b):
    """Wedge product of two elements of the same kind.

    Bilinear, associative, and graded-anticommutative; returns the zero
    element of grade ``min(j+k, dim)`` when the grades overflow.
    """
    a._compatible(b, "^")
    grade = a.grade + b.grade
    if grade > a.dim:
        return type(a)(a.dim, a.dim)
    out = {}
    for left, cl in a.coeffs.items():
        for right, cr in b.coeffs.items():
            merged = wedge_blades(left, right)
            if merged is None:
                continue
            sign, blade = merged
            new = out.get(blade, 0) + sign * cl * cr
            if new == 0:
                out.pop(blade, None)
            else:
                out[blade] = new
    return type(a)(a.dim, grade, out)


def wedge_vectors(dim: int, vectors) -> dict:
    """Blade coefficients of v_1 ^ ... ^ v_k for coordinate vectors of length dim.

    The coefficient on blade B is the k x k minor of the rows B of the
    matrix whose columns are the vectors.  Vanishing minors are left out,
    so the result is empty exactly when the vectors are linearly
    dependent; no vectors give {(): 1}.
    """
    vectors = tuple(vectors)
    out = {}
    for blade in all_blades(dim, len(vectors)):
        minor = det([[v[i] for v in vectors] for i in blade])
        if minor != 0:
            out[blade] = minor
    return out


def pair(w: Covector, v: MultiVector):
    """Duality pairing <w | v>; blades pair to Kronecker delta."""
    if not isinstance(w, Covector) or not isinstance(v, MultiVector):
        raise ParameterError("pairing takes a Covector and a MultiVector, in that order")
    if w.dim != v.dim:
        raise ParameterError("operands over different frames")
    if w.grade != v.grade:
        raise GradeMismatchError(w.grade, v.grade, "<|>")
    total = 0
    small, big = (w.coeffs, v.coeffs) if len(w.coeffs) <= len(v.coeffs) else (v.coeffs, w.coeffs)
    for blade, coef in small.items():
        other = big.get(blade)
        if other is not None:
            total += coef * other
    return total


def hodge_star(v):
    """Hodge star on blades: V_I -> (-1)^sigma(I) V_(I*).

    sigma(I) counts the pairs (i in I, j in the complement) with i > j.
    Extended to grades 0 and 2n+1 by sending 1 to the top blade and back.
    """
    out = {}
    full = tuple(range(v.dim))
    for blade, coef in v.coeffs.items():
        rest = tuple(i for i in full if i not in blade)
        inversions = sum(1 for i in blade for j in rest if i > j)
        sign = -1 if inversions % 2 else 1
        out[rest] = out.get(rest, 0) + sign * coef
    return type(v)(v.dim, v.dim - v.grade, {b: c for b, c in out.items() if c != 0})


def dual_star(w: Covector) -> MultiVector:
    """The metric dual w*: same coefficients read on the frame side."""
    if not isinstance(w, Covector):
        raise ParameterError("dual_star takes a Covector")
    return MultiVector(w.dim, w.grade, dict(w.coeffs))


def is_horizontal(v) -> bool:
    """True when no stored blade involves the vertical index T / theta."""
    vertical = v.dim - THETA_OFFSET
    return all(vertical not in blade for blade in v.coeffs)


class SimpleVectorSample:
    """A unit simple k-vector given by k orthonormal frame columns."""

    __slots__ = ("dim", "columns")

    def __init__(self, columns, tol=1e-10):
        columns = [tuple(col) for col in columns]
        if not columns:
            raise ParameterError("need at least one column")
        dim = len(columns[0])
        for i, col in enumerate(columns):
            if len(col) != dim:
                raise ParameterError("columns of unequal length")
            if abs(sum(a * a for a in col) - 1.0) > tol:
                raise ParameterError(f"column {i} is not unit length")
            for other in columns[:i]:
                if abs(sum(a * b for a, b in zip(col, other))) > tol:
                    raise ParameterError("columns are not orthogonal")
        self.dim = dim
        self.columns = columns

    def to_multivector(self) -> MultiVector:
        return MultiVector(self.dim, len(self.columns), wedge_vectors(self.dim, self.columns))


def _random_orthonormal(rng, dim: int, k: int):
    """Gram-Schmidt on Gaussian columns; retries on near-degeneracy."""
    while True:
        cols = []
        for _ in range(k):
            col = [rng.gauss(0.0, 1.0) for _ in range(dim)]
            for prev in cols:
                dot = sum(a * b for a, b in zip(col, prev))
                col = [a - dot * b for a, b in zip(col, prev)]
            norm = math.sqrt(sum(a * a for a in col))
            if norm < 1e-8:
                break
            cols.append(tuple(a / norm for a in col))
        if len(cols) == k:
            return cols


def comass_estimate(w: Covector, samples: int, rng) -> float:
    """Monte-Carlo lower estimate of the comass sup <w | v>, v unit simple.

    Always includes every coordinate blade, so the estimate dominates the
    largest blade coefficient magnitude; ``samples`` extra draws come from
    random orthonormal frames.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if w.is_zero():
        return 0.0
    best = 0.0
    for blade in all_blades(w.dim, w.grade):
        best = max(best, abs(float(w.coefficient(blade))))
    if w.grade == 0:
        return best
    for _ in range(samples):
        sample = SimpleVectorSample(_random_orthonormal(rng, w.dim, w.grade))
        value = abs(float(pair(w, sample.to_multivector())))
        best = max(best, value)
    return best

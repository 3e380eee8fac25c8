"""The Heisenberg group: points, group law, dilations, Koranyi metric.

Points of the group live on R^(2n+1) with coordinates (x, y, t),
x, y in R^n.  The non-Abelian product is

    (x,y,t) * (x',y',t') = (x+x', y+y', t+t' + (1/2) sum_j (x_j y'_j - y_j x'_j))

and the anisotropic dilations act by (x,y,t) -> (r x, r y, r^2 t).
Coordinates may be exact rationals or floats; operations never coerce
between the two kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, ParameterError


@dataclass(frozen=True)
class HeisParams:
    """Structure constants of the group of index ``n``."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"Heisenberg index must be >= 1, got {self.n}")

    @property
    def dim(self) -> int:
        """Topological dimension 2n+1."""
        return 2 * self.n + 1


@dataclass(frozen=True)
class Point:
    """A group element (x, y, t); component tuples have length n."""

    x: tuple
    y: tuple
    t: object

    def __post_init__(self):
        if len(self.x) != len(self.y) or not self.x:
            raise ParameterError("x and y must be nonempty tuples of equal length")

    @property
    def n(self) -> int:
        return len(self.x)

    @classmethod
    def from_coords(cls, coords) -> "Point":
        coords = tuple(coords)
        if len(coords) % 2 != 1 or len(coords) < 3:
            raise ParameterError(f"coordinate length must be odd and >= 3, got {len(coords)}")
        n = len(coords) // 2
        return cls(coords[:n], coords[n:2 * n], coords[2 * n])

    def coords(self) -> tuple:
        return self.x + self.y + (self.t,)


def _same_n(p: Point, q: Point) -> int:
    if p.n != q.n:
        raise DimensionMismatchError(f"points over H^{p.n} and H^{q.n}")
    return p.n


def _half(value):
    # keep ints exact instead of letting / promote them to float
    if isinstance(value, float):
        return value / 2
    return Fraction(value) / 2


def group_mul(p: Point, q: Point) -> Point:
    """Group product p * q."""
    n = _same_n(p, q)
    skew = sum(p.x[j] * q.y[j] - p.y[j] * q.x[j] for j in range(n))
    return Point(
        tuple(p.x[j] + q.x[j] for j in range(n)),
        tuple(p.y[j] + q.y[j] for j in range(n)),
        p.t + q.t + _half(skew),
    )


def group_inv(p: Point) -> Point:
    """Group inverse; the skew term cancels, so it is plain negation."""
    return Point(tuple(-a for a in p.x), tuple(-a for a in p.y), -p.t)


def left_translate(q: Point, p: Point) -> Point:
    """Left translation tau_q(p) = q * p."""
    return group_mul(q, p)


def dilate(r, p: Point) -> Point:
    """Anisotropic dilation delta_r, r > 0."""
    if not r > 0:
        raise ParameterError(f"dilation factor must be positive, got {r}")
    return Point(
        tuple(r * a for a in p.x),
        tuple(r * a for a in p.y),
        r * r * p.t,
    )


def koranyi_norm_fourth(p: Point):
    """Fourth power of the Koranyi norm: |(x,y)|^4 + 16 t^2.

    Exact on rational points; useful when the norm itself is irrational.
    """
    sq = sum(a * a for a in p.x) + sum(a * a for a in p.y)
    return sq * sq + 16 * p.t * p.t


def koranyi_norm(p: Point) -> float:
    return float(koranyi_norm_fourth(p)) ** 0.25


def koranyi_dist(p: Point, q: Point) -> float:
    """Left-invariant distance d(p, q) = ||q^(-1) * p||."""
    _same_n(p, q)
    return koranyi_norm(group_mul(group_inv(q), p))


def frame_change(p: Point, v) -> tuple:
    """Rewrite a coordinate vector in the left-invariant frame at ``p``.

    Returns coefficients (a_1..a_n, b_1..b_n, tau) with
    v = sum_j a_j X_j(p) + sum_j b_j Y_j(p) + tau T, where
    X_j = d/dx_j - (1/2) y_j d/dt and Y_j = d/dy_j + (1/2) x_j d/dt.
    The change of basis is unipotent: only the T coefficient moves.
    """
    n = p.n
    v = tuple(v)
    if len(v) != 2 * n + 1:
        raise DimensionMismatchError(f"vector length {len(v)} for H^{n}")
    a = v[:n]
    b = v[n:2 * n]
    shift = sum(a[j] * p.y[j] - b[j] * p.x[j] for j in range(n))
    tau = v[2 * n] + _half(shift)
    return a + b + (tau,)


def frame_to_coords(p: Point, w) -> tuple:
    """Inverse of :func:`frame_change`: expand frame coefficients at ``p``."""
    n = p.n
    w = tuple(w)
    if len(w) != 2 * n + 1:
        raise DimensionMismatchError(f"coefficient length {len(w)} for H^{n}")
    a = w[:n]
    b = w[n:2 * n]
    shift = sum(a[j] * p.y[j] - b[j] * p.x[j] for j in range(n))
    t_comp = w[2 * n] - _half(shift)
    return a + b + (t_comp,)

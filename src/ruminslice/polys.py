"""Sparse multivariate polynomials over exact rationals.

A :class:`Poly` stores a map from exponent tuples to nonzero ``Fraction``
coefficients.  The variable count is fixed per polynomial; the geometric
layers order the variables as ``x1..xn, y1..yn, t``.  All arithmetic is
exact; evaluation accepts rational or float points.

The public constructor validates every term.  Arithmetic inside the
library builds its results with :meth:`Poly._trusted`, which skips that
pass: sums and products of clean polynomials are clean by construction.
"""

from __future__ import annotations

from fractions import Fraction


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"polynomial coefficients must be rational, got {type(value)!r}")


class Poly:
    """Polynomial in ``nvars`` variables with Fraction coefficients.

    ``terms`` maps exponent tuples (length ``nvars``, nonnegative ints) to
    nonzero coefficients.  Instances are immutable once constructed.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, coef in terms.items():
                coef = _coerce(coef)
                if coef == 0:
                    continue
                if len(expo) != nvars or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo!r} for {nvars} variables")
                clean[tuple(expo)] = coef
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Poly":
        """Wrap ``terms`` without validation.

        The caller guarantees tuple exponents of length ``nvars`` with
        nonnegative entries and nonzero ``Fraction`` coefficients, and
        hands over ownership of the dict.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        value = _coerce(value)
        if value == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars: int, index: int) -> "Poly":
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            new = terms.get(expo, Fraction(0)) + coef
            if new == 0:
                terms.pop(expo, None)
            else:
                terms[expo] = new
        return Poly._trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            coef = _coerce(other)
            if coef == 0:
                return Poly(self.nvars)
            return Poly._trusted(self.nvars, {e: c * coef for e, c in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(expo, Fraction(0)) + c1 * c2
                if new == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = new
        return Poly._trusted(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if self.is_constant():
                return self.constant_value() == other
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus and substitution ---------------------------------------

    def partial(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable ``index``."""
        out = {}
        for expo, coef in self.terms.items():
            e = expo[index]
            if e == 0:
                continue
            new_expo = list(expo)
            new_expo[index] = e - 1
            out[tuple(new_expo)] = coef * e
        return Poly._trusted(self.nvars, out)

    def evaluate(self, point):
        """Evaluate at a coordinate sequence (rational or float entries)."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        total = Fraction(0)
        for expo, coef in self.terms.items():
            value = coef
            for base, e in zip(point, expo):
                if e:
                    value = value * base ** e
            total = total + value
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for expo in sorted(self.terms):
            factors = [str(self.terms[expo])]
            factors += [f"v{i}^{e}" for i, e in enumerate(expo) if e]
            bits.append("*".join(factors))
        return "Poly(" + " + ".join(bits) + ")"

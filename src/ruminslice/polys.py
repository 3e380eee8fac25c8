"""Sparse multivariate polynomials over exact rationals.

A :class:`Poly` maps exponent tuples to nonzero int numerators ``nums``
over one ``den`` > 0, in lowest terms (den 1 for zero); :attr:`Poly.terms`
builds the Fraction coefficients.  The variable count is fixed per
polynomial; the geometric layers order the variables as ``x1..xn,
y1..yn, t``.  Arithmetic is exact, on ints: a sum works over the lcm of
the dens, a product over their product, and each result is reduced
once.  Evaluation accepts rational or float points.

The public constructor validates every term.  Arithmetic inside the
library builds its results with :meth:`Poly._trusted`, which skips that
pass: sums and products of clean polynomials are clean by construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"polynomial coefficients must be rational, got {type(value)!r}")


class Poly:
    """Polynomial in ``nvars`` variables with rational coefficients.

    ``nums`` maps exponent tuples (length ``nvars``, nonnegative ints) to
    nonzero int numerators over ``den``.  Instances are immutable.
    """

    __slots__ = ("nvars", "nums", "den")

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
        # over the lcm of reduced denominators, the numerators share no factor with it
        den = math.lcm(*[c.denominator for c in clean.values()])
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.den = den

    @classmethod
    def _trusted(cls, nvars: int, nums: dict, den: int) -> "Poly":
        """Wrap ``nums`` over ``den`` without validation, reduced to normal form.

        The caller guarantees tuple exponents of length ``nvars`` with
        nonnegative entries, nonzero int numerators and a positive int
        ``den``, and hands over ownership of the dict.
        """
        if den != 1:
            # a fold: gcd(den, *values) argument tuples fill the tuple free lists
            g = reduce(math.gcd, nums.values(), den)
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.nums = nums
        poly.den = den
        return poly

    @property
    def terms(self) -> dict:
        """A new {exponent tuple: nonzero Fraction coefficient} dict."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

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
        return cls(nvars, {tuple(expo): 1})

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.nums)

    def constant_value(self) -> Fraction:
        return Fraction(self.nums.get((0,) * self.nvars, 0), self.den)

    def total_degree(self) -> int:
        if not self.nums:
            return 0
        return max(sum(e) for e in self.nums)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        den = math.lcm(self.den, other.den)
        scale = den // self.den
        nums = dict(self.nums) if scale == 1 else {e: c * scale for e, c in self.nums.items()}
        scale = den // other.den
        for expo, coef in other.nums.items():
            new = nums.get(expo, 0) + coef * scale
            if new:
                nums[expo] = new
            else:
                nums.pop(expo, None)
        return Poly._trusted(self.nvars, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.nvars, {e: -c for e, c in self.nums.items()}, self.den)

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
            num = coef.numerator
            return Poly._trusted(self.nvars, {e: c * num for e, c in self.nums.items()},
                                 self.den * coef.denominator)
        self._check(other)
        out = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(expo, 0) + c1 * c2
                if new == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = new
        return Poly._trusted(self.nvars, out, self.den * other.den)

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
        return self.nvars == other.nvars and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # a constant equals its value, so it hashes as that value does
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    # -- calculus and substitution ---------------------------------------

    def partial(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable ``index``."""
        out = {}
        for expo, coef in self.nums.items():
            e = expo[index]
            if e == 0:
                continue
            new_expo = list(expo)
            new_expo[index] = e - 1
            out[tuple(new_expo)] = coef * e
        return Poly._trusted(self.nvars, out, self.den)

    def evaluate(self, point):
        """Evaluate at a coordinate sequence (rational or float entries)."""
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        den = self.den
        total = Fraction(0)
        for expo, num in self.nums.items():
            value = Fraction(num, den)
            for base, e in zip(point, expo):
                if e:
                    value = value * base ** e
            total = total + value
        return total

    def __repr__(self):
        if not self.nums:
            return "Poly(0)"
        terms = self.terms
        bits = []
        for expo in sorted(terms):
            factors = [str(terms[expo])]
            factors += [f"v{i}^{e}" for i, e in enumerate(expo) if e]
            bits.append("*".join(factors))
        return "Poly(" + " + ".join(bits) + ")"

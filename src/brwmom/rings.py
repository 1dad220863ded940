"""Exact and high-precision coefficient rings.

Every power appearing in the moment recursion has the shape
2^(p*beta^2 + q) with integer p, q.  The ring contexts below evaluate such
powers in one of three backends:

* exact rationals (``fractions.Fraction``) when beta^2 is an integer,
* the radical field Q(2^(1/m)) when beta^2 = a/m in lowest terms,
* correctly rounded binary floats (mpmath) at a configurable precision.

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp

from .symbolic import _padd, _pdivmod, _pmul, _pneg, _trim

DEFAULT_PRECISION = 256
MIN_PRECISION = 64

ExactScalar = Union[int, Fraction]


class RingMismatchError(ValueError):
    """Operands live in incompatible coefficient rings."""


def pow2(exponent: int) -> Fraction:
    """2**exponent as an exact rational; the exponent may be negative."""
    return Fraction(2) ** exponent


def fraction_to_mpf(value: Fraction, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    with mp.workprec(precision):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)


class Radical:
    """Element of the field Q(2^(1/m)), stored as m rational coefficients.

    ``coeffs[j]`` multiplies 2^(j/m).  Multiplication reduces with
    (2^(1/m))^m = 2.  Since x^m - 2 is irreducible over Q (Eisenstein at 2)
    the ring is a field, so division is exact.  The root index m is fixed
    per value; mixing indices raises RingMismatchError.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs) -> None:
        if m < 1:
            raise ValueError(f"root index must be positive, got {m}")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != m:
            raise ValueError(f"expected {m} coefficients, got {len(cs)}")
        self.m = m
        self.coeffs = cs

    @classmethod
    def rational(cls, m: int, value: ExactScalar) -> "Radical":
        return cls(m, (Fraction(value),) + (Fraction(0),) * (m - 1))

    @classmethod
    def root_power(cls, m: int, e: int) -> "Radical":
        """2^(e/m) for any integer e, reduced so the root exponent is in [0, m)."""
        s, r = divmod(e, m)
        coeffs = [Fraction(0)] * m
        coeffs[r] = pow2(s)
        return cls(m, coeffs)

    def _check(self, other: "Radical") -> None:
        if self.m != other.m:
            raise RingMismatchError(
                f"mixed root indices {self.m} and {other.m}")

    def _coerce(self, value) -> "Radical | None":
        if isinstance(value, Radical):
            self._check(value)
            return value
        if isinstance(value, (int, Fraction)):
            return Radical.rational(self.m, value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Radical(self.m, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Radical(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Radical(self.m, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Radical(self.m, tuple(a * other for a in self.coeffs))
        if not isinstance(other, Radical):
            return NotImplemented
        self._check(other)
        m = self.m
        out = [Fraction(0)] * m
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                s, r = divmod(i + j, m)
                out[r] += a * b * pow2(s)
        return Radical(m, out)

    __rmul__ = __mul__

    def inverse(self) -> "Radical":
        """Multiplicative inverse via the extended Euclidean algorithm
        against x^m - 2."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero radical element")
        m = self.m
        modulus = [Fraction(-2)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
        r0, r1 = modulus, _trim(self.coeffs)
        t0, t1 = (), (Fraction(1),)
        while r1:
            q, rem = _pdivmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
        # r0 is a nonzero constant: x^m - 2 is irreducible.
        inv_const = Fraction(1) / r0[0]
        coeffs = [c * inv_const for c in t0]
        coeffs += [Fraction(0)] * (m - len(coeffs))
        return Radical(m, coeffs[:m])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, Radical):
            self._check(other)
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other) if isinstance(other, (int, Fraction, Radical)) else None
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def to_mpf(self, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
        with mp.workprec(precision):
            root = mpmath.mpf(2) ** (mpmath.mpf(1) / self.m)
            total = mpmath.mpf(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    total += fraction_to_mpf(c, precision) * root ** j
            return total

    def __float__(self) -> float:
        return float(self.to_mpf(DEFAULT_PRECISION))

    def __repr__(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c and not (j == 0 and not any(self.coeffs)):
                continue
            parts.append(str(c) if j == 0 else f"{c}*2^({j}/{self.m})")
        return " + ".join(parts) if parts else "0"


class RationalContext:
    """Exact rational arithmetic; requires an integer beta^2."""

    kind = "rational"

    def __init__(self, beta_sq: int) -> None:
        if isinstance(beta_sq, Fraction) and beta_sq.denominator == 1:
            beta_sq = int(beta_sq)
        if not isinstance(beta_sq, int):
            raise RingMismatchError(
                f"rational ring needs integer beta^2, got {beta_sq!r}")
        self.beta_sq = beta_sq

    @property
    def tag(self) -> str:
        return "rational"

    def two_pow(self, p: int, q: int) -> Fraction:
        return pow2(p * self.beta_sq + q)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    def vanishes(self, value) -> bool:
        """Whether a computed denominator is zero; exact in this ring."""
        return not value

    def workprec(self):
        return nullcontext()


class RadicalContext:
    """Arithmetic in Q(2^(1/m)) for beta^2 = a/m in lowest terms."""

    kind = "radical"

    def __init__(self, beta_sq) -> None:
        bs = Fraction(beta_sq)
        self.beta_sq = bs
        self.numer = bs.numerator
        self.m = bs.denominator

    @property
    def tag(self) -> str:
        return f"radical({self.m})"

    def two_pow(self, p: int, q: int) -> Radical:
        return Radical.root_power(self.m, p * self.numer + q * self.m)

    @property
    def one(self) -> Radical:
        return Radical.rational(self.m, 1)

    @property
    def zero(self) -> Radical:
        return Radical.rational(self.m, 0)

    def vanishes(self, value) -> bool:
        """Whether a computed denominator is zero; exact in this ring."""
        return not value

    def workprec(self):
        return nullcontext()


class FloatContext:
    """Correctly rounded binary floats at a configurable precision in bits."""

    kind = "float"

    def __init__(self, beta_sq, precision: int = DEFAULT_PRECISION) -> None:
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION} bits")
        self.precision = precision
        with mp.workprec(precision):
            if isinstance(beta_sq, Fraction):
                self.beta_sq = fraction_to_mpf(beta_sq, precision)
            else:
                self.beta_sq = mpmath.mpf(beta_sq)

    @property
    def tag(self) -> str:
        return f"float({self.precision})"

    def two_pow(self, p: int, q: int) -> mpmath.mpf:
        with mp.workprec(self.precision):
            return mpmath.mpf(2) ** (p * self.beta_sq + q)

    @property
    def one(self) -> mpmath.mpf:
        return mpmath.mpf(1)

    @property
    def zero(self) -> mpmath.mpf:
        return mpmath.mpf(0)

    def vanishes(self, value) -> bool:
        """Whether a computed denominator is zero, read conservatively as
        |value| < 2^(-precision/2): rounding hides an exact zero."""
        return abs(value) < mpmath.mpf(2) ** (-(self.precision // 2))

    def workprec(self):
        return mp.workprec(self.precision)


RingContext = Union[RationalContext, RadicalContext, FloatContext]


def resolve_context(beta_sq, ring: str = "auto",
                    precision: int = DEFAULT_PRECISION) -> RingContext:
    """Pick a coefficient ring for the given beta^2.

    ``auto`` selects rationals for integer beta^2, the radical field for an
    exact Fraction, and floats otherwise.  Explicit exact rings reject
    incompatible inputs rather than silently lifting floats to rationals.
    """
    if ring == "auto":
        if isinstance(beta_sq, int) or (
                isinstance(beta_sq, Fraction) and beta_sq.denominator == 1):
            return RationalContext(int(beta_sq))
        if isinstance(beta_sq, Fraction):
            return RadicalContext(beta_sq)
        return FloatContext(beta_sq, precision)
    if ring == "rational":
        return RationalContext(beta_sq)
    if ring == "radical":
        if not isinstance(beta_sq, (int, Fraction)):
            raise RingMismatchError(
                "radical ring needs an exact rational beta^2")
        return RadicalContext(Fraction(beta_sq))
    if ring == "float":
        return FloatContext(beta_sq, precision)
    raise ValueError(f"unknown ring {ring!r}")


def to_mpf(value, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Convert any supported ring value to an mpf at the given precision.

    Values that are already mpf pass through unrounded; everything else is
    converted under a context of the requested precision.
    """
    if isinstance(value, mpmath.mpf):
        return value
    if isinstance(value, Radical):
        return value.to_mpf(precision)
    if isinstance(value, (int, Fraction)):
        return fraction_to_mpf(Fraction(value), precision)
    with mp.workprec(precision):
        return mpmath.mpf(value)

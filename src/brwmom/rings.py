"""Exact and high-precision coefficient rings.

Every power appearing in the moment recursion has the shape
2^(p*beta^2 + q) with integer p, q.  The ring contexts below evaluate such
powers in one of three backends:

* exact rationals (``fractions.Fraction``) when beta^2 is an integer,
* the radical field Q(2^(1/m)) when beta^2 = a/m in lowest terms,
* correctly rounded binary floats (mpmath) at a configurable precision.

``to_integral`` gives an integral value the int form in which ``engine``
builds its tables, and ``from_integral(v, e)`` is v / 2^e in the ring's
own type.  All values are immutable; operations are pure functions.
mpmath is imported by the functions that use it, so arithmetic in the
exact rings never loads it.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from typing import Union

from .symbolic import _padd, _pdivmod, _pmul, _pneg, _trim

DEFAULT_PRECISION = 256
MIN_PRECISION = 64

ExactScalar = Union[int, Fraction]


class RingMismatchError(ValueError):
    """Operands live in incompatible coefficient rings."""


def pow2(exponent: int) -> Fraction:
    """2**exponent as an exact rational; the exponent may be negative."""
    return Fraction(2) ** exponent


class Radical:
    """Element of the field Q(2^(1/m)): ``coeffs[j]`` multiplies 2^(j/m).

    The rational coefficients are stored trimmed: at most m of them, no
    trailing zeros, and zero has none, so equal values have equal
    coefficients.  Every operation runs on the polynomial helpers of
    ``symbolic``; a product reduces with (2^(1/m))^m = 2.  Since x^m - 2
    is irreducible over Q (Eisenstein at 2) the ring is a field, so
    division is exact.  The root index m is fixed per value; mixing
    indices raises RingMismatchError.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs) -> None:
        if m < 1:
            raise ValueError(f"root index must be positive, got {m}")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) > m:
            raise ValueError(
                f"expected at most {m} coefficients, got {len(cs)}")
        self.m = m
        self.coeffs = _trim(cs)

    @classmethod
    def rational(cls, m: int, value: ExactScalar) -> "Radical":
        return cls(m, (value,))

    @classmethod
    def root_power(cls, m: int, e: int) -> "Radical":
        """2^(e/m) for any integer e, reduced so the root exponent is in [0, m)."""
        s, r = divmod(e, m)
        return cls(m, (0,) * r + (pow2(s),))

    def _new(self, coeffs) -> "Radical":
        # The helpers return trimmed Fraction tuples: nothing to check.
        out = object.__new__(Radical)
        out.m, out.coeffs = self.m, coeffs
        return out

    def _coerce(self, value):
        """The coefficients of a Radical of the same root index or of a
        rational; None for any other operand."""
        if isinstance(value, Radical):
            if value.m != self.m:
                raise RingMismatchError(
                    f"mixed root indices {self.m} and {value.m}")
            return value.coeffs
        if isinstance(value, (int, Fraction)):
            return _trim((Fraction(value),))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return (NotImplemented if o is None
                else self._new(_padd(self.coeffs, o)))

    __radd__ = __add__

    def __neg__(self):
        return self._new(_pneg(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        return (NotImplemented if o is None
                else self._new(_padd(self.coeffs, _pneg(o))))

    def __rsub__(self, other):
        o = self._coerce(other)
        return (NotImplemented if o is None
                else self._new(_padd(o, _pneg(self.coeffs))))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m, out = self.m, list(_pmul(self.coeffs, o))
        # Degrees reach 2m - 2, so one pass of r^m = 2 reduces them all.
        for d in range(m, len(out)):
            out[d - m] += 2 * out[d]
        return self._new(_trim(out[:m]))

    __rmul__ = __mul__

    def inverse(self) -> "Radical":
        """Multiplicative inverse via the extended Euclidean algorithm
        against x^m - 2."""
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero radical element")
        r0 = (Fraction(-2),) + (Fraction(0),) * (self.m - 1) + (Fraction(1),)
        r1, t0, t1 = self.coeffs, (), (Fraction(1),)
        while r1:
            q, rem = _pdivmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
        # r0 is a nonzero constant: x^m - 2 is irreducible.
        inv_const = 1 / r0[0]
        return self._new(tuple(c * inv_const for c in t0))

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * self._new(o).inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.coeffs == o

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def to_mpf(self, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
        import mpmath
        with mpmath.workprec(precision):
            root = mpmath.mpf(2) ** (mpmath.mpf(1) / self.m)
            total = mpmath.mpf(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    total += to_mpf(c, precision) * root ** j
            return total

    def __float__(self) -> float:
        return float(self.to_mpf(DEFAULT_PRECISION))

    def __repr__(self) -> str:
        parts = [str(c) if j == 0 else f"{c}*2^({j}/{self.m})"
                 for j, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) or "0"


class RationalContext:
    """Exact rational arithmetic; requires an integer beta^2."""

    kind = tag = "rational"
    one, zero = Fraction(1), Fraction(0)
    workprec = staticmethod(nullcontext)

    def __init__(self, beta_sq: ExactScalar) -> None:
        if isinstance(beta_sq, Fraction) and beta_sq.denominator == 1:
            beta_sq = int(beta_sq)
        if not isinstance(beta_sq, int):
            raise RingMismatchError(
                f"rational ring needs integer beta^2, got {beta_sq!r}")
        self.beta_sq = beta_sq

    def two_pow(self, p: int, q: int) -> Fraction:
        return pow2(p * self.beta_sq + q)

    def to_integral(self, value: Fraction) -> int:
        return value.numerator

    def from_integral(self, value: int, e: int) -> Fraction:
        return Fraction(value, 1 << e)

    def vanishes(self, value) -> bool:
        """Whether a computed denominator is zero; exact in this ring."""
        return not value


class RadicalContext:
    """Arithmetic in Q(2^(1/m)) for beta^2 = a/m in lowest terms."""

    kind = "radical"
    workprec = staticmethod(nullcontext)

    def __init__(self, beta_sq) -> None:
        bs = Fraction(beta_sq)
        self.beta_sq = bs
        self.numer = bs.numerator
        self.m = bs.denominator
        self.tag = f"radical({self.m})"
        self.one = Radical.rational(self.m, 1)
        self.zero = Radical.rational(self.m, 0)

    def two_pow(self, p: int, q: int) -> Radical:
        return Radical.root_power(self.m, p * self.numer + q * self.m)

    def to_integral(self, value: Radical) -> Radical:
        return value._new(tuple(c.numerator for c in value.coeffs))

    def from_integral(self, value: Radical, e: int) -> Radical:
        return value._new(tuple(Fraction(c, 1 << e) for c in value.coeffs))

    def vanishes(self, value) -> bool:
        """Whether a computed denominator is zero; exact in this ring."""
        return not value


class FloatContext:
    """Correctly rounded binary floats at a configurable precision in bits."""

    kind = "float"
    to_integral = staticmethod(lambda value: value)  # 2^e scales exactly

    def __init__(self, beta_sq, precision: int = DEFAULT_PRECISION) -> None:
        import mpmath
        if precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION} bits")
        self.precision = precision
        self.tag = f"float({precision})"
        self.one, self.zero = mpmath.mpf(1), mpmath.mpf(0)
        with mpmath.workprec(precision):
            # Unary plus rounds an mpf, which to_mpf passes through as is.
            self.beta_sq = +to_mpf(beta_sq, precision)

    def two_pow(self, p: int, q: int) -> mpmath.mpf:
        import mpmath
        with mpmath.workprec(self.precision):
            return mpmath.mpf(2) ** (p * self.beta_sq + q)

    @staticmethod
    def from_integral(value: mpmath.mpf, e: int) -> mpmath.mpf:
        import mpmath
        return mpmath.ldexp(value, -e)

    def vanishes(self, value) -> bool:
        """Whether a computed denominator is zero, read conservatively as
        |value| < 2^(-precision/2): rounding hides an exact zero."""
        import mpmath
        return abs(value) < mpmath.mpf(2) ** (-(self.precision // 2))

    def workprec(self):
        import mpmath
        return mpmath.workprec(self.precision)


RingContext = Union[RationalContext, RadicalContext, FloatContext]


def resolve_context(beta_sq, ring: str = "auto",
                    precision: int = DEFAULT_PRECISION) -> RingContext:
    """Pick a coefficient ring for the given beta^2.

    ``auto`` selects rationals for integer beta^2, the radical field for an
    exact Fraction, and floats otherwise.  Explicit exact rings reject
    incompatible inputs rather than silently lifting floats to rationals.
    """
    if ring == "auto":
        if not isinstance(beta_sq, (int, Fraction)):
            ring = "float"
        else:
            ring = "rational" if beta_sq.denominator == 1 else "radical"
    if ring == "rational":
        return RationalContext(beta_sq)
    if ring == "radical":
        if not isinstance(beta_sq, (int, Fraction)):
            raise RingMismatchError(
                "radical ring needs an exact rational beta^2")
        return RadicalContext(beta_sq)
    if ring == "float":
        return FloatContext(beta_sq, precision)
    raise ValueError(f"unknown ring {ring!r}")


def to_mpf(value, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Convert any supported ring value to an mpf at the given precision.

    Values that are already mpf pass through unrounded; everything else is
    converted under a context of the requested precision.
    """
    import mpmath
    if isinstance(value, mpmath.mpf):
        return value
    if isinstance(value, Radical):
        return value.to_mpf(precision)
    with mpmath.workprec(precision):
        if isinstance(value, (int, Fraction)):
            return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
        return mpmath.mpf(value)

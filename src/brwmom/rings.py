"""Exact and high-precision coefficient rings.

Every power appearing in the moment recursion has the shape
2^(p*beta^2 + q) with integer p, q, kept symbolic as ``ExpPair(p, q)``,
a NamedTuple.
The ring contexts below evaluate such powers in one of three backends:

* exact rationals (``fractions.Fraction``) when beta^2 is an integer,
* the radical field Q(2^(1/m)) when beta^2 = a/m in lowest terms,
* correctly rounded binary floats (mpmath) at a configurable precision.

``engine.MomentTable`` runs in each context's table form: ``table_unit``,
``table_mul`` and ``table_add`` act on Z[2^(1/h)] for 2 beta^2 = g/h in
lowest terms (one int at h = 1, else h ints of 2^(i/h)) in the exact
rings, and on int pairs (man, exp) for man 2^exp in mpf, each product and
sum rounded once to ``precision`` bits as mpf's * and + round.  Parity
lemma: with t = 2^(beta^2), every term of N_j(d) = 2^(jd) M_j(d) is t^p,
p >= jd, p = jd (mod 2).  Proof by induction over the recurrence's
factors (``engine.recurrence_terms``): the step's t^(j^2) has j^2 >= j,
= j (mod 2); a split's t^(i^2 + (j-i)^2) has i^2 + (j-i)^2 >= j, = j.
So the exact rows hold R_j(d) = t^(-jd) N_j(d), integral in t^2, and
``table_multiplier(c, e, j)`` applies c 2^(e+j) t^(-j): a shift, or a
rotation by r slots that doubles what wraps (2^(h/h) = 2) times a shift;
``from_table(x, e)`` is x 2^((beta^2 - 1) e).  The mpf rows hold N_j(d):
the multiplier is the rounded c two_pow(e) times an exact 2^j, and the
read x 2^(-e).  Every read is exact.  The table form carries its own
precision: no table operation reads the ambient mpmath one.

The dense polynomial helpers (coefficient tuples, lowest degree first)
are the package's one polynomial arithmetic, for ``Radical``,
``engine._closed_forms`` and the Q(t) layer of ``symbolic``;
``_pdivmod`` works over Q, the others over any exact ring (Fraction,
``Radical``, Q(t)).  All values are immutable; operations are pure
functions.  mpmath is imported by the functions that use it, so
arithmetic in the exact rings never loads it.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from math import gcd
from operator import add, mul
from typing import NamedTuple, Tuple, Union

DEFAULT_PRECISION = 256
MIN_PRECISION = 64

ExactScalar = Union[int, Fraction]
Coeffs = Tuple[Fraction, ...]


class RingMismatchError(ValueError):
    """Operands live in incompatible coefficient rings."""


class ExpPair(NamedTuple):
    """Exponent p*beta^2 + q of a power of two, kept in symbolic form."""

    p: int
    q: int

    def plus(self, other: "ExpPair") -> "ExpPair":
        return ExpPair(self.p + other.p, self.q + other.q)

    def value_at(self, beta_sq):
        return self.p * beta_sq + self.q


def _trim(cs) -> Coeffs:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-x for x in a)


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [None] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in b_terms:
            c = out[i + j]
            out[i + j] = x * y if c is None else c + x * y
    # A degree no product reached holds the ring's zero, a - a.
    return _trim(a[-1] - a[-1] if c is None else c for c in out)


def _pdivmod(a: Coeffs, b: Coeffs) -> Tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = Fraction(1) / b[-1]
    while len(rem) >= len(b):
        c = rem[-1] * inv_lead
        d = len(rem) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            rem[d + i] -= c * y
        while rem and not rem[-1]:
            rem.pop()
    return _trim(q), _trim(rem)


def pow2(exponent: int) -> Fraction:
    """2**exponent as an exact rational; the exponent may be negative."""
    return Fraction(2) ** exponent


class Radical:
    """Element of the field Q(2^(1/m)): ``coeffs[j]`` multiplies 2^(j/m).

    The rational coefficients are stored trimmed: at most m of them, no
    trailing zeros, and zero has none, so equal values have equal
    coefficients.  Every operation runs on the polynomial helpers above;
    a product reduces with (2^(1/m))^m = 2.  Since x^m - 2 is irreducible
    over Q (Eisenstein at 2) the ring is a field, so division is exact.
    The root index m is fixed per value.  Values of two indices compare
    when one is rational or the indices are coprime (the fields then share
    only Q); other mixes, and all mixed arithmetic, raise RingMismatchError.
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
        if isinstance(other, Radical) and other.m != self.m and (
                self.is_rational() or other.is_rational()
                or gcd(self.m, other.m) == 1):
            return self.is_rational() and self.coeffs == other.coeffs
        o = self._coerce(other)
        return NotImplemented if o is None else self.coeffs == o

    def __hash__(self):  # a rational equals its Fraction: hash as one
        return hash(self.to_fraction() if self.is_rational()
                    else (self.m, self.coeffs))

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


class _ExactContext:
    """The exact rings' table form: Z[2^(1/h)] for 2 beta^2 = g/h, as the
    parity lemma (module docstring) allows; one int at h = 1 (integer and
    half-integer beta^2), else h ints, h = m/2 for even m and m for odd."""

    workprec = staticmethod(nullcontext)

    def __init__(self, beta_sq) -> None:
        self.beta_sq = beta_sq
        self.numer, self.m = beta_sq.as_integer_ratio()
        self.g, self.h = (2 * beta_sq).as_integer_ratio()
        self.table_unit = [1] + [0] * (self.h - 1)
        if self.h == 1:  # Z[2^(1/1)]: plain ints, not the slot forms below
            self.table_unit, self.table_mul, self.table_add = 1, mul, add

    def table_mul(self, x, y) -> list:
        """One int convolution, folded once by (2^(1/h))^h = 2."""
        h = self.h
        out = [0] * (2 * h - 1)
        for i, a in enumerate(x):
            if a:
                for t, b in enumerate(y, i):
                    out[t] += a * b
        for d in range(h, 2 * h - 1):
            out[d - h] += 2 * out[d]
        return out[:h]

    table_add = staticmethod(lambda x, y: [a + b for a, b in zip(x, y)])

    def table_multiplier(self, c: int, e: ExpPair, j: int):
        half, odd = divmod(e.p - j, 2)
        if odd or half < 0:
            raise ArithmeticError(f"t^{e.p} is not t^{j} times a power of t^2")
        s, r = divmod(half * self.g + (e.q + j) * self.h, self.h)
        if self.h == 1:
            return (c << s).__mul__
        lo, hi, cut = c << s, c << (s + 1), self.h - r
        return lambda x: [hi * v for v in x[cut:]] + [lo * v for v in x[:cut]]

    def _read(self, x, e: int) -> list:
        """x 2^((beta^2 - 1) e) as the m Fractions of 2^(i/m)."""
        m, out = self.m, [0] * self.m
        for i, v in enumerate([x] if self.h == 1 else x):
            q, r = divmod(i * (m // self.h) + (self.numer - m) * e, m)
            out[r] = Fraction(v, 1 << -q) if q < 0 else Fraction(v << q)
        return out

    def vanishes(self, value) -> bool:
        """Whether a computed denominator is zero; exact in this ring."""
        return not value


class RationalContext(_ExactContext):
    """Exact rational arithmetic; requires an integer beta^2."""

    tag = "rational"
    one, zero = Fraction(1), Fraction(0)

    def __init__(self, beta_sq: ExactScalar) -> None:
        if isinstance(beta_sq, Fraction) and beta_sq.denominator == 1:
            beta_sq = int(beta_sq)
        if not isinstance(beta_sq, int):
            raise RingMismatchError(
                f"rational ring needs integer beta^2, got {beta_sq!r}")
        super().__init__(beta_sq)

    def two_pow(self, p: int, q: int) -> Fraction:
        return pow2(p * self.beta_sq + q)

    def from_table(self, x, e: int) -> Fraction:
        return self._read(x, e)[0]


class RadicalContext(_ExactContext):
    """Arithmetic in Q(2^(1/m)) for beta^2 = a/m in lowest terms."""

    def __init__(self, beta_sq) -> None:
        super().__init__(Fraction(beta_sq))
        self.tag = f"radical({self.m})"
        self.one = Radical.rational(self.m, 1)
        self.zero = Radical.rational(self.m, 0)

    def two_pow(self, p: int, q: int) -> Radical:
        return Radical.root_power(self.m, p * self.numer + q * self.m)

    def from_table(self, x, e: int) -> Radical:
        return Radical(self.m, self._read(x, e))


def _round_pair(man: int, exp: int, prec: int) -> tuple:
    """man 2^exp, man > 0, rounded to ``prec`` bits: nearest, ties to
    even, as mpf's normalisation rounds, so the value is mpf's to the bit."""
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, exp + n
    return t >> 1, exp + n


class FloatContext:
    """Correctly rounded binary floats at a configurable precision in bits.

    ``two_pow`` runs on raw mpmath values.  The table form is an int pair
    (man, exp) for man 2^exp, man > 0: every table entry is positive.
    Each product and sum is formed exactly in ints and rounded once by
    ``_round_pair``, so it equals mpf's * and + to the bit without a
    sign, a normalisation or an mpf per value.
    """

    table_unit = (1, 0)

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
        """The libmp calls of ``mpf(2) ** (p * beta_sq + q)`` under
        ``workprec(precision)``, on raw values: the same value to the bit."""
        from mpmath import mp
        from mpmath.libmp import from_int, mpf_add, mpf_mul_int, mpf_pow
        prec = self.precision
        x = mpf_add(mpf_mul_int(self.beta_sq._mpf_, p, prec, "n"),
                    from_int(q), prec, "n")
        return mp.make_mpf(mpf_pow(from_int(2), x, prec, "n"))

    def table_mul(self, x, y) -> tuple:
        return _round_pair(x[0] * y[0], x[1] + y[1], self.precision)

    def table_add(self, x, y) -> tuple:
        (a, ea), (b, eb) = (x, y) if x[1] >= y[1] else (y, x)
        gap, prec = ea - eb, self.precision
        if gap > prec + 4 + b.bit_length() - a.bit_length():
            # b 2^eb is below 1/32 ulp of a 2^ea, a rounded value, so the
            # sum rounds to a 2^ea; the int never grows with the gap.
            return a, ea
        return _round_pair((a << gap) + b, eb, prec)

    def table_multiplier(self, c: int, e: ExpPair, j: int):
        from mpmath.libmp import mpf_mul_int
        prec = self.precision
        _, man, exp, _ = mpf_mul_int(self.two_pow(*e)._mpf_, c, prec, "n")
        exp += j
        return lambda x: _round_pair(man * x[0], exp + x[1], prec)

    def from_table(self, x, e: int) -> mpmath.mpf:
        from mpmath import libmp, mp
        return mp.make_mpf(libmp.from_man_exp(x[0], x[1] - e))

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

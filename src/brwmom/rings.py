"""Exact and high-precision coefficient rings.

Every power appearing in the moment recursion has the shape
2^(p*beta^2 + q) with integer p, q, kept symbolic as ``ExpPair(p, q)``,
a NamedTuple.
The ring contexts below evaluate such powers in one of three backends:

* exact rationals (``fractions.Fraction``) when beta^2 is an integer,
* the radical field Q(2^(1/m)) when beta^2 = a/m in lowest terms,
* correctly rounded binary floats (mpmath) at a configurable precision.

Every ring context refuses a beta^2 outside [0, inf) when it is built,
so no ring holds one and the routes that resolve a ring do not check it.
``engine.MomentTable`` runs the moment recurrence in a scaled int form
of these rings, which ``engine``'s module docstring states.

The dense polynomial helpers (coefficient tuples, lowest degree first)
are the package's one polynomial arithmetic: ``_p*`` over any exact ring,
``_q*`` on ``QForm`` (nums, den), the normal form of a polynomial over Q:
int nums over den > 0, gcd(den, *nums) = 1, trimmed.  ``Radical`` and
``symbolic.RatFun`` store it; ``RatFun`` takes each gcd (the primitive
PRS, Collins 1967) and exact quotient from it.  All values are immutable;
operations are pure functions.  mpmath is imported by the functions that
use it, so exact arithmetic never loads it.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from math import gcd, inf, lcm
from typing import NamedTuple, Tuple, Union

DEFAULT_PRECISION = 256
MIN_PRECISION = 64

ExactScalar = Union[int, Fraction]
Coeffs = Tuple[Fraction, ...]
QForm = Tuple[Tuple[int, ...], int]


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


def _fold_mul(x, y, m: int) -> list:
    """The int convolution of x and y, folded once by x^m = 2 to m slots."""
    out = [0] * (2 * m - 1)
    for i, a in enumerate(x):
        if a:
            for t, b in enumerate(y, i):
                out[t] += a * b
    for d in range(m, 2 * m - 1):
        out[d - m] += 2 * out[d]
    return out[:m]


def _qnorm(nums, den: int) -> QForm:
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return _trim(n // g for n in nums), den // g


def _qform(cs) -> QForm:
    cs = _trim(Fraction(c) for c in cs)
    den = lcm(*(c.denominator for c in cs))
    return tuple(c.numerator * (den // c.denominator) for c in cs), den


def _qcoeffs(a: QForm) -> Coeffs:
    nums, den = a
    return tuple(Fraction(n, den) for n in nums)


def _qadd(a: QForm, b: QForm, sign: int = 1) -> QForm:
    (x, dx), (y, dy) = a, b
    return _qnorm(_padd([dy * v for v in x], [sign * dx * v for v in y]),
                  dx * dy)


def _qmul(a: QForm, b: QForm) -> QForm:
    (x, dx), (y, dy) = a, b
    return _qnorm(_pmul(x, y), dx * dy)


def _qdivmod(a: QForm, b: QForm) -> Tuple[QForm, QForm]:
    """(q, r) with a = q b + r, deg r < deg b: Knuth's pseudo-division
    (TAOCP vol. 2, 4.6.1) of the ints, scaled per step only as needed."""
    (u, du), (v, dv) = a, b
    if not v:
        raise ZeroDivisionError("polynomial division by zero")
    lead, r, s = v[-1], list(u), du
    q = [0] * max(len(u) - len(v) + 1, 0)
    for k in reversed(range(len(q))):
        f = abs(lead) // gcd(r[-1], lead)
        if f > 1:
            r, q, s = [f * x for x in r], [f * x for x in q], f * s
        c = q[k] = r.pop() // lead
        for i, y in enumerate(v[:-1], k):
            r[i] -= c * y
    return _qnorm([c * dv for c in q], s), _qnorm(r, s)


def _qgcd(a: QForm, b: QForm) -> QForm:
    """The monic gcd of a and b != 0 by the primitive PRS: the primitive
    part of x is the nums of x / lc(x), monic over Q at the end.  A
    non-zero constant operand shares no factor: 1, with no division."""
    if len(a[0]) == 1 or len(b[0]) == 1:
        return (1,), 1
    u, v = (_qnorm(x, x[-1])[0] if x else () for x in (a[0], b[0]))
    while len(v) > 1:
        r = _qdivmod((u, 1), (v, 1))[1][0]
        u, v = v, _qnorm(r, r[-1])[0] if r else ()
    return ((1,), 1) if v else (u, u[-1])


def _check_beta_sq(beta_sq) -> None:
    if not 0 <= beta_sq < inf:
        raise ValueError("beta^2 must be nonnegative and finite")


def pow2(exponent: int) -> Fraction:
    """2**exponent as an exact rational; the exponent may be negative."""
    return Fraction(2) ** exponent


class Radical:
    """Element of the field Q(2^(1/m)): ``coeffs[j]`` multiplies 2^(j/m).

    The at most m coefficients are stored as their normal form ``form``,
    so equal values have equal forms; ``coeffs`` reads them as Fractions.
    A product is ``_fold_mul`` over the product of the denominators, as
    (2^(1/m))^m = 2.  Since x^m - 2 is irreducible over Q (Eisenstein at
    2) the ring is a field, so division is exact.
    The root index m is fixed per value.  Values of two indices compare
    when one is rational or the indices are coprime (the fields then share
    only Q); other mixes, and all mixed arithmetic, raise RingMismatchError.
    """

    __slots__ = ("m", "form")

    def __init__(self, m: int, coeffs) -> None:
        if m < 1:
            raise ValueError(f"root index must be positive, got {m}")
        cs = tuple(coeffs)
        if len(cs) > m:
            raise ValueError(
                f"expected at most {m} coefficients, got {len(cs)}")
        self.m, self.form = m, _qform(cs)

    @classmethod
    def rational(cls, m: int, value: ExactScalar) -> "Radical":
        return cls(m, (value,))

    @classmethod
    def root_power(cls, m: int, e: int) -> "Radical":
        """2^(e/m) for any integer e, reduced so the root exponent is in [0, m)."""
        s, r = divmod(e, m)
        return cls(m, (0,) * r + (pow2(s),))

    @property
    def coeffs(self) -> Coeffs:
        return _qcoeffs(self.form)

    def _new(self, form: QForm) -> "Radical":
        out = object.__new__(Radical)
        out.m, out.form = self.m, form
        return out

    def _coerce(self, value):
        """The form of a Radical of the same root index or of a rational;
        None for any other operand."""
        if isinstance(value, Radical):
            if value.m != self.m:
                raise RingMismatchError(
                    f"mixed root indices {self.m} and {value.m}")
            return value.form
        if isinstance(value, (int, Fraction)):
            return _qform((value,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._new(_qadd(self.form, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return (NotImplemented if o is None
                else self._new(_qadd(self.form, o, -1)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return (NotImplemented if o is None
                else self._new(_qadd(o, self.form, -1)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (x, dx), (y, dy) = self.form, o
        return self._new(_qnorm(_fold_mul(x, y, self.m), dx * dy))

    __rmul__ = __mul__

    def inverse(self) -> "Radical":
        """Multiplicative inverse by the extended Euclidean algorithm
        against x^m - 2, its cofactors kept as Radicals."""
        if not self:
            raise ZeroDivisionError("inverse of zero radical element")
        r0, r1 = ((-2,) + (0,) * (self.m - 1) + (1,), 1), self.form
        t0, t1 = 0, Radical.rational(self.m, 1)
        while len(r1[0]) > 1:
            r0, (q, r1) = r1, _qdivmod(r0, r1)
            t0, t1 = t1, t0 - self._new(q) * t1
        # r1 is a nonzero constant, as x^m - 2 is irreducible: t1 a = r1.
        return t1 * Fraction(r1[1], r1[0][0])

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * self._new(o).inverse()

    def __eq__(self, other):
        if isinstance(other, Radical) and other.m != self.m and (
                self.is_rational() or other.is_rational()
                or gcd(self.m, other.m) == 1):
            return self.is_rational() and self.form == other.form
        o = self._coerce(other)
        return NotImplemented if o is None else self.form == o

    def __hash__(self):  # a rational equals its Fraction: hash as one
        return hash(self.to_fraction() if self.is_rational()
                    else (self.m, self.form))

    def __bool__(self):
        return bool(self.form[0])

    def is_rational(self) -> bool:
        return len(self.form[0]) <= 1

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
    """The exact rings' beta^2 = numer/m in lowest terms."""

    workprec = staticmethod(nullcontext)

    def __init__(self, beta_sq) -> None:
        _check_beta_sq(beta_sq)
        self.beta_sq = beta_sq
        self.numer, self.m = beta_sq.as_integer_ratio()


class RationalContext(_ExactContext):
    """Exact rational arithmetic; requires an integer beta^2."""

    tag = "rational"
    one, zero = Fraction(1), Fraction(0)

    def __init__(self, beta_sq: ExactScalar) -> None:
        if isinstance(beta_sq, Fraction) and beta_sq.denominator == 1:
            beta_sq = int(beta_sq)
        if not isinstance(beta_sq, int):
            raise RingMismatchError(
                f"rational ring needs integer beta^2, got {beta_sq}")
        super().__init__(beta_sq)

    def two_pow(self, p: int, q: int) -> Fraction:
        return pow2(p * self.beta_sq + q)


class RadicalContext(_ExactContext):
    """Arithmetic in Q(2^(1/m)) for beta^2 = a/m in lowest terms."""

    def __init__(self, beta_sq) -> None:
        super().__init__(Fraction(beta_sq))
        self.tag = f"radical({self.m})"
        self.one = Radical.rational(self.m, 1)
        self.zero = Radical.rational(self.m, 0)

    def two_pow(self, p: int, q: int) -> Radical:
        return Radical.root_power(self.m, p * self.numer + q * self.m)


def _mpf_two_pow(beta_sq: tuple, p: int, q: int, prec: int) -> tuple:
    """The libmp calls of ``mpf(2) ** (p * beta_sq + q)`` under
    ``workprec(prec)``, on raw values: the same value to the bit."""
    from mpmath.libmp import from_int, mpf_add, mpf_mul_int, mpf_pow
    x = mpf_add(mpf_mul_int(beta_sq, p, prec, "n"), from_int(q), prec, "n")
    return mpf_pow(from_int(2), x, prec, "n")


class FloatContext:
    """Correctly rounded binary floats at a configurable precision in bits.

    ``two_pow`` runs on raw mpmath values."""

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
        _check_beta_sq(self.beta_sq)

    def two_pow(self, p: int, q: int) -> mpmath.mpf:
        from mpmath import mp
        return mp.make_mpf(_mpf_two_pow(self.beta_sq._mpf_, p, q,
                                        self.precision))

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

"""Symbolic coefficient field and generalized exponential polynomials.

The closed forms of the partition-function moments live in Q(t) with
t = 2^(beta^2): every exponent is p*beta^2 + q for integers p, q, hence
every power of two is t^p * 2^q.  A ``GenPoly`` maps exponent pairs to
rational-function coefficients and represents a finite sum

    sum over (p, q) of  c_{p,q}(t) * 2^((p*beta^2 + q) * n).

``SymbolicContext`` is Q(t) as a ring context, in which ``engine``
solves the moment recursion for generic beta.  ``geometric_sum`` gives
a geometric series in this form; no route calls it, and the tests build
their lambda-sum reference for the closed form from it.  The dense
polynomial helpers over Q (coefficient tuples, lowest degree first) are
the only copy in the package; ``rings.Radical`` uses them for its
inverse.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Tuple

Coeffs = Tuple[Fraction, ...]


class DegenerateExponent(ArithmeticError):
    """A geometric sum with unit ratio has no closed form; the sum is n."""


def _trim(cs) -> Coeffs:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-x for x in a)


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in b_terms:
            out[i + j] += x * y
    return _trim(out)


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
        if not rem:
            break
    return _trim(q), _trim(rem)


def _pmonic(a: Coeffs) -> Coeffs:
    if not a or a[-1] == 1:
        return a
    inv = Fraction(1) / a[-1]
    return tuple(x * inv for x in a)


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    # Monic normalization each step keeps the coefficient growth in check.
    a, b = _pmonic(a), _pmonic(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, _pmonic(r)
    return a


def _peval(a: Coeffs, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


class RatFun:
    """Reduced ratio of two polynomials in t over the rationals.

    Normal form: numerator and denominator share no common factor and the
    denominator is monic, so equal values have equal representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)) -> None:
        num = _trim(Fraction(c) for c in num)
        den = _trim(Fraction(c) for c in den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
        else:
            den = (Fraction(1),)
        lead = den[-1]
        if lead != 1:
            inv = Fraction(1) / lead
            num = tuple(c * inv for c in num)
            den = tuple(c * inv for c in den)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls) -> "RatFun":
        return cls(())

    @classmethod
    def one(cls) -> "RatFun":
        return cls((Fraction(1),))

    @classmethod
    def t_power(cls, p: int, scale=Fraction(1)) -> "RatFun":
        """scale * t**p, with negative p putting the power below the line."""
        scale = Fraction(scale)
        if p >= 0:
            return cls((Fraction(0),) * p + (scale,))
        return cls((scale,), (Fraction(0),) * (-p) + (Fraction(1),))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        other = _lift(other)
        if not self.num or not other.num:  # no gcd to add zero
            return self if self.num else other
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return RatFun(num, _pmul(self.den, other.den))

    def __sub__(self, other):
        other = _lift(other)
        num = _padd(_pmul(self.num, other.den), _pneg(_pmul(other.num, self.den)))
        return RatFun(num, _pmul(self.den, other.den))

    def __neg__(self):
        return RatFun(_pneg(self.num), self.den)

    def __mul__(self, other):
        other = _lift(other)
        return RatFun(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate_parts(self, t):
        """(numerator, denominator) at t, for callers doing their own
        pole handling.  t may be a Fraction, mpf, or Radical."""
        return _peval(self.num, t), _peval(self.den, t)

    def evaluate(self, t):
        num, den = self.evaluate_parts(t)
        return num / den

    def __repr__(self) -> str:
        def fmt(cs):
            if not cs:
                return "0"
            parts = []
            for i in range(len(cs) - 1, -1, -1):
                c = cs[i]
                if not c:
                    continue
                if i == 0:
                    parts.append(f"{c}")
                elif i == 1:
                    parts.append(f"{c}*t" if c != 1 else "t")
                else:
                    parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
            return " + ".join(parts)

        if self.den == (Fraction(1),):
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


def _lift(value) -> RatFun:
    """A RatFun operand from a RatFun, int or Fraction."""
    if isinstance(value, (int, Fraction)):
        return RatFun((Fraction(value),))
    if not isinstance(value, RatFun):
        raise TypeError(f"no rational function from {type(value).__name__}")
    return value


class SymbolicContext:
    """Q(t) with the interface of the contexts in ``rings``."""

    kind = "symbolic"
    one, zero = RatFun.one(), RatFun.zero()
    workprec = staticmethod(nullcontext)

    def two_pow(self, p: int, q: int) -> RatFun:
        return RatFun.t_power(p, Fraction(2) ** q)


@dataclass(frozen=True)
class ExpPair:
    """Exponent p*beta^2 + q of a power of two, kept in symbolic form."""

    p: int
    q: int

    def plus(self, other: "ExpPair") -> "ExpPair":
        return ExpPair(self.p + other.p, self.q + other.q)

    def value_at(self, beta_sq):
        return self.p * beta_sq + self.q


class GenPoly:
    """Finite sum of terms c_{p,q}(t) * 2^((p*beta^2+q)*n)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[ExpPair, RatFun] | None = None) -> None:
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    def items(self) -> Iterator[Tuple[ExpPair, RatFun]]:
        return iter(sorted(self.terms.items(), key=lambda kv: (kv[0].p, kv[0].q)))

    def __len__(self) -> int:
        return len(self.terms)

    def __mul__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        out: Dict[ExpPair, RatFun] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1.plus(e2)
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return GenPoly(out)

    def __eq__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "GenPoly(0)"
        bits = [f"[{c!r}] * 2^(({e.p}b+{e.q})n)" for e, c in self.items()]
        return "GenPoly(" + " + ".join(bits) + ")"


def geometric_sum(step: ExpPair, n: int | None = None):
    """Sum of 2^((p*beta^2+q)*lam) for lam in [0, n).

    With symbolic n (the default) the closed form (r^n - 1)/(r - 1) is
    returned as a two-term GenPoly; a zero step has no closed form and
    raises DegenerateExponent.  With an integer n the partial sum is
    evaluated in Q(t) and returned as a RatFun, including the degenerate
    step where the sum is simply n.
    """
    degenerate = step == ExpPair(0, 0)
    ratio = SymbolicContext().two_pow(step.p, step.q)
    if n is not None:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if degenerate:
            return _lift(n)
        total = RatFun.zero()
        power = RatFun.one()
        for _ in range(n):
            total = total + power
            power = power * ratio
        return total
    if degenerate:
        raise DegenerateExponent(
            "unit-ratio geometric sum degenerates to n itself")
    inv = RatFun.one() / (ratio - RatFun.one())
    return GenPoly({step: inv, ExpPair(0, 0): -inv})

"""Symbolic coefficient field and generalized exponential polynomials.

The closed forms of the partition-function moments live in Q(t) with
t = 2^(beta^2): every exponent is p*beta^2 + q for integers p, q, hence
every power of two is t^p * 2^q.  A ``GenPoly`` maps exponent pairs to
rational-function coefficients and represents a finite sum

    sum over (p, q) of  c_{p,q}(t) * 2^((p*beta^2 + q) * n).

``RatFun`` is Q(t) in a reduced normal form on ``rings``' ``QForm``
arithmetic, each sum and product reduced by Henrici's gcds.
``SymbolicContext`` is that field as a ring context, in which
``engine.mom_symbolic`` solves the moment recursion for generic beta and
``geometric_sum`` builds a geometric series in closed form only, in
symbolic n; no route calls it, and the tests build their lambda-sum
reference from it.  No CLI route loads this module: ``mom_symbolic`` is
a library function and the tests' reference.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from typing import Dict, Iterator, Tuple

from .rings import (Coeffs, ExpPair, QForm, _pneg, _qadd, _qcoeffs, _qdivmod,
                    _qform, _qgcd, _qmul, _qnorm)


class DegenerateExponent(ArithmeticError):
    """A geometric sum with unit ratio has no closed form; the sum is n."""


def _peval(a: Coeffs, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


class RatFun:
    """Reduced ratio of two polynomials in t over the rationals.

    Normal form: numerator and denominator share no common factor and the
    denominator is monic, so equal values have equal representations.
    ``forms`` holds the two as ``QForm``s; ``num`` and ``den`` read them
    as Fractions.  The constructor takes one gcd of the whole; sums and
    products take Henrici's (J. ACM 3, 1956; TAOCP vol. 2, 4.5.1): a/b +
    c/d reduces a (d/g) + c (b/g) only against g = gcd(b, d), and a/b *
    c/d divides out gcd(a, d) and gcd(c, b).  Each result is normal.
    """

    __slots__ = ("forms",)

    def __init__(self, num, den=(Fraction(1),)) -> None:
        num, den = _qform(num), _qform(den)
        if not den[0]:
            raise ZeroDivisionError("rational function with zero denominator")
        g = _qgcd(num, den)
        self.forms = _monic(_quo(num, g), _quo(den, g))

    @property
    def num(self) -> Coeffs:
        return _qcoeffs(self.forms[0])

    @property
    def den(self) -> Coeffs:
        return _qcoeffs(self.forms[1])

    def __bool__(self) -> bool:
        return bool(self.forms[0][0])

    def __add__(self, other):
        other = _lift(other)
        (a, b), (c, d) = self.forms, other.forms
        if not a[0] or not c[0]:  # no gcd to add zero
            return self if a[0] else other
        g = _qgcd(b, d)
        b, d = _quo(b, g), _quo(d, g)
        s = _qadd(_qmul(a, d), _qmul(c, b))
        if not s[0]:
            return _ratfun(s, ((1,), 1))
        h = _qgcd(s, g)
        return _ratfun(_quo(s, h), _qmul(_qmul(b, d), _quo(g, h)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_lift(other)

    def __rsub__(self, other):
        return _lift(other) - self

    def __neg__(self):
        (a, da), b = self.forms
        return _ratfun((_pneg(a), da), b)

    def __mul__(self, other):
        other = _lift(other)
        (a, b), (c, d) = self.forms, other.forms
        if not a[0] or not c[0]:
            return other if a[0] else self
        g, h = _qgcd(a, d), _qgcd(c, b)
        return _ratfun(_qmul(_quo(a, g), _quo(c, h)),
                       _qmul(_quo(b, h), _quo(d, g)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return self * _ratfun(*_monic(other.forms[1], other.forms[0]))

    def __eq__(self, other):
        if not isinstance(other, (RatFun, int, Fraction)):
            return NotImplemented
        return self.forms == _lift(other).forms

    def __hash__(self):  # a constant equals its Fraction: hash as one
        (a, da), (b, _) = self.forms
        constant = len(b) == 1 and len(a) < 2
        return hash(Fraction(sum(a), da) if constant else self.forms)

    def evaluate_parts(self, t):
        """(numerator, denominator) at t, for callers doing their own
        pole handling.  t may be a Fraction, mpf, or Radical."""
        return _peval(self.num, t), _peval(self.den, t)

    def __repr__(self) -> str:
        def fmt(cs):
            terms = [f"{c}" if i == 0 else ("" if c == 1 else f"{c}*")
                     + ("t" if i == 1 else f"t^{i}")
                     for i, c in reversed(list(enumerate(cs))) if c]
            return " + ".join(terms) or "0"

        if len(self.forms[1][0]) == 1:
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


def _quo(a: QForm, g: QForm) -> QForm:
    """a / g, exact, for g a monic divisor of a."""
    return a if len(g[0]) == 1 else _qdivmod(a, g)[0]


def _monic(num: QForm, den: QForm) -> Tuple[QForm, QForm]:
    """The forms of num / den over a monic denominator."""
    (a, da), (b, db) = num, den
    return _qnorm([x * db for x in a], da * b[-1]), _qnorm(b, b[-1])


def _ratfun(num: QForm, den: QForm) -> RatFun:
    """num / den, two coprime forms with den monic, as it stands."""
    out = object.__new__(RatFun)
    out.forms = num, den
    return out


def _lift(value) -> RatFun:
    """A RatFun operand from a RatFun, int or Fraction."""
    if isinstance(value, (int, Fraction)):
        return _ratfun(_qform((value,)), ((1,), 1))
    if not isinstance(value, RatFun):
        raise TypeError(f"no rational function from {type(value).__name__}")
    return value


class SymbolicContext:
    """Q(t) of ``RatFun`` elements, with the interface of ``rings``."""

    one, zero = RatFun((Fraction(1),)), RatFun(())
    workprec = staticmethod(nullcontext)

    def two_pow(self, p: int, q: int) -> RatFun:
        """t^p * 2^q, with t^(-p) below the line for negative p."""
        return RatFun((0,) * max(p, 0) + (Fraction(2) ** q,),
                      (0,) * max(-p, 0) + (1,))


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


def geometric_sum(step: ExpPair) -> GenPoly:
    """Sum of 2^((p*beta^2+q)*lam) for lam in [0, n), with symbolic n.

    Returns the closed form (r^n - 1)/(r - 1) only, as a two-term GenPoly;
    a zero step has no closed form and raises DegenerateExponent.
    """
    if step == ExpPair(0, 0):
        raise DegenerateExponent(
            "unit-ratio geometric sum degenerates to n itself")
    ctx = SymbolicContext()
    inv = ctx.one / (ctx.two_pow(*step) - ctx.one)
    return GenPoly({step: inv, ExpPair(0, 0): -inv})

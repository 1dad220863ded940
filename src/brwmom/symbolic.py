"""Symbolic coefficient field and generalized exponential polynomials.

The closed forms of the partition-function moments live in Q(t) with
t = 2^(beta^2): every exponent is p*beta^2 + q for integers p, q, hence
every power of two is t^p * 2^q.  A ``GenPoly`` maps exponent pairs to
rational-function coefficients and represents a finite sum

    sum over (p, q) of  c_{p,q}(t) * 2^((p*beta^2 + q) * n).

``SymbolicContext`` is Q(t) as a ring context, in which
``engine.mom_symbolic`` solves the moment recursion for generic beta.
Its elements keep denominators factored, num / (t^v * prod of core^m):
every divisor of the closed form is a binomial 2^q t^p - 2^q' t^p', so
sums and products take no gcd.  ``to_ratfun`` reduces each coefficient
to a ``RatFun`` once, at the end, core by core: one gcd of the numerator
with each core's power, none with the whole denominator.
``geometric_sum`` gives a geometric series in closed form only, in
symbolic n; no route calls it, and the tests build their lambda-sum
reference from it.  ``ExpPair`` and the polynomial arithmetic come from
``rings``, each gcd and exact quotient on its integer normal form.  No
CLI route loads this module: ``mom_symbolic`` is a library function and
the tests' reference.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from typing import Dict, Iterator, Tuple

from .rings import (Coeffs, ExpPair, QForm, _padd, _pmul, _pneg, _qdivmod,
                    _qform, _qgcd, _trim)


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
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)) -> None:
        num, den = _qform(num), _qform(den)
        if not den[0]:
            raise ZeroDivisionError("rational function with zero denominator")
        if len((g := _qgcd(num, den))[0]) > 1:
            num, den = _qdivmod(num, g)[0], _qdivmod(den, g)[0]
        self._set(num, den)

    def _set(self, num: QForm, den: QForm) -> "RatFun":
        """num / den, two coprime forms, over a monic denominator."""
        (a, da), (b, db) = num, den
        self.num = tuple(Fraction(x * db, da * b[-1]) for x in a)
        self.den = tuple(Fraction(y, b[-1]) for y in b)
        return self

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

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        num = _padd(_pmul(self.num, other.den), _pneg(_pmul(other.num, self.den)))
        return RatFun(num, _pmul(self.den, other.den))

    def __rsub__(self, other):
        return _lift(other) - self

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
        if not isinstance(other, (RatFun, int, Fraction)):
            return NotImplemented
        other = _lift(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):  # a constant equals its Fraction: hash as one
        constant = self.den == (1,) and len(self.num) < 2
        return hash(_peval(self.num, 0) if constant else (self.num, self.den))

    def evaluate_parts(self, t):
        """(numerator, denominator) at t, for callers doing their own
        pole handling.  t may be a Fraction, mpf, or Radical."""
        return _peval(self.num, t), _peval(self.den, t)

    def evaluate(self, t):
        num, den = self.evaluate_parts(t)
        return num / den

    def __repr__(self) -> str:
        def fmt(cs):
            terms = [f"{c}" if i == 0 else ("" if c == 1 else f"{c}*")
                     + ("t" if i == 1 else f"t^{i}")
                     for i, c in reversed(list(enumerate(cs))) if c]
            return " + ".join(terms) or "0"

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


def _times_cores(num: Coeffs, cores: dict) -> Coeffs:
    for core, m in cores.items():
        for _ in range(m):
            num = _pmul(num, core)
    return num


class _Factored:
    """num / (t^v * prod of core^m): ``num`` has a non-zero constant term
    (its leading zeros move into v) and each core is monic with a non-zero
    constant term, so equal monomials t^p 2^q have equal representations."""

    __slots__ = ("num", "v", "cores")

    def __init__(self, num, v: int = 0, cores: dict | None = None) -> None:
        num = _trim(num)
        z = next((i for i, c in enumerate(num) if c), 0)
        self.num, self.v = num[z:], v - z if num else 0
        self.cores = (cores or {}) if num else {}

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        other = _factored(other)
        if not self.num or not other.num:
            return self if self.num else other
        v, cores = max(self.v, other.v), dict(self.cores)
        for core, m in other.cores.items():
            cores[core] = max(cores.get(core, 0), m)

        def lift(x):
            missing = {c: m - x.cores.get(c, 0) for c, m in cores.items()}
            return _times_cores((Fraction(0),) * (v - x.v) + x.num, missing)

        return _Factored(_padd(lift(self), lift(other)), v, cores)

    def __neg__(self):
        return _Factored(_pneg(self.num), self.v, self.cores)

    def __sub__(self, other):
        return self + -_factored(other)

    def __mul__(self, other):
        other = _factored(other)
        cores = dict(self.cores)
        for core, m in other.cores.items():
            cores[core] = cores.get(core, 0) + m
        return _Factored(_pmul(self.num, other.num), self.v + other.v, cores)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # other = lead core / (t^w C): times t^w C / lead, over the core.
        other = _factored(other)
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        lead = other.num[-1]
        cores = dict(self.cores)
        if len(other.num) > 1:
            core = tuple(c / lead for c in other.num)
            cores[core] = cores.get(core, 0) + 1
        num = _times_cores(self.num, other.cores)
        return _Factored(tuple(c / lead for c in num), self.v - other.v, cores)

    def __eq__(self, other):
        if not isinstance(other, (_Factored, int, Fraction)):
            return NotImplemented
        return not self - other

    def __hash__(self):  # as its RatFun, which a constant's Fraction equals
        return hash(self.to_ratfun())

    def to_ratfun(self) -> RatFun:
        """One gcd of num with each core's power, divided out of both,
        leaves num prime to each reduced power and so to their product
        (and, as all have non-zero constant terms, to t^v): RatFun's
        normal form, built with no further gcd."""
        num = _qform((0,) * -self.v + self.num)
        den = (0,) * self.v + (1,), 1
        for core, m in self.cores.items():
            power = _qform(_times_cores((Fraction(1),), {core: m}))
            if len((g := _qgcd(num, power))[0]) > 1:
                num, power = _qdivmod(num, g)[0], _qdivmod(power, g)[0]
            den = _pmul(den[0], power[0]), den[1] * power[1]
        return RatFun.__new__(RatFun)._set(num, den)


def _factored(value) -> _Factored:
    return (value if isinstance(value, _Factored)
            else _Factored((Fraction(value),)))


class SymbolicContext:
    """Q(t) of ``_Factored`` elements, with the interface of ``rings``."""

    one, zero = _Factored((Fraction(1),)), _Factored(())
    workprec = staticmethod(nullcontext)

    def two_pow(self, p: int, q: int) -> _Factored:
        return _Factored((Fraction(2) ** q,), -p)


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
    ratio = RatFun.t_power(step.p, Fraction(2) ** step.q)
    inv = RatFun.one() / (ratio - RatFun.one())
    return GenPoly({step: inv, ExpPair(0, 0): -inv})

"""sympy as an oracle for the exact layers: the Q(t) closed form, its
gcd, the radical field Q(2^(1/m)) and the rational closed form in 2^n.
sympy shares no code with ``rings``, ``symbolic`` or ``engine``.  It is
imported at the top, so a missing sympy fails these tests and never
skips them."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brwmom import Radical, mom_polynomial, mom_symbolic
from brwmom.rings import _qcoeffs, _qform, _qgcd

T = sympy.Symbol("t")


@lru_cache(maxsize=None)
def moment(j, d, t=T):
    """E[Z_d^j] as a polynomial in t = 2^(beta^2), from first principles:
    Z_(d+1) = (e^(2 beta g) Z' + e^(2 beta g') Z'') / 2 over independent
    subtrees, and E[e^(2 beta i g)] = t^(i^2), so
    E[Z_(d+1)^j] = 2^-j sum_i C(j, i) t^(i^2 + (j-i)^2) M_i(d) M_(j-i)(d).
    A number t gives the moment at that beta^2."""
    if j == 0 or d == 0:
        return sympy.Integer(1)
    return sympy.expand(sympy.Rational(1, 2 ** j) * sum(
        comb(j, i) * t ** (i * i + (j - i) ** 2)
        * moment(i, d - 1, t) * moment(j - i, d - 1, t)
        for i in range(j + 1)))


def poly(coeffs):
    """A coefficient tuple, lowest degree first, as a sympy polynomial."""
    return sympy.Poly(list(reversed(coeffs)) or [0], T, domain="QQ")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_equals_the_recursion(k):
    # sum_e c_e(t) t^(p d) 2^(q d) over the terms is M_k(d) at every depth
    # d = 0 .. terms + 2, and each c_e = num/den is in lowest terms.
    terms = mom_symbolic(k).terms
    parts = []
    for e, c in terms.items():
        num, den = poly(c.num), poly(c.den)
        assert sympy.gcd(num, den).degree() == 0, (e, c)
        parts.append((e, num.as_expr() / den.as_expr()))
    for d in range(len(terms) + 3):
        closed = sum(c * T ** (e.p * d) * sympy.Rational(2) ** (e.q * d)
                     for e, c in parts)
        assert sympy.cancel(closed - moment(k, d)) == 0, d


int_poly = st.lists(st.integers(-9, 9), min_size=1, max_size=5)


@given(int_poly, int_poly, st.lists(st.integers(-4, 4), min_size=1,
                                    max_size=3))
@settings(max_examples=200, deadline=None)
@example([1], [1, 1], [-2, 1])  # linear operands sharing t - 2
@example([0, 1], [3], [1, 0, 1])
def test_qgcd_equals_sympy_gcd(a, b, factor):
    # a f and b f share f, a planted factor (a constant f plants none).
    a, b, f = (poly(x) for x in (a, b, factor))
    a, b = a * f, b * f
    assume(not a.is_zero and not b.is_zero)
    want = sympy.gcd(a, b).monic().all_coeffs()[::-1]
    got = _qcoeffs(_qgcd(*(_qform(x.all_coeffs()[::-1]) for x in (a, b))))
    assert got == tuple(Fraction(int(c.p), int(c.q)) for c in want)


@pytest.mark.parametrize("m", range(1, 13))
def test_radical_arithmetic_equals_sympy_field(m):
    # Q(2^(1/m)) as sympy's own algebraic field, arithmetic modulo the
    # minimal polynomial it derives for 2^(1/m).
    field = sympy.QQ.algebraic_field(sympy.root(2, m))
    root = field.from_sympy(sympy.root(2, m))

    def element(x):
        return sum((field.convert(sympy.Rational(c.numerator, c.denominator))
                    * root ** j for j, c in enumerate(x.coeffs)), field.zero)

    rng = random.Random(m)

    def draw():
        return Radical(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           if rng.random() < 0.8 else 0 for _ in range(m)])

    for _ in range(6):
        a, b = draw(), draw()
        assert element(a * b) == element(a) * element(b), (a, b)
        if a:
            assert element(a.inverse()) == field.one / element(a), a


@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_mom_polynomial_equals_the_recursion(k, beta):
    # sum_d c_d 2^(d n) is M_k(n) at t = 2^(beta^2), n = 0 .. terms + 2.
    coefficients = mom_polynomial(k, beta).coefficients
    t = sympy.Integer(2 ** (beta * beta))
    for n in range(len(coefficients) + 3):
        want = moment(k, n, t)
        assert sum(c * 2 ** (d * n) for d, c in coefficients.items()) == \
            Fraction(int(want.p), int(want.q)), n

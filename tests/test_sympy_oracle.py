"""sympy as an oracle for the Q(t) layer: it shares no code with ``rings``
or ``symbolic``.  sympy is imported at the top, so a missing sympy fails
these tests and never skips them."""

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brwmom import mom_symbolic
from brwmom.rings import _qcoeffs, _qform, _qgcd

T = sympy.Symbol("t")


@lru_cache(maxsize=None)
def moment(j, d):
    """E[Z_d^j] as a polynomial in t = 2^(beta^2), from first principles:
    Z_(d+1) = (e^(2 beta g) Z' + e^(2 beta g') Z'') / 2 over independent
    subtrees, and E[e^(2 beta i g)] = t^(i^2), so
    E[Z_(d+1)^j] = 2^-j sum_i C(j, i) t^(i^2 + (j-i)^2) M_i(d) M_(j-i)(d)."""
    if j == 0 or d == 0:
        return sympy.Integer(1)
    return sympy.expand(sympy.Rational(1, 2 ** j) * sum(
        comb(j, i) * T ** (i * i + (j - i) ** 2)
        * moment(i, d - 1) * moment(j - i, d - 1) for i in range(j + 1)))


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

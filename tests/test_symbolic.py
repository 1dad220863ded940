from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from brwmom import (DegenerateExponent, ExpPair, GenPoly, Radical, RatFun,
                    geometric_sum)
from brwmom.engine import _closed_forms, evaluate_genpoly
from brwmom.rings import _padd, _pmul, _qdivmod
from brwmom.symbolic import SymbolicContext


def rf(num, den=(1,)):
    return RatFun([Fraction(c) for c in num], [Fraction(c) for c in den])


class TestRatFun:
    def test_gcd_reduction(self):
        # (t^2 - 1)/(t - 1) reduces to t + 1
        assert rf([-1, 0, 1], [-1, 1]) == rf([1, 1])

    def test_monic_denominator(self):
        f = rf([1], [2, 4])  # 1/(4t + 2) -> (1/4)/(t + 1/2)
        assert f.den[-1] == 1

    def test_negative_t_power(self):
        f = RatFun.t_power(-2, Fraction(3))
        assert f.evaluate(Fraction(2)) == Fraction(3, 4)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rf([1], [0])

    def test_evaluate_at_mpf(self):
        f = rf([-1, 0, 1], [-2, 0, 1])  # (t^2-1)/(t^2-2)
        with mp.workprec(128):
            v = f.evaluate(mpmath.mpf(2))
        assert abs(v - mpmath.mpf(3) / 2) < 1e-30

    def test_evaluate_at_radical(self):
        f = rf([-1, 0, 1], [-4, 0, 1])  # (t^2-1)/(t^2-4)
        t = Radical.root_power(2, 1)  # sqrt(2)
        assert f.evaluate(t) == Radical.rational(2, Fraction(1, -2))


poly_strategy = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    min_size=0, max_size=4)


class TestRatFunField:
    @given(poly_strategy, poly_strategy)
    @settings(max_examples=200, deadline=None)
    def test_multiply_then_divide_roundtrips(self, f_num, g_num):
        f = RatFun(f_num)
        g = RatFun(g_num)
        if not g:
            return
        assert (f * g) / g == f

    @given(poly_strategy, poly_strategy, poly_strategy)
    @settings(max_examples=100, deadline=None)
    def test_distributive(self, a, b, c):
        fa, fb, fc = RatFun(a), RatFun(b), RatFun(c)
        assert fa * (fb + fc) == fa * fb + fa * fc


class TestGeometricSum:
    def test_symbolic_degenerate_raises(self):
        with pytest.raises(DegenerateExponent):
            geometric_sum(ExpPair(0, 0))

    def test_symbolic_two_term_shape(self):
        # step 2*beta^2 - 1: coefficient 1/(t^2/2 - 1) = 2/(t^2 - 2)
        g = geometric_sum(ExpPair(2, -1))
        assert set(g.terms) == {ExpPair(2, -1), ExpPair(0, 0)}
        assert g.terms[ExpPair(2, -1)] == rf([2], [-2, 0, 1])
        assert g.terms[ExpPair(0, 0)] == rf([-2], [-2, 0, 1])

    @pytest.mark.parametrize("p,q", [(1, 0), (0, 2), (2, -1), (-1, 1),
                                     (3, -2), (0, -1)])
    @pytest.mark.parametrize("beta_sq", [1, 2, 3])
    def test_closed_form_matches_direct_sum_exactly(self, p, q, beta_sq):
        # rational t: evaluate the symbolic two-term form and compare with
        # outright summation, both exact
        step = ExpPair(p, q)
        if step.value_at(beta_sq) == 0:
            return
        g = geometric_sum(step)
        for n in (0, 1, 2, 5, 13, 20):
            closed = evaluate_genpoly(g, beta_sq, n)
            direct = sum((Fraction(2) ** (step.value_at(beta_sq) * lam)
                          for lam in range(n)), Fraction(0))
            assert closed == direct

    @pytest.mark.parametrize("p,q", [(1, 0), (2, -1), (-2, 1)])
    def test_closed_form_matches_direct_sum_float(self, p, q):
        step = ExpPair(p, q)
        g = geometric_sum(step)
        with mp.workprec(256):
            bs = mpmath.mpf("0.37")
            for n in (1, 7, 20):
                closed = evaluate_genpoly(g, 0.37, n, precision=256)
                direct = sum(mpmath.mpf(2) ** (step.value_at(bs) * lam)
                             for lam in range(n))
                assert abs(closed - direct) / direct < mpmath.mpf(1e-12)


class TestGenPoly:
    def test_zero_coefficients_dropped(self):
        g = GenPoly({ExpPair(1, 0): RatFun(()),
                     ExpPair(2, 0): RatFun.one()})
        assert len(g) == 1

    def test_product_adds_exponents(self):
        a = GenPoly({ExpPair(1, 0): RatFun.one()})
        b = GenPoly({ExpPair(2, -1): rf([3])})
        prod = a * b
        assert prod.terms[ExpPair(3, -1)] == rf([3])


CTX = SymbolicContext()


def full_sum(f, g, sign=1):
    """f + sign * g over the product of the denominators, reduced by
    ``RatFun(num, den)``'s one gcd of the whole: the Euclidean reference
    for Henrici's gcds."""
    num = _padd(_pmul(f.num, g.den),
                _pmul(tuple(sign * c for c in g.num), f.den))
    return RatFun(num, _pmul(f.den, g.den))


REFERENCE = {"+": full_sum, "-": lambda f, g: full_sum(f, g, -1),
             "*": lambda f, g: RatFun(_pmul(f.num, g.num),
                                      _pmul(f.den, g.den)),
             "/": lambda f, g: RatFun(_pmul(f.num, g.den),
                                      _pmul(f.den, g.num))}
OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def monomial(c, p, q):
    """c t^p 2^q, as SymbolicContext builds it."""
    return c * CTX.two_pow(p, q)


def binomial(p, q, p2, q2):
    """2^q t^p - 2^q2 t^p2, the shape of every divisor b - s_j of the
    closed form, built by the reference."""
    return REFERENCE["-"](monomial(1, p, q), monomial(1, p2, q2))


# t^8 - 2 and t^16 - 4 = (t^8 - 2)(t^8 + 2) share a factor; t^3 - 2 t^3
# is a pure power of t.
SHARED = [(8, 0, 0, 1), (16, 0, 0, 2), (16, 0, 8, 1), (3, 0, 3, 1)]
binomials = st.one_of(
    st.sampled_from(SHARED),
    st.tuples(st.integers(0, 6), st.integers(-2, 2), st.integers(0, 6),
              st.integers(-2, 2)).filter(lambda b: b[:2] != b[2:]))
monomials = st.tuples(st.integers(-3, 3), st.integers(-4, 4),
                      st.integers(-2, 2))
steps = st.lists(st.one_of(
    st.tuples(st.sampled_from("+-*"), st.just(monomial), monomials),
    st.tuples(st.sampled_from("+-*/"), st.just(binomial), binomials)),
    max_size=8)


def run_both(start, ops):
    """The same operations by RatFun's operators and by the reference."""
    f = r = monomial(*start)
    for op, make, args in ops:
        g = make(*args)
        f, r = OPS[op](f, g), REFERENCE[op](r, g)
    return f, r


class TestFactoredRing:
    """Values whose denominators factor into the closed form's binomials,
    in SymbolicContext's field: Henrici's gcds against the whole gcd."""

    @given(monomials, steps)
    @settings(max_examples=150, deadline=None)
    # (t^8 - 2)^2 / (t^16 - 4)^2 = 1 / (t^8 + 2)^2: a gcd with one
    # factor alone leaves a t^8 - 2 on both sides.
    @example((1, 0, 0), [("*", binomial, (8, 0, 0, 1))] * 2
             + [("/", binomial, (16, 0, 0, 2))] * 2)
    # 1/(t (t - 1)) + 1/t = t/(t (t - 1)): the sum shares t with the gcd
    # of the denominators.
    @example((1, 0, 0), [("/", binomial, (1, 0, 0, 0)),
                         ("*", monomial, (1, -1, 0)),
                         ("+", monomial, (1, -1, 0))])
    def test_reduced_equals_ratfun(self, start, ops):
        f, r = run_both(start, ops)
        assert f.forms == r.forms and repr(f) == repr(r)
        assert bool(f) == bool(r) and hash(f) == hash(r)

    @given(monomials, steps, monomials, steps)
    @settings(max_examples=50, deadline=None)
    def test_quotient_of_factored_values(self, start, ops, start2, ops2):
        # The divisor carries binomials of its own, unlike b - s_j.
        (f, r), (g, s) = run_both(start, ops), run_both(start2, ops2)
        if s:
            assert (f / g).forms == REFERENCE["/"](r, s).forms

    @given(monomials, steps, binomials)
    @settings(max_examples=50, deadline=None)
    def test_equal_values_hash_equally(self, start, ops, b):
        # f * b / b puts b below the line and cancels it again.
        f, _ = run_both(start, ops)
        g = f * binomial(*b) / binomial(*b)
        assert g == f and hash(g) == hash(f)
        assert f + CTX.one != f

    @given(monomials, steps, st.fractions(min_value=-4, max_value=4,
                                          max_denominator=8))
    @settings(max_examples=50, deadline=None)
    def test_constant_hashes_as_its_fraction(self, start, ops, q):
        # f * q / f puts f's binomials and power of t below the line and
        # cancels them again: a constant RatFun, equal to the Fraction q.
        f, _ = run_both(start, ops)
        for x in (q * CTX.one, f * q / f if f else q * CTX.one):
            assert x == q and hash(x) == hash(q)
            assert x in {q} and q in {x}

    @pytest.mark.parametrize("k", range(1, 6))
    def test_closed_form_reduces_as_the_whole_gcd(self, k):
        forms = _closed_forms(k, SymbolicContext())
        for _, coeffs in forms[k].values():
            for c in coeffs:
                oracle = RatFun(c.num, c.den)
                assert c.forms == oracle.forms and repr(c) == repr(oracle)

    def test_shared_factor_cancels_in_the_reduction(self):
        core, wide = binomial(8, 0, 0, 1), binomial(16, 0, 0, 2)
        x = CTX.one / core
        y = (CTX.two_pow(8, 0) + 2) / wide
        assert x == y == RatFun.one() / rf([-2] + [0] * 7 + [1])
        assert x - y == RatFun(())

    def test_cancels_to_zero(self):
        x = 3 * CTX.two_pow(2, -1) / binomial(8, 0, 0, 1)
        y = CTX.two_pow(-1, 2) / binomial(5, 1, 2, 0)
        z = (x + y) - y - x
        assert not z and z == 0 and z.den == (1,)

    def test_pure_power_of_t(self):
        x = CTX.two_pow(3, 1) / binomial(5, 0, 5, 1)  # 2 t^3 / -t^5
        assert x == RatFun.t_power(-2, -2)

    def test_monomials_equal_exactly_when_exponents_do(self):
        grid = [(p, q) for p in range(-3, 4) for q in range(-2, 3)]
        for a in grid:
            for b in grid:
                x, y = CTX.two_pow(*a), CTX.two_pow(*b)
                assert (x == y) == (a == b), (a, b)
                if a == b:
                    assert hash(x) == hash(y)
        # A product of monomials is the same dict key as the monomial.
        key = CTX.two_pow(2, 0) * CTX.two_pow(-1, 1)
        assert {CTX.two_pow(1, 1): "b"}[key] == "b"


@pytest.mark.parametrize("call, expected", [
    (lambda: repr(GenPoly()), "GenPoly(0)"),
    (lambda: repr(geometric_sum(ExpPair(1, 0))),
     "GenPoly([(-1)/(t + -1)] * 2^((0b+0)n) + [(1)/(t + -1)] * 2^((1b+0)n))"),
    (lambda: Radical(2, [1]) == "1", False),
    (lambda: RatFun.one() == "1", False),
    (lambda: CTX.one == "1", False),
    (lambda: GenPoly() == "1", False),
    (lambda: Radical(2, [1]) * "1", TypeError),
    (lambda: RatFun.one() + Fraction(1, 2), rf([Fraction(3, 2)])),
    (lambda: RatFun.one() == 1, True),
    (lambda: Fraction(1, 2) == rf([1], [2]), True),
    (lambda: {Fraction(3, 2): "c"}[rf([3], [2])], "c"),
    (lambda: {RatFun(()): "z"}[0], "z"),
    (lambda: 1 + RatFun.one(), rf([2])),
    (lambda: 1 - rf([0, 1]), rf([1, -1])),
    (lambda: RatFun.one() + 0.5, TypeError),
    (lambda: GenPoly() * RatFun.one(), TypeError),
    (lambda: _qdivmod(((1,), 1), ((), 1)), ZeroDivisionError),
    (lambda: RatFun.one() / RatFun(()), ZeroDivisionError),
    (lambda: CTX.one / CTX.zero, ZeroDivisionError),
], ids=["GenPoly-repr-zero", "GenPoly-repr", "Radical-eq", "RatFun-eq",
        "Factored-eq", "GenPoly-eq", "Radical-mul", "RatFun-lift",
        "RatFun-eq-int", "RatFun-eq-Fraction", "RatFun-hash-Fraction",
        "RatFun-hash-zero", "RatFun-radd", "RatFun-rsub", "RatFun-lift-float", "GenPoly-mul", "pdivmod-zero", "RatFun-div-zero",
        "Factored-div-zero"])
def test_operands_off_the_routes(call, expected):
    # A rational operand lifts, a non-number one compares unequal or raises
    # TypeError, and a zero divisor raises: no route or other test does so.
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected

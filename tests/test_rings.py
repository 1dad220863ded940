import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_mul

from brwmom import Radical, RingMismatchError, engine, resolve_context, to_mpf
from brwmom.rings import (FloatContext, RadicalContext, RationalContext,
                          _padd, _pmul, _pneg, _qdivmod, _qform, _qgcd,
                          _qnorm, _trim)
from brwmom.symbolic import SymbolicContext


def rad(m, *coeffs):
    return Radical(m, [Fraction(c) for c in coeffs])


def radical_product_reference(x, y):
    """x * y by the schoolbook double loop: 2^(i/m) * 2^(j/m) is
    2^s * 2^(r/m) with (s, r) = divmod(i + j, m)."""
    m = x.m
    out = [Fraction(0)] * m
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            s, r = divmod(i + j, m)
            out[r] += a * b * 2 ** s
    return Radical(m, out)


class TestRadicalBasics:
    def test_sqrt_two_squares_to_two(self):
        assert rad(2, 0, 1) * rad(2, 0, 1) == rad(2, 2, 0)

    def test_plain_rational_product(self):
        assert rad(1, Fraction(3, 2)) * rad(1, 4) == rad(1, 6)

    def test_cube_roots_combine(self):
        assert rad(3, 0, 1, 0) * rad(3, 0, 0, 1) == rad(3, 2, 0, 0)

    def test_mixed_root_index_rejected(self):
        with pytest.raises(RingMismatchError):
            rad(2, 1, 0) * rad(3, 1, 0, 0)
        with pytest.raises(RingMismatchError):
            rad(2, 1, 0) + rad(4, 1, 0, 0, 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_generator_power_reduces_to_two(self, m):
        ctx = RadicalContext(Fraction(1, m))
        gen = power = ctx.two_pow(1, 0)
        for _ in range(m - 1):
            power = power * gen
        assert power == Radical(m, (2,))
        assert ctx.two_pow(m, 0) == power

    @pytest.mark.parametrize("e", [-7, -1, 0, 1, 3, 5, 11])
    def test_root_power_matches_float(self, e):
        v = RadicalContext(Fraction(1, 3)).two_pow(e, 0)
        assert float(v) == pytest.approx(2.0 ** (e / 3), rel=1e-12)

    def test_rational_detection(self):
        assert rad(2, 5, 0).is_rational()
        assert rad(2, 5, 0).to_fraction() == 5
        assert not rad(2, 0, 1).is_rational()
        with pytest.raises(ValueError):
            rad(2, 0, 1).to_fraction()

    def test_trimmed_form(self):
        # Trailing zeros are not stored, so padded inputs are one value.
        assert Radical(2, [1]) == Radical(2, [1, 0]) == 1
        assert hash(Radical(2, [1])) == hash(Radical(2, [1, 0]))
        assert Radical(2, [1, 0]).coeffs == (Fraction(1),)
        assert Radical(3, [0, 0, 0]).coeffs == () and not Radical(3, [])
        assert (rad(2, 1, 1) - rad(2, 0, 1)).coeffs == (Fraction(1),)
        assert (rad(2, 0, 1) * rad(2, 0, 1)).coeffs == (Fraction(2),)
        with pytest.raises(ValueError):
            Radical(2, [1, 0, 0])

    def test_scalar_mixing(self):
        x = rad(2, 1, 2)
        assert 3 * x == rad(2, 3, 6)
        assert x + 1 == rad(2, 2, 2)
        assert 1 - x == rad(2, 0, -2)
        assert x / 2 == rad(2, Fraction(1, 2), 1)


coeff_strategy = st.fractions(
    min_value=-4, max_value=4, max_denominator=8)


class TestRadicalReprAndHash:
    def test_repr(self):
        assert repr(rad(3, 1, Fraction(1, 2))) == "1 + 1/2*2^(1/3)"
        assert repr(rad(2, 0, 3)) == "3*2^(1/2)"
        assert repr(Radical(2, [])) == "0"

    def test_to_fraction_error_carries_the_repr(self):
        with pytest.raises(ValueError) as exc:
            rad(2, 0, 3).to_fraction()
        assert str(exc.value) == "3*2^(1/2) is not rational"

    @given(st.integers(1, 6), coeff_strategy,
           st.lists(coeff_strategy, min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    @example(2, Fraction(1), [0] * 6)
    @example(3, Fraction(0), [0] * 6)
    def test_rational_value_hashes_as_its_fraction(self, m, q, other):
        # x * y / y for a nonzero y reaches q through the field operations.
        y = Radical(m, other[:m]) or Radical(m, (1,))
        for x in (Radical(m, (q,)), Radical(m, (q,)) * y / y):
            assert x == q and hash(x) == hash(q)
            assert x in {q} and q in {x}

    def test_root_indices_compare_by_rational_value(self):
        # A rational compares by value, as it hashes; fields of coprime root
        # indices share only Q, so their irrationals differ.  Irrationals of
        # indices with a common factor (sqrt 2 lies in Q(2^(1/4))) raise,
        # as arithmetic across indices does.
        assert {Radical(2, [1]), Radical(3, [1])} == {1}
        assert len({Radical(2, [1]), Radical(3, [1])}) == 1
        assert Radical(2, [0, 1]) != Radical(3, [0, 1])
        assert Radical(2, [1]) != Radical(3, [0, 1])
        with pytest.raises(RingMismatchError):
            Radical(2, [0, 1]) == Radical(4, [0, 0, 1])
        with pytest.raises(RingMismatchError):
            Radical(2, [1]) + Radical(3, [1])


class TestRadicalField:
    @given(st.integers(1, 6), st.lists(coeff_strategy, min_size=6, max_size=6),
           st.lists(coeff_strategy, min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_product_matches_reference(self, m, a, b):
        x, y = Radical(m, a[:m]), Radical(m, b[:m])
        product = x * y
        assert product == radical_product_reference(x, y)
        with mpmath.mp.workprec(256):
            want = to_mpf(x, 256) * to_mpf(y, 256)
            error = abs(to_mpf(product, 256) - want)
            assert error <= abs(want) * mpmath.mpf(2) ** -200

    @given(st.integers(2, 5), st.lists(coeff_strategy, min_size=5, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_inverse_roundtrip(self, m, coeffs):
        x = Radical(m, coeffs[:m])
        if not x:
            return
        assert x * x.inverse() == Radical(m, (1,))

    @given(st.lists(coeff_strategy, min_size=2, max_size=2),
           st.lists(coeff_strategy, min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_division_inverts_multiplication(self, a, b):
        x, y = Radical(2, a), Radical(2, b)
        if not y:
            return
        assert (x * y) / y == x

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            rad(2, 0, 0).inverse()


# The Euclidean algorithm over Fractions that the normal form replaced in
# the package: an independent reference for its division, gcd and inverse.
def fraction_divmod(a, b):
    """(q, r) with a = q b + r, deg r < deg b, over Fraction tuples."""
    rem = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c, d = rem[-1] / b[-1], len(rem) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            rem[d + i] -= c * y
        rem = list(_trim(rem))
    return _trim(q), _trim(rem)


def fraction_monic(a):
    return tuple(x / a[-1] for x in a) if a else a


def fraction_gcd(a, b):
    """The monic gcd by Euclid, monic at each step."""
    a, b = fraction_monic(a), fraction_monic(b)
    while b:
        a, b = b, fraction_monic(fraction_divmod(a, b)[1])
    return a


def fraction_inverse(x):
    """x's inverse by the extended Euclidean algorithm against x^m - 2."""
    r0 = (Fraction(-2),) + (Fraction(0),) * (x.m - 1) + (Fraction(1),)
    r1, t0, t1 = x.coeffs, (), (Fraction(1),)
    while r1:
        q, rem = fraction_divmod(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
    return Radical(x.m, [c / r0[0] for c in t0])


def coefficients(form):
    nums, den = form
    return tuple(Fraction(n, den) for n in nums)


polys = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                 max_size=7).map(_trim)
nonzero_polys = polys.filter(bool)


def times(*factors):
    out = (Fraction(1),)
    for f in factors:
        out = _pmul(out, f)
    return out


class TestNormalForm:
    @given(polys, st.integers(-30, 30).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_form_is_the_normal_form(self, cs, scale):
        nums, den = form = _qform(cs)
        assert den > 0 and math.gcd(den, *nums) == 1 and nums == _trim(nums)
        assert coefficients(form) == cs
        assert _qnorm([n * scale for n in nums], den * scale) == form

    @given(polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_divmod_equals_fraction_division(self, a, b):
        q, r = _qdivmod(_qform(a), _qform(b))
        assert len(r[0]) < len(b)
        assert _padd(_pmul(coefficients(q), b), coefficients(r)) == a
        assert (coefficients(q), coefficients(r)) == fraction_divmod(a, b)

    @given(nonzero_polys, nonzero_polys, polys)
    @settings(max_examples=100, deadline=None)
    # A common factor of degree 2 whose leading coefficient is not 1.
    @example((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1)),
             (Fraction(1, 3), Fraction(0), Fraction(5, 2)))
    def test_gcd_equals_euclid(self, a, b, c):
        for x, y in ((a, b), (times(a, c), times(b, c)), (times(a, c), c)):
            if x and y:
                assert coefficients(_qgcd(_qform(x), _qform(y))) == (
                    fraction_gcd(x, y))

    @given(st.integers(1, 6), st.lists(coeff_strategy, min_size=6, max_size=6),
           st.lists(coeff_strategy, min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_product_equals_folded_fraction_convolution(self, m, a, b):
        out = list(_pmul(_trim(a[:m]), _trim(b[:m]))) + [Fraction(0)] * 2 * m
        for d in range(m, 2 * m - 1):
            out[d - m] += 2 * out[d]
        assert Radical(m, a[:m]) * Radical(m, b[:m]) == Radical(m, out[:m])

    @given(st.integers(2, 6), st.lists(coeff_strategy, min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    @example(6, [Fraction(3, 7)] + [0] * 5)
    def test_inverse_equals_fraction_euclid(self, m, coeffs):
        x = Radical(m, coeffs[:m])
        if x:
            assert x * x.inverse() == 1
            assert x.inverse() == fraction_inverse(x)


class TestContexts:
    def test_rational_requires_integer(self):
        with pytest.raises(RingMismatchError):
            RationalContext(0.3)
        with pytest.raises(RingMismatchError):
            RationalContext(Fraction(1, 2))
        assert RationalContext(Fraction(4, 1)).beta_sq == 4

    def test_two_pow_consistency_across_rings(self):
        # 2^(3*beta^2 - 1) at beta^2 = 1/2 in each backend
        exact = RadicalContext(Fraction(1, 2)).two_pow(3, -1)
        approx = FloatContext(0.5, 256).two_pow(3, -1)
        assert abs(to_mpf(exact, 256) - approx) < mpmath.mpf(2) ** -200

    def test_rational_two_pow_negative_exponent(self):
        ctx = RationalContext(1)
        assert ctx.two_pow(2, -3) == Fraction(1, 2)

    def test_resolve_auto(self):
        assert resolve_context(2).tag == "rational"
        assert resolve_context(Fraction(1, 3)).tag == "radical(3)"
        assert resolve_context(0.3).tag == "float(256)"

    def test_resolve_explicit_radical_rejects_float(self):
        with pytest.raises(RingMismatchError):
            resolve_context(0.3, ring="radical")

    def test_float_context_minimum_precision(self):
        with pytest.raises(ValueError):
            FloatContext(0.5, precision=32)

    def test_to_mpf_radical(self):
        v = to_mpf(RadicalContext(Fraction(1, 2)).two_pow(1, 0), 128)
        with mpmath.mp.workprec(128):
            want = mpmath.sqrt(2)
        assert abs(v - want) < mpmath.mpf(1e-30)


RADICAL_BETA_SQ = (Fraction(1), Fraction(1, 2), Fraction(2, 3),
                   Fraction(5, 6))  # root indices 1, 2, 3 and 6
EXACT_CONTEXTS = [RationalContext(2),
                  *(RadicalContext(b) for b in RADICAL_BETA_SQ),
                  SymbolicContext()]
EXPONENTS = [(p, q) for p in (-5, -1, 0, 2, 3) for q in (-2, 0, 1)]


def context_id(ctx):
    return getattr(ctx, "tag", type(ctx).__name__)


class TestRingContextProtocol:
    """Every ring context builds the ring's values through ``one``,
    ``zero`` and ``two_pow``, and runs its arithmetic under ``workprec``."""

    @pytest.mark.parametrize("ctx", EXACT_CONTEXTS + [FloatContext(0.3)],
                             ids=context_id)
    def test_interface(self, ctx):
        with ctx.workprec():
            assert ctx.two_pow(0, 0) == ctx.one
            assert ctx.one - ctx.one == ctx.zero and not ctx.zero
            assert ctx.one * ctx.two_pow(1, 0) == ctx.two_pow(1, 0)

    @pytest.mark.parametrize("ctx", EXACT_CONTEXTS, ids=context_id)
    def test_two_pow_times_its_inverse_is_one(self, ctx):
        for p, q in EXPONENTS:
            assert ctx.two_pow(p, q) * ctx.two_pow(-p, -q) == ctx.one, (p, q)

    @pytest.mark.parametrize("beta_sq", RADICAL_BETA_SQ, ids=str)
    def test_symbolic_two_pow_at_t_is_the_radical_power(self, beta_sq):
        # t = 2^(beta^2) in Q(2^(1/m)); t^p 2^q there is 2^(p beta^2 + q).
        ring = RadicalContext(beta_sq)
        t = ring.two_pow(1, 0)
        for p, q in EXPONENTS:
            num, den = SymbolicContext().two_pow(p, q).evaluate_parts(t)
            assert num / den == ring.two_pow(p, q), (p, q)


PAIR_PRECISIONS = (64, 256, 1024)


def mantissas(prec):
    """Table mantissas: at most prec bits, short ones included."""
    return st.one_of(st.integers(1, 64),
                     st.integers(1, prec).map(lambda k: (1 << k) - 1),
                     st.integers(1 << (prec - 1), (1 << prec) - 1),
                     st.integers(1, (1 << prec) - 1))


def pair_cases(prec):
    gaps = st.one_of(st.integers(-2 * prec - 8, 2 * prec + 8),
                     st.integers(-3000, 3000))
    return st.tuples(st.just(prec), mantissas(prec), mantissas(prec),
                     st.integers(-3000, 3000), gaps)


def round_half_up(man, exp, prec):
    """A faulty ``_round_pair``: ties go up, not to even."""
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    t = man >> (n - 1)
    return (t >> 1) + (t & 1), exp + n


# Ties to even that round down: 3 (2^(p-1) + 3) and 2 (2^(p-1) + 2) + 1
# have p + 1 bits and end in binary 01, a half above an even mantissa.
@example((64, (1 << 63) + 3, 3, 0, 0))
@example((1024, (1 << 1023) + 3, 3, -7, 5))
@example((256, (1 << 255) + 2, 1, 1, -1))
@given(st.sampled_from(PAIR_PRECISIONS).flatmap(pair_cases))
@settings(max_examples=400, deadline=None, report_multiple_bugs=False)
def test_pair_ops_equal_mpf(case):
    # ``_round_pair`` of an exact int product or sum rounds as mpf_mul and
    # mpf_add at round-nearest, to the bit, for ties, short mantissas and
    # exponent gaps up to 3000.
    prec, a, b, ea, gap = case
    x, y = (a, ea), (b, ea + gap)
    fx, fy = from_man_exp(*x), from_man_exp(*y)
    product = engine._round_pair(a * b, 2 * ea + gap, prec)
    assert from_man_exp(*product) == mpf_mul(fx, fy, prec, "n")
    (hi, e_hi), (lo, e_lo) = (y, x) if gap > 0 else (x, y)
    total = engine._round_pair((hi << (e_hi - e_lo)) + lo, e_lo, prec)
    assert from_man_exp(*total) == mpf_add(fx, fy, prec, "n")


def test_round_half_up_fails_pair_ops(monkeypatch):
    monkeypatch.setattr(engine, "_round_pair", round_half_up)
    with pytest.raises(AssertionError):
        test_pair_ops_equal_mpf()


def test_float_two_pow_equals_mpf_power():
    # two_pow on raw values is mpf(2) ** (p beta^2 + q) at the context's
    # precision to the bit, whatever the working precision around it.
    # 1/3 at 64 bits has a full mantissa, so p beta^2 + q is rounded.
    for beta_sq, prec in ((0.3, 256), (0.45, 64), (1.21, 1024), (0.25, 256),
                          (Fraction(1, 3), 64)):
        ctx = FloatContext(beta_sq, prec)
        for p, q in ((0, 0), (1, 0), (4, -1), (81, -8), (-5, 3), (400, 1)):
            with mpmath.workprec(prec):
                want = mpmath.mpf(2) ** (p * ctx.beta_sq + q)
            with mpmath.workprec(53):
                assert ctx.two_pow(p, q)._mpf_ == want._mpf_, (p, q)

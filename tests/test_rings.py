from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_add, mpf_mul, mpf_mul_int, mpf_shift

from brwmom import Radical, RingMismatchError, resolve_context, rings, to_mpf
from brwmom.rings import (ExpPair, FloatContext, RadicalContext,
                          RationalContext)


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
        gen = power = Radical.root_power(m, 1)
        for _ in range(m - 1):
            power = power * gen
        assert power == Radical.rational(m, 2)
        assert Radical.root_power(m, m) == power

    @pytest.mark.parametrize("e", [-7, -1, 0, 1, 3, 5, 11])
    def test_root_power_matches_float(self, e):
        v = Radical.root_power(3, e)
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
        y = Radical(m, other[:m]) or Radical.rational(m, 1)
        for x in (Radical.rational(m, q), Radical.rational(m, q) * y / y):
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
            want = x.to_mpf(256) * y.to_mpf(256)
            error = abs(product.to_mpf(256) - want)
            assert error <= abs(want) * mpmath.mpf(2) ** -200

    @given(st.integers(2, 5), st.lists(coeff_strategy, min_size=5, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_inverse_roundtrip(self, m, coeffs):
        x = Radical(m, coeffs[:m])
        if not x:
            return
        assert x * x.inverse() == Radical.rational(m, 1)

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
        assert abs(exact.to_mpf(256) - approx) < mpmath.mpf(2) ** -200

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
        v = to_mpf(Radical.root_power(2, 1), 128)
        with mpmath.mp.workprec(128):
            want = mpmath.sqrt(2)
        assert abs(v - want) < mpmath.mpf(1e-30)


PAIR_PRECISIONS = (64, 256, 1024)
PAIR_CONTEXTS = {prec: FloatContext(0.45, prec) for prec in PAIR_PRECISIONS}


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
    # The float table form rounds as mpf_mul/mpf_add at round-nearest, to
    # the bit, for ties, short mantissas and exponent gaps up to 3000.
    prec, a, b, ea, gap = case
    ctx = PAIR_CONTEXTS[prec]
    x, y = (a, ea), (b, ea + gap)
    fx, fy = from_man_exp(*x), from_man_exp(*y)
    assert from_man_exp(*ctx.table_mul(x, y)) == mpf_mul(fx, fy, prec, "n")
    assert from_man_exp(*ctx.table_add(x, y)) == mpf_add(fx, fy, prec, "n")
    assert from_man_exp(*ctx.table_add(y, x)) == mpf_add(fy, fx, prec, "n")
    w = mpf_mul_int(ctx.two_pow(5, -2)._mpf_, 6, prec, "n")
    got = ctx.table_multiplier(6, ExpPair(5, -2), 7)(x)
    assert from_man_exp(*got) == mpf_mul(mpf_shift(w, 7), fx, prec, "n")


def test_round_half_up_fails_pair_ops(monkeypatch):
    monkeypatch.setattr(rings, "_round_pair", round_half_up)
    with pytest.raises(AssertionError):
        test_pair_ops_equal_mpf()


def test_pair_add_far_below_stays_small(monkeypatch):
    # A far operand rounds away: the sum is the larger operand itself,
    # with no int as wide as the exponent gap.
    ctx, widths = PAIR_CONTEXTS[256], []
    monkeypatch.setattr(rings, "_round_pair", lambda man, exp, prec:
                        widths.append(man.bit_length()) or (man, exp))
    big = ((1 << 256) - 1, 0)
    assert ctx.table_add(big, (3, -10 ** 6)) == big
    assert ctx.table_add((3, -10 ** 6), big) == big
    assert widths == []
    ctx.table_add(big, (big[0], -250))
    assert widths == [507]


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

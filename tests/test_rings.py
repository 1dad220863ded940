from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brwmom import Radical, RingMismatchError, resolve_context, to_mpf
from brwmom.rings import FloatContext, RadicalContext, RationalContext


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

    def test_scalar_mixing(self):
        x = rad(2, 1, 2)
        assert 3 * x == rad(2, 3, 6)
        assert x + 1 == rad(2, 2, 2)
        assert 1 - x == rad(2, 0, -2)
        assert x / 2 == rad(2, Fraction(1, 2), 1)


coeff_strategy = st.fractions(
    min_value=-4, max_value=4, max_denominator=8)


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
        assert resolve_context(2).kind == "rational"
        assert resolve_context(Fraction(1, 3)).kind == "radical"
        assert resolve_context(0.3).kind == "float"

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

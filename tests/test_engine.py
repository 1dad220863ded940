from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from brwmom import (ExpPair, MomentTable, PoleAtCriticalBeta, Radical,
                    RatFun, evaluate_genpoly, mom_dp, mom_polynomial,
                    mom_symbolic, resolve_context)


def rf(num, den=(1,)):
    return RatFun([Fraction(c) for c in num], [Fraction(c) for c in den])


def second_moment_reference_exact(n, beta_sq):
    """Worked closed form of the second moment for integer beta^2:
    2^(2bn-1) (2^((2b-1)n) - 1)/(2^(2b-1) - 1) + 2^((4b-1)n)."""
    b = beta_sq
    geom = (Fraction(2) ** ((2 * b - 1) * n) - 1) / \
        (Fraction(2) ** (2 * b - 1) - 1)
    return Fraction(2) ** (2 * b * n - 1) * geom + \
        Fraction(2) ** ((4 * b - 1) * n)


def second_moment_reference_float(n, beta_sq, precision=256):
    with mp.workprec(precision):
        b = mpmath.mpf(beta_sq)
        two = mpmath.mpf(2)
        geom = (two ** ((2 * b - 1) * n) - 1) / (two ** (2 * b - 1) - 1)
        return two ** (2 * b * n - 1) * geom + two ** ((4 * b - 1) * n)


class TestMomDp:
    def test_first_moment(self):
        assert mom_dp(1, 3, 4) == 4096

    def test_second_moment_depth_one(self):
        assert mom_dp(2, 1, 1) == 10

    def test_beta_zero(self):
        assert mom_dp(3, 7, 0) == 1

    def test_depth_zero(self):
        assert mom_dp(5, 0, 0.49) == 1

    def test_critical_exact_value(self):
        assert mom_dp(2, 2, Fraction(1, 2)) == Radical.rational(2, 8)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            mom_dp(0, 3, 1)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_second_moment_closed_form_exact(self, beta):
        for n in range(0, 18):
            assert mom_dp(2, n, beta * beta) == \
                second_moment_reference_exact(n, beta * beta)

    @pytest.mark.parametrize("beta", [0.3, 0.9, 1.3])
    def test_second_moment_closed_form_float(self, beta):
        for n in (1, 5, 17):
            got = mom_dp(2, n, beta * beta)
            want = second_moment_reference_float(n, beta * beta)
            assert abs(got - want) / want < mpmath.mpf(1e-12)

    def test_critical_family(self):
        table = MomentTable.build(2, 24, resolve_context(Fraction(1, 2)))
        for n in range(25):
            expect = Fraction(n + 2) * Fraction(2) ** (n - 1)
            assert table.value(2, n) == Radical.rational(2, expect)


class TestMomentTable:
    def test_base_rows(self):
        table = MomentTable.build(3, 6, resolve_context(2))
        for j in (1, 2, 3):
            assert table.value(j, 0) == 1
        for d in range(7):
            assert table.value(1, d) == Fraction(2) ** (2 * d)

    def test_entries_at_least_one(self):
        table = MomentTable.build(4, 10, resolve_context(0.55, precision=128))
        for j in range(1, 5):
            for d in range(11):
                assert table.value(j, d) >= 1

    def test_jensen_bound(self):
        # k-th moment dominates the k-th power of the first moment
        for beta_sq in (0.09, 0.49, 1.21):
            table = MomentTable.build(5, 20, resolve_context(beta_sq))
            with mp.workprec(256):
                for k in range(1, 6):
                    for n in (1, 5, 10, 20):
                        lower = mpmath.mpf(2) ** (mpmath.mpf(beta_sq) * n * k)
                        assert table.value(k, n) >= lower * (1 - mpmath.mpf(1e-30))


class TestMomSymbolic:
    def test_first_moment_single_term(self):
        g = mom_symbolic(1)
        assert g.terms == {ExpPair(1, 0): RatFun.one()}

    def test_second_moment_terms(self):
        g = mom_symbolic(2)
        assert g.terms[ExpPair(4, -1)] == rf([-1, 0, 1], [-2, 0, 1])
        assert g.terms[ExpPair(2, 0)] == rf([-1], [-2, 0, 1])
        assert len(g) == 2

    def test_third_moment_terms(self):
        # worked k=3 closed form: coefficients of 2^((9b-2)n), 2^((5b-1)n),
        # and 2^(3bn)
        g = mom_symbolic(3)
        one = RatFun.one()
        lead = one + rf([-6, 0, 0, 0, 0, 0, 3]) / (
            rf([-2, 0, 0, 0, 1]) * rf([-4, 0, 0, 0, 0, 0, 1]))
        mid = rf([3], [1]) * -(rf([-1, 0, 1])) / (
            rf([-2, 0, 0, 0, 1]) * rf([-2, 0, 1]))
        low = rf([0, 0, 3]) / (rf([-4, 0, 0, 0, 0, 0, 1]) * rf([-2, 0, 1]))
        assert g.terms[ExpPair(9, -2)] == lead
        assert g.terms[ExpPair(5, -1)] == mid
        assert g.terms[ExpPair(3, 0)] == low

    def test_depth_zero_normalization(self):
        # every moment equals 1 at depth 0, so the coefficients sum to 1
        for k in (2, 3, 4, 5):
            assert mom_symbolic(k).coefficient_sum() == RatFun.one()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_dp_exactly_at_integer_beta(self, k):
        for n in range(8):
            assert evaluate_genpoly(mom_symbolic(k), 1, n) == mom_dp(k, n, 1)

    def test_matches_dp_at_float_beta(self):
        for k in (2, 3, 4, 5):
            for bs in (0.1, 0.3, 0.9, 1.7):
                for n in (0, 1, 5, 12):
                    sv = evaluate_genpoly(mom_symbolic(k), bs, n)
                    dv = mom_dp(k, n, bs)
                    assert abs(sv - dv) / dv < mpmath.mpf(1e-10), (k, bs, n)

    def test_cross_check_k3_beta1_depth2(self):
        assert evaluate_genpoly(mom_symbolic(3), 1, 2) == mom_dp(3, 2, 1)


class TestEvaluateGenpoly:
    def test_depth_zero_is_one(self):
        for k in (1, 2, 3, 4):
            assert evaluate_genpoly(mom_symbolic(k), 1, 0) == 1
            assert evaluate_genpoly(mom_symbolic(k), Fraction(2, 3), 0) == \
                Radical.rational(3, 1)
            v = evaluate_genpoly(mom_symbolic(k), 0.41, 0)
            assert abs(v - 1) < mpmath.mpf(1e-60)

    def test_pole_at_critical_rational(self):
        with pytest.raises(PoleAtCriticalBeta):
            evaluate_genpoly(mom_symbolic(2), Fraction(1, 2), 4)

    def test_pole_at_critical_float(self):
        with pytest.raises(PoleAtCriticalBeta):
            evaluate_genpoly(mom_symbolic(2), 0.5, 4)

    def test_exact_radical_value_off_pole(self):
        # beta^2 = 1/3 is generic for k=2: exact value in Q(2^(1/3))
        v = evaluate_genpoly(mom_symbolic(2), Fraction(1, 3), 2)
        d = mom_dp(2, 2, Fraction(1, 3))
        assert v == d


class TestMomPolynomial:
    def test_second_moment_coefficients(self):
        poly = mom_polynomial(2, 1)
        assert poly.rows() == [(3, Fraction(3, 2)), (2, Fraction(-1, 2))]

    def test_first_moment_is_pure_power(self):
        poly = mom_polynomial(1, 3)
        assert poly.rows() == [(9, Fraction(1))]

    def test_matches_dp_on_grid(self):
        poly = mom_polynomial(3, 1)
        for n in range(8):
            assert poly.evaluate(n) == mom_dp(3, n, 1)

    @pytest.mark.parametrize("k,beta", [(1, 1), (1, 2), (2, 1), (2, 2),
                                        (3, 1), (4, 1), (3, 2)])
    def test_degree_law_and_positivity(self, k, beta):
        poly = mom_polynomial(k, beta)
        assert poly.degree == k * k * beta * beta - k + 1
        assert poly.leading_coefficient > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            mom_polynomial(2, 0)


class TestBetaSignSymmetry:
    def test_dp_depends_only_on_beta_squared(self):
        # the API takes beta^2; squaring either sign lands identically
        assert mom_dp(2, 5, 0.7 * 0.7) == mom_dp(2, 5, (-0.7) * (-0.7))
        assert mom_dp(3, 4, 1.2 * 1.2) == mom_dp(3, 4, (-1.2) * (-1.2))

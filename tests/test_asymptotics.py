from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from brwmom import asymptotics
from brwmom import (CRITICAL, SUB, SUPER, ExpPair, Radical, RatFun,
                    RegimeError, classify_regime, critical_coefficient,
                    leading_coefficient_closed_form,
                    leading_coefficient_numeric, leading_term, mom_symbolic,
                    resolve_context, subcritical_coefficient,
                    supercritical_coefficient, to_mpf)
from brwmom.engine import _closed_forms


class TestClassifyRegime:
    def test_exact_critical(self):
        r = classify_regime(4, Fraction(1, 4))
        assert r.tag == CRITICAL
        assert r.growth == ExpPair(0, 1)
        assert r.n_power == 1

    def test_supercritical_exponent(self):
        r = classify_regime(2, 1)
        assert r.tag == SUPER
        assert r.growth == ExpPair(4, -1)

    def test_subcritical_exponent(self):
        r = classify_regime(3, 0.1)
        assert r.tag == SUB
        assert r.growth == ExpPair(3, 0)

    def test_order_one_never_gains_n_factor(self):
        # the first moment is exactly 2^(b n) for every beta, so even on
        # the formal boundary b = 1 the growth stays (1, 0) with no n power
        for bs in (Fraction(1, 2), 1, 2, 0.3):
            r = classify_regime(1, bs)
            assert r.growth == ExpPair(1, 0)
            assert r.n_power == 0

    @pytest.mark.parametrize("beta_sq, tag", [
        (Fraction(1, 4), SUB), (1, CRITICAL), (Fraction(9, 4), SUPER),
        (0.25, SUB), (1.0, CRITICAL), (2.25, SUPER)])
    def test_order_one_tag_follows_beta_sq(self, beta_sq, tag):
        # k = 1 keeps its growth on the boundary (above), but its tag is
        # still the sign of beta^2 - 1, exact and float alike.
        assert classify_regime(1, beta_sq).tag == tag

    def test_exact_rational_comparison(self):
        assert classify_regime(3, Fraction(1, 3)).tag == CRITICAL
        assert classify_regime(3, Fraction(33333, 100000)).tag == SUB
        assert classify_regime(3, Fraction(33334, 100000)).tag == SUPER

    def test_boundary_tags_switch_exactly_at_inverse_k(self):
        for k in (2, 3, 4, 5):
            below = Fraction(1, k) - Fraction(1, 10 ** 9)
            above = Fraction(1, k) + Fraction(1, 10 ** 9)
            assert classify_regime(k, below).tag == SUB
            assert classify_regime(k, Fraction(1, k)).tag == CRITICAL
            assert classify_regime(k, above).tag == SUPER


class TestSubcriticalCoefficient:
    def test_order_one_is_unity(self):
        for bs in (0.1, 5, Fraction(1, 2)):
            assert subcritical_coefficient(1, bs) == 1

    def test_worked_value_order_two(self):
        # 1/(2 (1 - 2^(-1/2))) at beta = 0.5
        got = subcritical_coefficient(2, 0.25)
        with mp.workprec(256):
            want = 1 / (2 * (1 - mpmath.mpf(2) ** mpmath.mpf("-0.5")))
        assert abs(got - want) < mpmath.mpf(1e-40)

    def test_against_closed_form_order_three(self):
        got = subcritical_coefficient(3, 0.16)
        ref = leading_coefficient_closed_form(3, 0.16, SUB)
        assert abs(got - ref) / ref < mpmath.mpf(1e-40)

    def test_deep_subcritical_value_order_two(self):
        # at beta = 0.1 the coefficient is 1/(2 (1 - 2^(-0.98)))
        got = subcritical_coefficient(2, Fraction(1, 100))
        with mp.workprec(256):
            want = 1 / (2 * (1 - mpmath.mpf(2) ** (mpmath.mpf("-98") / 100)))
        assert abs(got - want) / want < mpmath.mpf(1e-40)

    def test_regime_enforced(self):
        with pytest.raises(RegimeError):
            subcritical_coefficient(2, 0.5)
        with pytest.raises(RegimeError):
            subcritical_coefficient(3, Fraction(1, 3))

    def test_positive_across_regime(self):
        for k in (2, 3, 4, 5, 6):
            for bs in (0.01, 0.5 / k, 0.95 / k):
                assert subcritical_coefficient(k, bs) > 0


def subcritical_reference(k, beta_sq, precision):
    """The sub-critical recursion written out in mpf algebra over
    binomials.  Test-only reference for the coefficients taken from the
    DP's depth recurrence."""
    with mp.workprec(precision):
        if isinstance(beta_sq, Fraction):
            x = mpmath.mpf(beta_sq.numerator) / mpmath.mpf(beta_sq.denominator)
        else:
            x = mpmath.mpf(beta_sq)
        two = mpmath.mpf(2)
        memo = {1: mpmath.mpf(1)}
        for j in range(2, k + 1):
            pair_sum = mpmath.mpf(0)
            for i in range(1, j):
                pair_sum += (mpmath.binomial(j, i)
                             * two ** (2 * i * x * (i - j))
                             * memo[i] * memo[j - i])
            split_weight = two ** (j * j * x - j) * pair_sum
            memo[j] = split_weight / (two ** (j * x)
                                      - two ** (j * j * x - j + 1))
        return memo[k]


def critical_reference(k, precision):
    """Binomial-weighted sum of sub-critical references at beta^2 = 1/k,
    halved.  Test-only reference for ``critical_coefficient``."""
    with mp.workprec(precision):
        x = Fraction(1, k)
        two = mpmath.mpf(2)
        total = mpmath.mpf(0)
        for j in range(1, k):
            total += (mpmath.binomial(k, j)
                      * two ** (mpmath.mpf(2 * j * (j - k)) / k)
                      * subcritical_reference(j, x, precision)
                      * subcritical_reference(k - j, x, precision))
        return total / 2


class TestExpandedRecursionReference:
    @pytest.mark.parametrize("precision", [64, 128, 256, 1024])
    def test_coefficients_match_reference(self, precision):
        tol = mpmath.mpf(2) ** (16 - precision)
        for k in range(2, 9):
            grid = [0.01, 0.09, 0.5 / k, 0.95 / k, Fraction(1, 100),
                    Fraction(1, 2 * k), Fraction(19, 20 * k)]
            for bs in grid:
                got = subcritical_coefficient(k, bs, precision)
                want = subcritical_reference(k, bs, precision)
                assert abs(got - want) <= tol * want, (k, bs)
            got = critical_coefficient(k, precision)
            want = critical_reference(k, precision)
            assert abs(got - want) <= tol * want, k


class TestCriticalCoefficient:
    def test_order_two_is_half(self):
        assert critical_coefficient(2) == mpmath.mpf(1) / 2

    def test_order_three_closed_form(self):
        with mp.workprec(256):
            ref = 3 / (mpmath.mpf(2) ** (mpmath.mpf(7) / 3) - 4)
        got = critical_coefficient(3)
        assert abs(got - ref) / ref < mpmath.mpf(1e-40)

    def test_positive_up_to_six(self):
        for k in range(2, 7):
            assert critical_coefficient(k) > 0

    def test_needs_order_two(self):
        with pytest.raises(ValueError):
            critical_coefficient(1)


def transition_residues(k):
    """(1/2) (t^k - 2^(1-k) t^(k^2)) C(t) at t = 2^(1/k), for the
    coefficients C of the sub- and super-critical bases t^k and
    2^(1-k) t^(k^2) of ``mom_symbolic(k)``, in Q(2^(1/k))."""
    terms = mom_symbolic(k).terms
    gap = RatFun.t_power(k) - RatFun.t_power(k * k, Fraction(2) ** (1 - k))
    t = Radical.root_power(k, 1)
    return [(gap * terms[e]).evaluate(t) * Fraction(1, 2)
            for e in (ExpPair(k, 0), ExpPair(k * k, 1 - k))]


class TestTransitionResidues:
    # At beta^2 = 1/k the two bases meet at 2; M_k(n) is a polynomial in t
    # for every n, so their coefficients' poles cancel and their sum tends
    # to A n 2^(n-1), A the shared residue: the critical coefficient is
    # half of it, from either side.
    @pytest.mark.parametrize("k", range(2, 7))
    def test_critical_coefficient_is_the_shared_residue(self, k):
        meeting = [e for e in mom_symbolic(k).terms
                   if Fraction(e.p, k) + e.q == 1]
        assert sorted(meeting) == [ExpPair(k, 0), ExpPair(k * k, 1 - k)]
        sub, sup = transition_residues(k)
        assert sub == -1 * sup
        want, tol = critical_coefficient(k, 256), mpmath.mpf(2) ** -224
        with mp.workprec(256):
            assert abs(to_mpf(sub, 256) - want) <= abs(want) * tol
        if k == 2:
            assert sub == Fraction(1, 2)


class TestSupercriticalCoefficient:
    def test_worked_value_order_two(self):
        assert supercritical_coefficient(2, 1) == Fraction(3, 2)

    def test_worked_value_order_three(self):
        assert supercritical_coefficient(3, 1) == 1 + Fraction(186, 840)

    def test_order_four_against_closed_form(self):
        got = to_mpf(supercritical_coefficient(4, 1))
        ref = leading_coefficient_closed_form(4, 1.0, SUPER)
        assert abs(got - ref) / ref < mpmath.mpf(1e-40)

    def test_regime_enforced(self):
        with pytest.raises(RegimeError):
            supercritical_coefficient(2, 0.3)
        # The critical point is not super-critical, in either ring.
        for beta_sq in (Fraction(1, 2), 0.5):
            with pytest.raises(RegimeError):
                supercritical_coefficient(2, beta_sq)

    def test_interior_critical_points_have_removable_poles(self):
        # after reduction the dominant coefficient stays finite at
        # beta = 1/sqrt(m), m < k; the value must match the numeric ratio
        for k, bs in ((3, Fraction(1, 2)), (4, Fraction(1, 2)),
                      (5, Fraction(1, 4))):
            exact = to_mpf(supercritical_coefficient(k, bs))
            est = leading_coefficient_numeric(k, bs, 16, 32)
            assert abs(exact - est.value) <= 10 * est.error_proxy + \
                mpmath.mpf(1e-30)
            assert leading_term(k, bs).method == "symbolic"

    def test_float_route_matches_exact_at_interior_critical_points(self):
        # The Q(t) coefficient evaluated at t = 2^(beta^2) is finite and
        # exact-valued at beta^2 = 1/m, m < k, only if its poles cancel.
        for k, bs in ((3, Fraction(1, 2)), (4, Fraction(1, 2)),
                      (5, Fraction(1, 2)), (5, Fraction(1, 4))):
            exact = to_mpf(supercritical_coefficient(k, bs, 256), 256)
            got = supercritical_coefficient(k, float(bs), 256)
            with mp.workprec(256):
                assert abs(got - exact) <= abs(exact) * mpmath.mpf(2) ** -240

    def test_exact_value_at_half_order_three(self):
        assert supercritical_coefficient(3, Fraction(1, 2)) == \
            Radical.rational(2, Fraction(13, 4))

    def test_subleading_exponents_stay_below_diagonal(self):
        # in the super-critical regime every non-dominant exponent grows
        # strictly slower than the dominant one
        for k in (2, 3, 4, 5):
            for bs in (Fraction(11, 10 * k), Fraction(3, k), Fraction(2)):
                lead = ExpPair(k * k, 1 - k).value_at(bs)
                for e, _ in mom_symbolic(k).items():
                    if e != ExpPair(k * k, 1 - k):
                        assert e.value_at(bs) < lead, (k, bs, e)


def _near_pole_grid(k):
    """Float beta^2 at and around every q/p, p <= k^2, q <= k, with
    k*beta^2 > 1: the poles 1/m of lower orders and the other points
    where two bases of the closed form meet."""
    poles = sorted({Fraction(q, p) for p in range(1, k * k + 1)
                    for q in range(1, k + 1) if k * q > p})
    return [float(f) + off for f in poles
            for off in (0.0, 1e-15, -1e-15, 1e-9, -1e-9)]


class TestFloatSupercriticalRoute:
    """The mpf closed form against the Q(t) coefficient of the dominant
    exponent, reduced and evaluated at 1024 bits."""

    # Most closed-form solves that one call may take: the guard loop
    # doubles its guard bits until two runs agree, and this bound makes a
    # runaway loop fail here instead of hanging.  It is the maximum
    # measured over the grid at 128 and 256 bits.
    MAX_SOLVES = {2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4}

    @pytest.mark.parametrize("k", [
        2, 3, 4, 5, *(pytest.param(k, marks=pytest.mark.slow)
                      for k in (6, 7))])
    def test_near_pole_grid(self, k, monkeypatch):
        solves = []

        def counted(*args):
            solves.append(args)
            return _closed_forms(*args)

        monkeypatch.setattr(asymptotics, "_closed_forms", counted)
        coeff = mom_symbolic(k).terms[ExpPair(k * k, 1 - k)]
        for bs in _near_pole_grid(k):
            with mp.workprec(1024):
                want = coeff.evaluate(mpmath.mpf(2) ** mpmath.mpf(bs))
            for precision in (128, 256):
                solves.clear()
                got = supercritical_coefficient(k, bs, precision)
                assert len(solves) <= self.MAX_SOLVES[k], (k, bs, precision)
                with mp.workprec(1024):
                    assert abs(got - want) <= abs(want) * mpmath.mpf(2) ** (
                        1 - precision), (k, bs, precision)

    @pytest.mark.parametrize("bs,exact", [(0.5, Fraction(1, 2)),
                                          (0.375, Fraction(3, 8))])
    def test_order_eight_at_dyadic_beta(self, bs, exact):
        # A dyadic beta^2 is exact in mpf, so its resonances are found
        # exactly, as in Q(2^(1/8)).
        want = to_mpf(supercritical_coefficient(8, exact), 256)
        got = supercritical_coefficient(8, bs, 256)
        with mp.workprec(256):
            assert abs(got - want) <= abs(want) * mpmath.mpf(2) ** -255


class TestSubcriticalFromClosedForm:
    """The closed-form coefficient of the base 2^(k beta^2) against the
    recursion of ``subcritical_coefficient``."""

    @pytest.mark.parametrize("k,beta_sq", [
        (3, Fraction(1, 5)), (4, Fraction(2, 9)), (5, Fraction(1, 7)),
        (6, Fraction(1, 8)), (3, 0.3), (4, 0.23), (5, 0.17), (6, 0.15)])
    def test_matches_recursion(self, k, beta_sq):
        ring = resolve_context(beta_sq, "auto", 256)
        _, (coeff,) = _closed_forms(k, ring)[k][ring.two_pow(k, 0)]
        want = subcritical_coefficient(k, beta_sq, 256)
        with mp.workprec(256):
            got = to_mpf(coeff, 256)
            assert abs(got - want) <= want * mpmath.mpf(2) ** -240


class TestLeadingCoefficientNumeric:
    def test_critical_ratio_order_two(self):
        est = leading_coefficient_numeric(2, Fraction(1, 2), 20, 40)
        assert abs(est.value - 0.5) < 0.03
        assert est.error_proxy < 0.03

    def test_first_moment_ratio_is_exactly_one(self):
        est = leading_coefficient_numeric(1, 0.49, 5, 15)
        assert est.value == 1
        assert est.error_proxy == 0

    def test_matches_symbolic_extraction(self):
        est = leading_coefficient_numeric(3, 1, 10, 20)
        tau = to_mpf(supercritical_coefficient(3, 1))
        assert abs(est.value - tau) / tau < 1e-3

    def test_error_proxy_shrinks_with_depth(self):
        for k, bs in ((2, 0.09), (3, 1.0), (4, Fraction(1, 4)), (2, 1.0)):
            early = leading_coefficient_numeric(k, bs, 5, 10)
            late = leading_coefficient_numeric(k, bs, 15, 30)
            assert late.error_proxy < early.error_proxy

    def test_depth_order_validated(self):
        with pytest.raises(ValueError):
            leading_coefficient_numeric(2, 0.09, 10, 10)


class TestLeadingTerm:
    def test_methods_by_regime(self):
        assert leading_term(2, 0.09).method == "recursion"
        assert leading_term(2, Fraction(1, 2)).method == "recursion"
        assert leading_term(2, 1).method == "symbolic"
        assert leading_term(1, 0.3).method == "exact"

    def test_float_just_above_transition_at_low_precision(self):
        # the coefficient is large (about 3.6e11) but finite a hair above
        # beta^2 = 1/k, and 64 bits already resolve it
        low = leading_term(2, 0.5 + 1e-12, precision=64)
        high = leading_term(2, 0.5 + 1e-12, precision=256)
        assert low.method == high.method == "symbolic"
        assert abs(low.coefficient - high.coefficient) < \
            mpmath.mpf(1e-6) * high.coefficient

    def test_coefficient_positive_over_sweep(self):
        for k in (2, 3, 4, 5):
            for i in range(1, 40):
                beta = 0.05 + i * 0.05
                term = leading_term(k, beta * beta)
                assert to_mpf(term.coefficient) > 0, (k, beta)


class TestClosedFormFixtures:
    def test_unsupported_combination(self):
        with pytest.raises(ValueError):
            leading_coefficient_closed_form(4, 0.25, CRITICAL)
        with pytest.raises(ValueError):
            leading_coefficient_closed_form(6, 0.1, SUB)

    def test_order_two_forms(self):
        with mp.workprec(128):
            sub = leading_coefficient_closed_form(2, 0.09, SUB)
            sup = leading_coefficient_closed_form(2, 1.0, SUPER)
        assert abs(sub - 1 / (2 * (1 - 2 ** (2 * 0.09 - 1)))) < 1e-12
        assert abs(sup - 1.5) < 1e-30
        crit = leading_coefficient_closed_form(2, None, CRITICAL)
        assert crit == critical_coefficient(2) == mpmath.mpf(1) / 2

    def test_corrections_recorded_exactly(self):
        # the as-printed variants of the k=4 and k=5 super-critical forms
        # miss one cross term each; pin the exact deviations so the
        # erratum stays visible
        from brwmom import RatFun
        one = RatFun.one()

        def t(p, s=1):
            return RatFun.t_power(p, Fraction(s))

        def c(x):
            return RatFun((Fraction(x),))

        ext4 = mom_symbolic(4).terms[ExpPair(16, -3)]
        delta4 = c(6) / ((t(8) - c(2)) * (t(10) - c(4)))
        printed4 = ext4 - delta4
        with mp.workprec(256):
            ref = leading_coefficient_closed_form(4, 0.8 ** 2, SUPER)
            t_val = mpmath.mpf(2) ** mpmath.mpf(0.8 ** 2)
            assert abs(ext4.evaluate(t_val) - ref) / ref < mpmath.mpf(1e-40)
            assert abs(printed4.evaluate(t_val) - ref) / ref > mpmath.mpf(1e-7)

        ext5 = mom_symbolic(5).terms[ExpPair(25, -4)]
        delta5 = c(120) / ((t(8) - c(2)) * (t(16) - c(4)) * (t(18) - c(8)))
        with mp.workprec(256):
            ref5 = leading_coefficient_closed_form(5, 0.8 ** 2, SUPER)
            assert abs(ext5.evaluate(t_val) - ref5) / ref5 < mpmath.mpf(1e-40)
            assert abs((ext5 - delta5).evaluate(t_val) - ref5) / ref5 > \
                mpmath.mpf(1e-9)

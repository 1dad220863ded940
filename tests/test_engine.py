from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath
import pytest
from mpmath import mp

from brwmom import (ExpPair, GenPoly, MomentTable, PoleAtCriticalBeta,
                    Radical, RatFun, RingMismatchError, critical_coefficient,
                    evaluate_genpoly, geometric_sum, mom_dp, mom_polynomial,
                    mom_symbolic, resolve_context, supercritical_coefficient)
from brwmom.engine import _closed_forms
from brwmom.rings import pow2
from brwmom.symbolic import SymbolicContext


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


def lambda_sum_table(k_max, n_max, ring):
    """Entries of the moment table by the literal lam-sum: every depth
    re-walks the last common level lam with its diagonal term, O(k^2 n^2)
    ring products.  Test-only reference for the depth recurrence."""
    ent = {}
    with ring.workprec():
        one = ring.one
        for j in range(1, k_max + 1):
            ent[(j, 0)] = one
        growth = ring.two_pow(1, 0)
        acc = one
        for d in range(1, n_max + 1):
            acc = acc * growth
            ent[(1, d)] = acc
        for j in range(2, k_max + 1):
            pref = ring.two_pow(j * j, -j)
            step = ring.two_pow(j * j, 1 - j)
            weights = [(i, comb(j, i) * ring.two_pow(2 * i * (i - j), 0))
                       for i in range(1, j)]
            for d in range(1, n_max + 1):
                total = ring.zero
                lam_factor = one
                for lam in range(d):
                    sub = d - lam - 1
                    inner = ring.zero
                    for i, w in weights:
                        inner = inner + w * ent[(i, sub)] * ent[(j - i, sub)]
                    total = total + lam_factor * inner
                    lam_factor = lam_factor * step
                diagonal = ring.two_pow(j * j * d, (1 - j) * d)
                ent[(j, d)] = pref * total + diagonal
    return ent


class CountedValue:
    """Ring value that counts the products it takes part in."""

    __slots__ = ("ctx", "v")

    def __init__(self, ctx, v):
        self.ctx, self.v = ctx, v

    def _raw(self, other):
        return other.v if isinstance(other, CountedValue) else other

    def __mul__(self, other):
        self.ctx.muls += 1
        return CountedValue(self.ctx, self.v * self._raw(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return CountedValue(self.ctx, self.v + self._raw(other))

    __radd__ = __add__


class CountingContext:
    """Exact ring context whose values count their multiplications."""

    def __init__(self, beta_sq):
        self.inner = resolve_context(beta_sq)
        self.muls = 0

    def two_pow(self, p, q):
        return CountedValue(self, self.inner.two_pow(p, q))

    @property
    def one(self):
        return CountedValue(self, self.inner.one)

    @property
    def zero(self):
        return CountedValue(self, self.inner.zero)

    def workprec(self):
        return self.inner.workprec()


EXACT_BETA_SQ = [0, 1, 2, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]


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

    @pytest.mark.parametrize("beta_sq", EXACT_BETA_SQ)
    def test_recurrence_equals_lambda_sum_exactly(self, beta_sq):
        ctx = resolve_context(beta_sq)
        for k, n in ((6, 30), (6, 0), (1, 30)):
            assert MomentTable.build(k, n, ctx).entries == \
                lambda_sum_table(k, n, ctx)

    @pytest.mark.parametrize("precision", [128, 256])
    def test_recurrence_matches_lambda_sum_in_floats(self, precision):
        tol = mpmath.mpf(2) ** (16 - precision)
        for beta_sq in EXACT_BETA_SQ + [0.09, 0.55]:
            ctx = resolve_context(beta_sq, "float", precision)
            got = MomentTable.build(6, 30, ctx).entries
            want = lambda_sum_table(6, 30, ctx)
            assert got.keys() == want.keys()
            with mp.workprec(precision):
                for key, w in want.items():
                    assert abs(got[key] - w) <= tol * abs(w), (beta_sq, key)

    def test_multiplications_linear_in_depth(self):
        # the lam-sum costs ~4x the products at twice the depth
        counts = []
        for n in (20, 40):
            ctx = CountingContext(1)
            table = MomentTable.build(6, n, ctx)
            assert table.value(6, n).v == mom_dp(6, n, 1)
            counts.append(ctx.muls)
        assert counts[1] <= 2.2 * counts[0], counts
        # Per depth step order j takes one product for its step and two
        # for each unordered split i | j - i, 0 < i <= j/2.
        per_step = sum(1 + 2 * (j // 2) for j in range(1, 7))
        assert counts[1] - counts[0] == 20 * per_step == 480, counts


@lru_cache(maxsize=None)
def lambda_sum_symbolic(k):
    """The k-th moment over Q(t) by structural induction on the lam-sum:
    each product of lower-order closed forms is pushed through the sum
    over the last common level lam by ``geometric_sum``.  Test-only
    reference for the closed form of the depth recurrence."""
    if k == 1:
        return GenPoly({ExpPair(1, 0): RatFun.one()})
    diag = ExpPair(k * k, 1 - k)
    total = {diag: RatFun.one()}
    pref = RatFun.t_power(k * k, pow2(-k))
    for j in range(1, k):
        weight = pref * RatFun.t_power(2 * j * (j - k), comb(k, j))
        product = lambda_sum_symbolic(j) * lambda_sum_symbolic(k - j)
        for e, c in product.items():
            # sum over lam of 2^(diag*lam) * 2^(e*(n-lam-1))
            #   = 2^(-e) * (geometric sum with step diag-e) * 2^(e*n)
            shift = SymbolicContext().two_pow(-e.p, -e.q) * c * weight
            shifted = geometric_sum(ExpPair(diag.p - e.p, diag.q - e.q)) * \
                GenPoly({e: shift})
            for e2, c2 in shifted.terms.items():
                total[e2] = total[e2] + c2 if e2 in total else c2
    return GenPoly(total)


def closed_form_value(form, ring, n):
    """Sum over the terms of a closed form of P(n) * base^n, in ``ring``."""
    total = ring.zero
    for e, coeffs in form.values():
        poly = sum((c * n ** d for d, c in enumerate(coeffs)), ring.zero)
        total = total + poly * ring.two_pow(e.p * n, e.q * n)
    return total


CLOSED_FORM_BETA_SQ = [1, 4, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                       Fraction(1, 5), Fraction(2, 3), Fraction(1, 8)]


class TestClosedForms:
    @pytest.mark.parametrize("beta_sq", CLOSED_FORM_BETA_SQ)
    def test_equals_dp_exactly(self, beta_sq):
        # beta^2 = 1/m is critical for order m: its forms carry n^d 2^n
        # terms (resonances), checked here like every other term.
        ring = resolve_context(beta_sq)
        forms = _closed_forms(8, ring)
        table = MomentTable.build(8, 9, ring)
        for j in range(1, 9):
            for n in range(10):
                assert closed_form_value(forms[j], ring, n) == \
                    table.value(j, n), (beta_sq, j, n)

    def test_critical_term_is_exact(self):
        # k = 3 at beta^2 = 1/3: the n 2^n coefficient in Q(2^(1/3))
        ring = resolve_context(Fraction(1, 3))
        _, coeffs = _closed_forms(3, ring)[3][ring.two_pow(0, 1)]
        assert len(coeffs) == 2
        assert coeffs[1] == Radical(3, [Fraction(3, 4)] * 3)

    def test_critical_coefficients_match_recursion(self):
        # Two derivations: the exact resonant term of the closed form and
        # the mpf recursion on the step and pair weights.
        tol = mpmath.mpf(2) ** -240
        for k in range(2, 9):
            ring = resolve_context(Fraction(1, k))
            form = _closed_forms(k, ring)[k]
            # nothing grows faster than the critical n 2^n
            assert max(e.value_at(ring.beta_sq) for e, _ in form.values()) \
                == 1
            _, coeffs = form[ring.two_pow(0, 1)]
            assert len(coeffs) == 2
            want = critical_coefficient(k, 256)
            with mp.workprec(256):
                got = coeffs[1].to_mpf(256)
                assert abs(got - want) <= tol * want, k

    def test_refuses_float_ring(self):
        with pytest.raises(RingMismatchError):
            _closed_forms(3, resolve_context(0.5, "float"))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_symbolic_equals_lambda_sum(self, k):
        assert mom_symbolic(k) == lambda_sum_symbolic(k)

    @pytest.mark.slow
    def test_symbolic_equals_lambda_sum_order_six(self):
        assert mom_symbolic(6) == lambda_sum_symbolic(6)

    def test_exact_routes_skip_symbolic(self):
        # poly and exact-beta^2 asym solve in Q or Q(2^(1/m)); only a
        # float beta^2 needs the closed form over Q(t).
        mom_symbolic.cache_clear()
        mom_polynomial(5, 2)
        supercritical_coefficient(5, Fraction(1, 2))
        assert mom_symbolic.cache_info().misses == 0
        supercritical_coefficient(5, 0.81)
        assert mom_symbolic.cache_info().misses == 1


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
            terms = mom_symbolic(k).terms.values()
            assert sum(terms, RatFun.zero()) == RatFun.one()

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
            value = sum(c * 2 ** (d * n) for d, c in poly.coefficients.items())
            assert value == mom_dp(3, n, 1)

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

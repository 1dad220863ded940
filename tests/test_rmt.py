import mpmath
import pytest
from mpmath import mp

from brwmom import to_mpf, unitary_mom_k1, unitary_mom_k1_integer


def log_gamma_loop(N, beta, precision=256):
    """The gamma product as summed before its log-gammas were shared:
    three fresh log-gammas per j, kept only as the reference."""
    with mp.workprec(precision):
        b = mpmath.mpf(beta)
        total = mpmath.mpf(0)
        for j in range(1, N + 1):
            total += (mpmath.loggamma(j + 2 * b) + mpmath.loggamma(j)
                      - 2 * mpmath.loggamma(j + b))
        return mpmath.exp(total)


class TestGammaProduct:
    def test_telescopes_at_beta_one(self):
        assert abs(unitary_mom_k1(10, 1) - 11) < 1e-60

    def test_single_matrix_half_beta(self):
        # Gamma(2)Gamma(1)/Gamma(3/2)^2 = 4/pi
        with mp.workprec(128):
            want = 4 / mpmath.pi
        got = unitary_mom_k1(1, 0.5)
        assert abs(got - want) / want < 1e-30

    def test_beta_zero_is_one(self):
        assert abs(unitary_mom_k1(5, 0) - 1) < 1e-60

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            unitary_mom_k1(5, -0.5)
        with pytest.raises(ValueError):
            unitary_mom_k1(0, 1)
        for beta in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                unitary_mom_k1(5, beta)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.75, 1, 1.5, 2])
    def test_equals_log_gamma_loop(self, beta):
        for N in (1, 2, 50, 257):
            assert unitary_mom_k1(N, beta)._mpf_ == \
                log_gamma_loop(N, beta)._mpf_, N

    def test_one_log_gamma_per_argument(self, monkeypatch):
        # At beta = 1/2, j + 1 is the next j: the arguments are 1..N+1
        # and the N half-integers j + 1/2.
        calls, inner = [], mpmath.loggamma
        monkeypatch.setattr(mpmath, "loggamma",
                            lambda x: calls.append(x) or inner(x))
        for N in (1, 40):
            calls.clear()
            unitary_mom_k1(N, 0.5)
            assert len(calls) == 2 * N + 1, N

    def test_log_gamma_cache_does_not_grow_with_n(self, monkeypatch):
        # A stand-in log-gamma whose values count themselves while alive:
        # the most alive at once is set by beta, not by N.
        live, most = [0], [0]

        class Counted(mpmath.mpf):
            __slots__ = ()

            def __del__(self):
                live[0] -= 1

        def loggamma(x):
            live[0] += 1
            most[0] = max(most[0], live[0])
            return Counted(x)

        monkeypatch.setattr(mpmath, "loggamma", loggamma)
        peaks = []
        for N in (20, 2000):
            most[0] = 0
            unitary_mom_k1(N, 2)
            peaks.append(most[0])
        assert peaks[0] == peaks[1] <= 2 * 2 + 1, peaks


class TestIntegerProduct:
    def test_telescoping_family(self):
        for N in (1, 2, 10, 500, 2000):
            assert unitary_mom_k1_integer(N, 1) == N + 1

    def test_small_product_by_hand(self):
        # (2+1) * (2/2+1)^2 * (2/3+1)
        assert unitary_mom_k1_integer(2, 2) == 20

    def test_beta_zero_empty_product(self):
        assert unitary_mom_k1_integer(7, 0) == 1

    @pytest.mark.parametrize("beta", [1, 2, 3, 4])
    def test_agrees_with_gamma_product(self, beta):
        for N in (1, 5, 17, 50):
            exact = to_mpf(unitary_mom_k1_integer(N, beta))
            gamma = unitary_mom_k1(N, beta)
            assert abs(gamma - exact) / exact < mpmath.mpf(1e-12)

    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_polynomial_of_degree_beta_squared(self, beta):
        # finite differences on N: degree must be exactly beta^2
        deg = beta * beta
        values = [unitary_mom_k1_integer(N, beta) for N in range(deg + 2)]
        diffs = values
        for _ in range(deg):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert len(diffs) == 2
        assert diffs[0] == diffs[1] != 0  # constant, nonzero at order deg

    def test_asymptotic_slope(self):
        # log growth between N=100 and N=1000 approaches beta^2
        with mp.workprec(128):
            for beta in (0.5, 1.0, 1.5):
                lo = unitary_mom_k1(100, beta, 128)
                hi = unitary_mom_k1(1000, beta, 128)
                slope = (mpmath.log(hi) - mpmath.log(lo)) / mpmath.log(10)
                assert abs(slope - beta ** 2) / beta ** 2 < 0.05


"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL line with its stated tolerance and runtime budget."""

import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath import mp

from brwmom import (MomentTable, Radical, SimConfig, classify_regime,
                    critical_coefficient, estimate_mom,
                    leading_coefficient_closed_form, mom_bruteforce, mom_dp,
                    mom_polynomial, resolve_context, subcritical_coefficient,
                    supercritical_coefficient, to_mpf, unitary_mom_k1,
                    unitary_mom_k1_integer)
from brwmom.cli import main as cli_main


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence, exact rationals"):
        start = time.monotonic()
        for k in (1, 2, 3):
            for n in range(5):
                for beta in (1, 2):
                    assert mom_dp(k, n, beta * beta) == \
                        mom_bruteforce(k, n, beta * beta), (k, n, beta)
        assert time.monotonic() - start < 60


def test_criterion_2_second_moment_closed_form():
    with criterion(2, "k=2 closed form, exact and 256-bit"):
        for beta in (1, 2):
            b = beta * beta
            for n in range(41):
                geom = (Fraction(2) ** ((2 * b - 1) * n) - 1) / \
                    (Fraction(2) ** (2 * b - 1) - 1)
                want = Fraction(2) ** (2 * b * n - 1) * geom + \
                    Fraction(2) ** ((4 * b - 1) * n)
                assert mom_dp(2, n, b) == want, (beta, n)
        with mp.workprec(256):
            for beta in (0.3, 0.9, 1.3):
                b = mpmath.mpf(beta) ** 2
                two = mpmath.mpf(2)
                for n in range(1, 41):
                    geom = (two ** ((2 * b - 1) * n) - 1) / \
                        (two ** (2 * b - 1) - 1)
                    want = two ** (2 * b * n - 1) * geom + \
                        two ** ((4 * b - 1) * n)
                    got = mom_dp(2, n, beta * beta)
                    assert abs(got - want) / want < mpmath.mpf(1e-12), \
                        (beta, n)


def test_criterion_3_critical_exactness():
    with criterion(3, "critical point exact family (n+2) 2^(n-1)"):
        start = time.monotonic()
        table = MomentTable.build(2, 40, resolve_context(Fraction(1, 2)))
        for n in range(41):
            want = Radical(2, (Fraction(n + 2) * Fraction(2) ** (n - 1),))
            assert table.value(2, n) == want, n
        assert time.monotonic() - start < 5


def test_criterion_4_polynomiality():
    with criterion(4, "integer parameters give exact polynomials in 2^n"):
        for (k, beta), degree in (((2, 1), 3), ((3, 1), 7), ((4, 1), 13),
                                  ((2, 2), 15)):
            poly = mom_polynomial(k, beta)
            assert poly.degree == degree, (k, beta)
            assert poly.leading_coefficient > 0
            for n in range(degree + 1):
                value = sum(c * 2 ** (d * n)
                            for d, c in poly.coefficients.items())
                assert value == mom_dp(k, n, beta * beta), (k, beta, n)


def test_criterion_5_closed_form_golden_data():
    with criterion(5, "small-order closed forms match to 1e-12"):
        grid = (0.25, 0.45, 0.8, 1.0)
        covered = 0
        with mp.workprec(256):
            for k in (3, 4, 5):
                for beta in grid:
                    bs = beta * beta
                    regime = classify_regime(k, bs)
                    try:
                        ref = leading_coefficient_closed_form(
                            k, bs, regime.tag)
                    except ValueError:
                        continue
                    if regime.tag == "sub-critical":
                        got = subcritical_coefficient(k, bs)
                    else:
                        got = to_mpf(supercritical_coefficient(k, bs))
                    assert abs(got - ref) / abs(ref) < mpmath.mpf(1e-12), \
                        (k, beta, regime.tag)
                    covered += 1
            assert covered == 12
            sigma3 = critical_coefficient(3)
            ref3 = 3 / (mpmath.mpf(2) ** (mpmath.mpf(7) / 3) - 4)
            assert abs(sigma3 - ref3) / ref3 < mpmath.mpf(1e-12)


def test_criterion_6_asymptotic_convergence():
    with criterion(6, "finite-depth ratios approach the leading terms"):
        start = time.monotonic()
        with mp.workprec(256):
            for k, beta in ((2, 0.5), (3, 0.4)):
                bs = beta * beta
                rho = subcritical_coefficient(k, bs)
                ratio = mom_dp(k, 40, bs) / (
                    rho * mpmath.mpf(2) ** (k * mpmath.mpf(bs) * 40))
                assert abs(ratio - 1) < 0.01, (k, beta)
            for k in (2, 3):
                tau = supercritical_coefficient(k, 1)
                ratio = Fraction(mom_dp(k, 40, 1)) / (
                    tau * Fraction(2) ** ((k * k - k + 1) * 40))
                assert abs(ratio - 1) < Fraction(1, 100), k
            for k in (2, 3):
                bs = Fraction(1, k)
                sigma = critical_coefficient(k)
                table = MomentTable.build(k, 60, resolve_context(bs))
                ratio = to_mpf(table.value(k, 60)) / (
                    sigma * 60 * mpmath.mpf(2) ** 60)
                assert abs(ratio - 1) < 0.05, k
        assert time.monotonic() - start < 120


def test_criterion_7_monte_carlo_consistency():
    with criterion(7, "Monte Carlo within 3 sigma, bit-identical reruns"):
        start = time.monotonic()
        cfg = SimConfig(n=6, beta=0.3, trials=100000, seed=42)
        for k in (1, 2):
            est = estimate_mom(cfg, k)
            exact = float(to_mpf(mom_dp(k, 6, 0.09)))
            assert abs(est.mean - exact) <= 3 * est.stderr, k
            rerun = estimate_mom(cfg, k)
            assert (rerun.mean, rerun.stderr) == (est.mean, est.stderr), k
        assert time.monotonic() - start < 120


def test_criterion_8_random_matrix_cross_check():
    with criterion(8, "unitary side: telescoping, products, slopes"):
        for N in range(1, 10001):
            assert unitary_mom_k1_integer(N, 1) == N + 1
        with mp.workprec(256):
            for beta in (1, 2, 3, 4):
                for N in range(1, 51):
                    exact = to_mpf(unitary_mom_k1_integer(N, beta))
                    gamma = unitary_mom_k1(N, beta)
                    assert abs(gamma - exact) / exact < mpmath.mpf(1e-12)
            for beta in (0.5, 1.0, 1.5):
                lo = unitary_mom_k1(1000, beta)
                hi = unitary_mom_k1(10000, beta)
                slope = (mpmath.log(hi) - mpmath.log(lo)) / mpmath.log(10)
                assert abs(slope - beta ** 2) / beta ** 2 < 0.02, beta


def test_criterion_9_sweep_reproduction(tmp_path):
    with criterion(9, "coefficient sweeps: positive, regime change at 1/k"):
        for k in (2, 3, 4, 5):
            out = tmp_path / f"sweep_{k}.csv"
            code = cli_main(["sweep", "--k", str(k), "--beta-min", "0.05",
                             "--beta-max", "2", "--steps", "79",
                             "--out", str(out)])
            assert code == 0
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 79
            transition = 1 / k ** 0.5
            previous_tag = None
            for row in rows:
                beta_s, tag, coeff_s, method = row.split(",")
                beta = float(beta_s)
                coeff = float(coeff_s)
                assert coeff > 0 and coeff == coeff and coeff != float("inf")
                # tags must follow the exact trichotomy of k beta^2 vs 1
                if abs(k * beta * beta - 1) > 1e-9:
                    want = "sub-critical" if k * beta * beta < 1 \
                        else "super-critical"
                    assert tag == want, (k, beta, tag)
                else:
                    assert tag == "critical", (k, beta)
                if previous_tag in ("sub-critical",) and \
                        tag == "super-critical":
                    # ordering: the switch happens while crossing 1/sqrt(k)
                    assert prev_beta < transition < beta
                previous_tag, prev_beta = tag, beta

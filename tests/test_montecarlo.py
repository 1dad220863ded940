import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtri

from brwmom import SimConfig, estimate_mom, mom_dp, to_mpf
from brwmom import montecarlo
from brwmom.montecarlo import _edge_gaussians, _stderr, log_partition_function


def per_trial_log_partition(config, trial_index):
    """The unblocked per-trial reduction, kept only as the reference for
    the blocked one: its own stream, one trial at a time."""
    n = config.n
    if n == 0:
        return 0.0
    key = np.array([config.seed, trial_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random(2 ** (n + 1) - 2) + 2.0 ** -54
    draws = ndtri(u) * math.sqrt(0.5 * math.log(2.0))
    sums = np.zeros(1)
    offset = 0
    for level in range(1, n + 1):
        width = 2 ** level
        sums = np.repeat(sums, 2) + draws[offset:offset + width]
        offset += width
    return float(logsumexp(2.0 * config.beta * sums) - math.log(2.0 ** n))


def per_trial_estimate(logz, k):
    """(mean, stderr) as the per-trial loop computed them from the
    trials' log Z."""
    samples = np.exp(k * np.array(logz))
    mean = float(np.mean(samples))
    if len(logz) > 1:
        stderr = float(np.std(samples, ddof=1) / math.sqrt(len(logz)))
    else:
        stderr = 0.0
    return mean, stderr


class TestSampling:
    def test_depth_zero_is_one(self):
        cfg = SimConfig(n=0, beta=0.7, trials=5, seed=11)
        for t in range(5):
            assert math.exp(log_partition_function(cfg, t)) == 1.0

    def test_beta_zero_is_one(self):
        cfg = SimConfig(n=5, beta=0.0, trials=8, seed=3)
        for t in range(8):
            assert math.exp(log_partition_function(cfg, t)) == 1.0

    def test_deterministic_across_calls(self):
        cfg = SimConfig(n=6, beta=0.4, trials=3, seed=123)
        a = [log_partition_function(cfg, t) for t in range(3)]
        b = [log_partition_function(cfg, t) for t in range(3)]
        assert a == b

    def test_trials_are_distinct_streams(self):
        cfg = SimConfig(n=6, beta=0.4, trials=2, seed=123)
        assert log_partition_function(cfg, 0) != \
            log_partition_function(cfg, 1)

    def test_trial_index_validated(self):
        cfg = SimConfig(n=2, beta=0.4, trials=2, seed=1)
        with pytest.raises(ValueError):
            log_partition_function(cfg, 2)

    def test_straight_line_reimplementation_depth_two(self):
        # independent recomputation reading the same six draws: two level-1
        # edges then four level-2 edges, leaves in label order
        cfg = SimConfig(n=2, beta=0.6, trials=1, seed=77)
        g = _edge_gaussians(77, range(1), 6)[0]
        walks = [g[0] + g[2], g[0] + g[3], g[1] + g[4], g[1] + g[5]]
        z = sum(math.exp(2 * 0.6 * x) for x in walks) / 4.0
        got = math.exp(log_partition_function(cfg, 0))
        assert got == pytest.approx(z, rel=1e-15)

    def test_gaussian_construction(self):
        # inverse-CDF of the half-shifted uniforms, scaled to variance
        # (1/2) ln 2, each row from a fresh Philox(key=(seed, trial)); the
        # seeds span both ends of the key word
        for seed in (0, 9, 2 ** 64 - 1):
            rows = _edge_gaussians(seed, range(4, 7), 10)
            for row, trial in zip(rows, range(4, 7)):
                key = np.array([seed, trial], dtype=np.uint64)
                gen = np.random.Generator(np.random.Philox(key=key))
                u = gen.random(10) + 2.0 ** -54
                expected = ndtri(u) * math.sqrt(0.5 * math.log(2.0))
                assert np.array_equal(row, expected), (seed, trial)


class TestEstimates:
    def test_beta_zero_exact(self):
        est = estimate_mom(SimConfig(n=4, beta=0.0, trials=100, seed=5), 2)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_reproducible_estimates(self):
        cfg = SimConfig(n=6, beta=0.3, trials=2000, seed=42)
        a = estimate_mom(cfg, 2)
        b = estimate_mom(cfg, 2)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_first_moment_consistency(self):
        cfg = SimConfig(n=6, beta=0.3, trials=20000, seed=42)
        est = estimate_mom(cfg, 1)
        exact = float(to_mpf(mom_dp(1, 6, 0.09)))
        assert abs(est.mean - exact) <= 3 * est.stderr

    def test_second_moment_consistency(self):
        cfg = SimConfig(n=6, beta=0.3, trials=20000, seed=42)
        est = estimate_mom(cfg, 2)
        exact = float(to_mpf(mom_dp(2, 6, 0.09)))
        assert abs(est.mean - exact) <= 3 * est.stderr

    def test_heavy_tail_flag(self):
        est = estimate_mom(SimConfig(n=4, beta=0.8, trials=64, seed=5), 3)
        assert est.heavy_tail
        est2 = estimate_mom(SimConfig(n=4, beta=0.3, trials=64, seed=5), 2)
        assert not est2.heavy_tail

    def test_single_trial_has_zero_stderr(self):
        est = estimate_mom(SimConfig(n=3, beta=0.4, trials=1, seed=8), 1)
        assert est.stderr == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=-1, beta=0.3, trials=10, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=2, beta=0.3, trials=0, seed=0)
        with pytest.raises(ValueError):
            estimate_mom(SimConfig(n=2, beta=0.3, trials=2, seed=0), 0)
        # The seed is one word of a Philox key; outside [0, 2^64) it
        # would alias a seed inside modulo 2^64.
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError):
                SimConfig(n=2, beta=0.3, trials=2, seed=seed)
        cfg = SimConfig(n=2, beta=0.3, trials=2, seed=2 ** 64 - 1)
        assert log_partition_function(cfg, 1) == \
            per_trial_log_partition(cfg, 1)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 1e200,
                                      -1e155])
    def test_beta_with_non_finite_square_rejected(self, beta):
        # The largest finite square is about (1.34e154)^2.
        with pytest.raises(ValueError):
            SimConfig(n=2, beta=beta, trials=2, seed=0)
        SimConfig(n=2, beta=1.3e154, trials=2, seed=0)


def trials_per_block(n):
    return max(1, montecarlo._BLOCK_DOUBLES // max(2 ** (n + 1) - 2, 1))


class TestBlocking:
    """Blocking trials may not change a bit of any trial's log Z, nor of
    the estimate."""

    # At n = 1 and 2 a block holds 65536 and 21845 trials, and the
    # per-trial reference takes ~0.15 ms a trial.
    @pytest.mark.parametrize("n", [0, pytest.param(1, marks=pytest.mark.slow),
                                   pytest.param(2, marks=pytest.mark.slow),
                                   7, 12, 16])
    def test_blocks_equal_per_trial_loop(self, n, monkeypatch):
        seed, beta = 5, 0.4
        reduce_block = montecarlo._log_partition
        seen = []

        def recording(config, trials):
            logz = reduce_block(config, trials)
            seen.extend(logz.tolist())
            return logz

        monkeypatch.setattr(montecarlo, "_log_partition", recording)
        block = trials_per_block(n)
        most = 2 * block + 3
        cfg = SimConfig(n=n, beta=beta, trials=most, seed=seed)
        ref = [per_trial_log_partition(cfg, t) for t in range(most)]
        # Every trial at a block edge, and a spread of the others.
        edges = {t for start in range(0, most, block)
                 for t in (start, start + 1, start + block - 1)}
        probes = sorted(edges.union(range(0, most, 13)) & set(range(most)))
        for t in probes:
            assert log_partition_function(cfg, t) == ref[t], t
        for cap in (montecarlo._BLOCK_DOUBLES, 1):
            monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", cap)
            block = trials_per_block(n)
            for trials in sorted({1, block - 1, block, block + 1,
                                  2 * block + 3} - {0}):
                seen.clear()
                cfg = SimConfig(n=n, beta=beta, trials=trials, seed=seed)
                est = estimate_mom(cfg, 2)
                assert seen == ref[:trials], (cap, trials)
                assert (est.mean, est.stderr) == \
                    per_trial_estimate(ref[:trials], 2), (cap, trials)

    # beta 0 makes every leaf of a row tie (s == 0); at 1e150 every leaf
    # but the top one underflows in exp (s == 0 with one tie).
    @pytest.mark.parametrize("beta", [0.0, 0.3, 3.0, 1e150])
    @pytest.mark.parametrize("n, trials", [(1, range(0, 1)),
                                           (1, range(2, 9)),
                                           (5, range(3, 12)),
                                           (11, range(1, 5)),
                                           (14, range(0, 3))])
    def test_block_equals_scipy_reference(self, beta, n, trials):
        cfg = SimConfig(n=n, beta=beta, trials=trials.stop, seed=17)
        got = montecarlo._log_partition(cfg, trials).tolist()
        assert got == [per_trial_log_partition(cfg, t) for t in trials]

    def test_single_trial_memory_near_its_draws(self):
        # The tree is built in the array of draws and reduced in place, so
        # one trial's peak stays near its 2^(n+1) - 2 doubles.
        n = 16
        config = SimConfig(n=n, beta=0.3, trials=1, seed=1)
        estimate_mom(config, 2)  # warm-up: first-call allocations
        tracemalloc.start()
        try:
            estimate_mom(config, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * (2 ** (n + 1) - 2), peak

    def test_memory_per_block_bounded(self):
        def peak(trials):
            config = SimConfig(n=12, beta=0.3, trials=trials, seed=1)
            tracemalloc.start()
            try:
                estimate_mom(config, 2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(50)  # warm-up: first-call allocations are not the block's
        small, large = peak(50), peak(800)
        assert abs(large - small) <= 0.1 * small, (small, large)


class TestStderr:
    def test_finite_samples_give_finite_stderr(self):
        # Samples up to 5.8e302: the squared deviations of the unscaled
        # samples overflow.
        cfg = SimConfig(n=3, beta=2.0, trials=8, seed=4)
        est = estimate_mom(cfg, 128)
        logz = np.array([log_partition_function(cfg, t) for t in range(8)])
        with mpmath.workprec(128):
            samples = [mpmath.mpf(x) for x in np.exp(128 * logz)]
            mean = mpmath.fsum(samples) / 8
            var = mpmath.fsum((x - mean) ** 2 for x in samples) / 7
            exact = float(mpmath.sqrt(var / 8))
        assert math.isfinite(est.stderr)
        assert est.stderr == pytest.approx(exact, rel=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(2.0 ** -100, 2.0 ** 100)),
                    min_size=2, max_size=40))
    def test_scaling_is_bit_identical(self, samples):
        # Where np.std neither overflows nor underflows, scaling by a
        # power of two changes no bit.
        samples = np.array(samples)
        plain = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
        assert _stderr(samples) == plain


@pytest.mark.slow
class TestCalibration:
    def test_three_sigma_coverage_over_many_seeds(self):
        # the error bars must be honest: over 100 independent seeds the
        # exact value stays within 3 standard errors >= 95% of the time
        cases = [(1, 0.3, 6), (2, 0.3, 6), (2, 0.5, 8)]
        trials = 2000
        for k, beta, n in cases:
            exact = float(to_mpf(mom_dp(k, n, beta * beta)))
            hits = 0
            for seed in range(100):
                cfg = SimConfig(n=n, beta=beta, trials=trials, seed=seed)
                est = estimate_mom(cfg, k)
                if abs(est.mean - exact) <= 3 * est.stderr:
                    hits += 1
            assert hits >= 95, (k, beta, n, hits)

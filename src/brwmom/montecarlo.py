"""Stochastic verification of the moment computations.

Simulates the Gaussian branching random walk on the binary tree, forms
the leaf-averaged partition function, and estimates its k-th moment with
a standard error.  Reproducibility contract: every trial draws from its
own counter-based stream keyed by (seed, trial index), with edge draws
consumed in level order, so results are bit-identical regardless of
execution order or batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtri

# Edge weights are centred Gaussians with variance (1/2) * ln 2.
_EDGE_SIGMA = math.sqrt(0.5 * math.log(2.0))

HEAVY_TAIL_THRESHOLD = 1.0


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation campaign.

    Draws and reductions run in IEEE double precision with per-leaf terms
    combined in log space, so overflow is handled without extended
    precision.
    """

    n: int
    beta: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("depth must be nonnegative")
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass(frozen=True)
class MomentEstimate:
    k: int
    mean: float
    stderr: float
    trials: int
    seed: int
    heavy_tail: bool = False


def _edge_gaussians(seed: int, trial_index: int, count: int) -> np.ndarray:
    """The trial's edge weights, in level order."""
    key = np.array([seed & ((1 << 64) - 1), trial_index & ((1 << 64) - 1)],
                   dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    # random() yields j/2^53; the half-step shift keeps the inverse CDF
    # away from both endpoints.
    u = gen.random(count) + 2.0 ** -54
    return ndtri(u) * _EDGE_SIGMA


def log_partition_function(config: SimConfig, trial_index: int) -> float:
    """log of Z = 2^(-n) * sum over leaves of exp(2*beta*X(leaf))."""
    if not 0 <= trial_index < config.trials:
        raise ValueError("trial index out of range")
    n = config.n
    if n == 0:
        return 0.0
    draws = _edge_gaussians(config.seed, trial_index, 2 ** (n + 1) - 2)
    sums = np.zeros(1)
    offset = 0
    for level in range(1, n + 1):
        width = 2 ** level
        sums = np.repeat(sums, 2) + draws[offset:offset + width]
        offset += width
    return float(logsumexp(2.0 * config.beta * sums) - math.log(2.0 ** n))


def sample_partition_function(config: SimConfig, trial_index: int) -> float:
    """One realization of the partition function; deterministic in
    (seed, trial_index)."""
    return math.exp(log_partition_function(config, trial_index))


def estimate_mom(config: SimConfig, k: int) -> MomentEstimate:
    """Sample mean and standard error of Z^k over the configured trials.

    When k^2 * beta^2 exceeds HEAVY_TAIL_THRESHOLD the estimator variance
    is dominated by rare leaves and the reported error bar is unreliable;
    the estimate is still returned but flagged heavy_tail.
    """
    if k < 1:
        raise ValueError("moment order must be positive")
    logz = np.array([log_partition_function(config, t)
                     for t in range(config.trials)])
    samples = np.exp(k * logz)
    mean = float(np.mean(samples))
    if config.trials > 1:
        stderr = float(np.std(samples, ddof=1) / math.sqrt(config.trials))
    else:
        stderr = 0.0
    heavy = k * k * config.beta ** 2 > HEAVY_TAIL_THRESHOLD
    return MomentEstimate(k=k, mean=mean, stderr=stderr,
                          trials=config.trials, seed=config.seed,
                          heavy_tail=heavy)

"""Stochastic verification of the moment computations.

Simulates the Gaussian branching random walk on the binary tree, forms
the leaf-averaged partition function, and estimates its k-th moment with
a standard error.  Reproducibility contract: every trial draws from its
own counter-based stream keyed by (seed, trial index), with edge draws
consumed in level order, so results are bit-identical regardless of
execution order or batching.

Trials run in blocks of at most _BLOCK_DOUBLES draws (one trial when a
trial alone has more), each trial filling its own row from its own
stream; a block shares one inverse-CDF pass.  The tree is built inside
that array of draws: level by level, each edge gets its parent's walk
value added in place, so the last level holds the leaves and nothing
else of leaf size is allocated.  The leaves are then reduced in place
by _logsumexp_rows, which repeats scipy.special.logsumexp's operations
in scipy's order and so gives the same doubles.  The contract holds: a
trial's log Z is the same double in any block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

# Edge weights are centred Gaussians with variance (1/2) * ln 2.
_EDGE_SIGMA = math.sqrt(0.5 * math.log(2.0))

HEAVY_TAIL_THRESHOLD = 1.0

# Cap on the edge draws held for one block of trials; a trial with more
# edges than this runs in a block of its own.
_BLOCK_DOUBLES = 2 ** 17

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
        if not math.isfinite(self.beta * self.beta):
            raise ValueError("beta and beta^2 must be finite")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be in 0..2^64 - 1")


@dataclass(frozen=True)
class MomentEstimate:
    k: int
    mean: float
    stderr: float
    trials: int
    seed: int
    heavy_tail: bool = False


def _edge_gaussians(seed: int, trials: range, count: int) -> np.ndarray:
    """Edge weights of consecutive trials: one row per trial, in level
    order, each row drawn from the trial's own stream."""
    draws = np.empty((len(trials), count))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # The state of a fresh Philox(key=(seed, trial_index)): counter zero,
    # nothing buffered.  Setting it (the setter copies each field, and reads
    # plain ints fastest) is cheaper than building a new generator per trial.
    key = [seed, 0]
    state = {"bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
             "state": {"counter": (0,) * 4, "key": key},
             "has_uint32": 0, "uinteger": 0}
    for row, trial_index in zip(draws, trials):
        key[1] = trial_index
        bitgen.state = state
        gen.random(out=row)
    # random() yields j/2^53; the half-step shift keeps the inverse CDF
    # away from both endpoints.
    draws += 2.0 ** -54
    ndtri(draws, out=draws)
    draws *= _EDGE_SIGMA
    return draws


def log_partition_function(config: SimConfig, trials: range) -> np.ndarray:
    """log of Z = 2^(-n) * sum over leaves of exp(2*beta*X(leaf)) for
    consecutive trials, one value per trial."""
    if trials and not 0 <= min(trials) <= max(trials) < config.trials:
        raise ValueError("trial index out of range")
    n = config.n
    if n == 0:
        return np.zeros(len(trials))
    tree = _edge_gaussians(config.seed, trials, 2 ** (n + 1) - 2)
    # Level l holds columns 2^l - 2 .. 2^(l+1) - 3 of a row; adding each
    # parent's walk value to its two edges turns them into walk values.
    for level in range(2, n + 1):
        parents = tree[:, 2 ** (level - 1) - 2:2 ** level - 2]
        children = tree[:, 2 ** level - 2:2 ** (level + 1) - 2]
        children[:, 0::2] += parents
        children[:, 1::2] += parents
    leaves = tree[:, 2 ** n - 2:]
    leaves *= 2.0 * config.beta
    return _logsumexp_rows(leaves) - math.log(2.0 ** n)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(a, axis=1) of finite a, overwriting a.

    The same operations in the same order as scipy 1.17, so every value
    is the same double: the row maxima are taken out of the sum and
    counted (a - top == 0 exactly when a == top), exp runs on a - top,
    and the row sum is numpy's pairwise one.  A row has at least one
    tie, so scipy's guard against dividing a zero sum changes nothing.
    """
    top = a.max(axis=1, keepdims=True)
    a -= top
    is_top = a == 0
    ties = is_top.sum(axis=1, keepdims=True, dtype=a.dtype)
    np.exp(a, out=a)
    np.copyto(a, 0.0, where=is_top)
    s = a.sum(axis=1, keepdims=True)
    return (np.log1p(s / ties) + np.log(ties) + top)[:, 0]


def _stderr(samples: np.ndarray) -> float:
    """Standard error of the sample mean, 0 for a single sample.

    The samples are overwritten, scaled by a power of two that brings
    the largest below 1 before np.std squares the deviations, so finite
    samples give a finite error; the scaling is exact, so otherwise
    nothing changes.
    """
    if len(samples) < 2:
        return 0.0
    _, e = math.frexp(float(np.max(samples)))
    spread = float(np.std(np.ldexp(samples, -e, out=samples), ddof=1))
    return math.ldexp(spread, e) / math.sqrt(len(samples))


def estimate_mom(config: SimConfig, k: int) -> MomentEstimate:
    """Sample mean and standard error of Z^k over the configured trials.

    When k^2 * beta^2 exceeds HEAVY_TAIL_THRESHOLD the estimator variance
    is dominated by rare leaves and the reported error bar is unreliable;
    the estimate is still returned but flagged heavy_tail.

    Memory: 16 B per trial, as Z^k is formed in the array of log Z and
    _stderr scales it in place (two such arrays are alive at once).
    """
    if k < 1:
        raise ValueError("moment order must be positive")
    edges = 2 ** (config.n + 1) - 2
    block = max(1, _BLOCK_DOUBLES // max(edges, 1))
    logz = np.concatenate([
        log_partition_function(config, range(start, min(start + block,
                                                         config.trials)))
        for start in range(0, config.trials, block)])
    logz *= k
    samples = np.exp(logz, out=logz)
    mean = float(np.mean(samples))
    stderr = _stderr(samples)
    heavy = k * k * (config.beta * config.beta) > HEAVY_TAIL_THRESHOLD
    return MomentEstimate(k=k, mean=mean, stderr=stderr,
                          trials=config.trials, seed=config.seed,
                          heavy_tail=heavy)

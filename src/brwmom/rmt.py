"""First moments of moments on the random-unitary side, and the growth
correspondence with the branching model under N = 2^n.

For a Haar-random N x N unitary, the average of the 2*beta-th circle
moment of its characteristic polynomial has an exact finite-N product
over gamma factors; for integer beta the product telescopes into a
rational expression of degree beta^2 in N.  Growth exponents match the
branching moments once matrix size is identified with leaf count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .asymptotics import CRITICAL, SUB, classify_regime
from .rings import DEFAULT_PRECISION


@dataclass(frozen=True)
class GrowthComparison:
    k: int
    beta_sq: object
    brw_exponent: object
    brw_n_power: int
    rmt_exponent: object
    rmt_log_power: int
    match: bool


def unitary_mom_k1(N: int, beta, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Product over j <= N of Gamma(j+2b)Gamma(j)/Gamma(j+b)^2 via
    log-gamma accumulation; defined for beta > -1/2."""
    if N < 1:
        raise ValueError("matrix size must be positive")
    with mp.workprec(precision):
        b = mpmath.mpf(beta)
        if b <= mpmath.mpf(-0.5):
            raise ValueError("beta must exceed -1/2")
        total = mpmath.mpf(0)
        for j in range(1, N + 1):
            total += (mpmath.loggamma(j + 2 * b) + mpmath.loggamma(j)
                      - 2 * mpmath.loggamma(j + b))
        return mpmath.exp(total)


def unitary_mom_k1_integer(N: int, beta: int) -> Fraction:
    """Exact rational value for integer beta: the gamma product collapses
    to a double product of (N/(i+j+1) + 1) over 0 <= i, j < beta."""
    if N < 0:
        raise ValueError("matrix size must be nonnegative")
    if beta < 0:
        raise ValueError("integer beta must be nonnegative")
    result = Fraction(1)
    for i in range(beta):
        for j in range(beta):
            result *= Fraction(N, i + j + 1) + 1
    return result


def growth_exponent_compare(k: int, beta=None, *, beta_sq=None,
                            ) -> GrowthComparison:
    """Growth exponents of both models and whether they agree under
    N = 2^n (with log N standing in for a factor of n).

    Accepts beta or an exact beta_sq; the latter makes boundary cases
    like beta^2 = 1/3 exact.  Both models are special-cased at k = 1,
    where neither has a transition and the exponent is beta^2 for all
    beta.
    """
    if (beta is None) == (beta_sq is None):
        raise ValueError("give exactly one of beta or beta_sq")
    if beta_sq is None:
        beta_sq = (beta * beta if not isinstance(beta, int)
                   else Fraction(beta) ** 2)
    regime = classify_regime(k, beta_sq)
    brw_exponent = regime.growth.value_at(beta_sq)
    if k == 1:
        rmt_exponent, rmt_log = beta_sq, 0
    elif regime.tag == SUB:
        rmt_exponent, rmt_log = k * beta_sq, 0
    elif regime.tag == CRITICAL:
        rmt_exponent, rmt_log = _one_like(beta_sq), 1
    else:
        rmt_exponent, rmt_log = k * k * beta_sq - k + 1, 0
    match = (brw_exponent == rmt_exponent
             and regime.n_power == rmt_log)
    return GrowthComparison(k=k, beta_sq=beta_sq, brw_exponent=brw_exponent,
                            brw_n_power=regime.n_power,
                            rmt_exponent=rmt_exponent, rmt_log_power=rmt_log,
                            match=match)


def _one_like(beta_sq):
    return Fraction(1) if isinstance(beta_sq, (int, Fraction)) else 1.0

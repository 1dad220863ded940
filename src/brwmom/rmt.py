"""First moments of moments on the random-unitary side.

For a Haar-random N x N unitary, the average of the 2*beta-th circle
moment of its characteristic polynomial has an exact finite-N product
over gamma factors; for integer beta the product telescopes into a
rational expression of degree beta^2 in N.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp

from .rings import DEFAULT_PRECISION


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


"""First moments of moments on the random-unitary side.

For a Haar-random N x N unitary, the average of the 2*beta-th circle
moment of its characteristic polynomial has an exact finite-N product
over gamma factors (Keating-Snaith), summed as log-gammas with each
evaluated once per call; for integer beta the product telescopes into
a rational expression of degree beta^2 in N.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp

from .rings import DEFAULT_PRECISION


def unitary_mom_k1(N: int, beta, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Product over j <= N of Gamma(j+2b)Gamma(j)/Gamma(j+b)^2 via
    log-gamma accumulation; defined for finite beta > -1/2.

    At an integer 2b, j + 2b (and j + b, at an integer b) is a later j:
    each log-gamma at an integer up to N is kept from its first use until
    the loop passes it, at most 2b + 1 values, and is evaluated once."""
    if N < 1:
        raise ValueError("matrix size must be positive")
    with mp.workprec(precision):
        b = mpmath.mpf(beta)
        if not mpmath.isfinite(b):
            raise ValueError("beta must be finite")
        if b <= mpmath.mpf(-0.5):
            raise ValueError("beta must exceed -1/2")
        # An integral shift is kept as an int, so j + shift is one too.
        two_b, b = (int(s) if mpmath.isint(s) else s for s in (2 * b, b))
        at_int = {}

        def loggamma(x):
            if type(x) is not int or x > N:
                return mpmath.loggamma(x)
            if x not in at_int:
                at_int[x] = mpmath.loggamma(x)
            return at_int[x]

        total = mpmath.mpf(0)
        for j in range(1, N + 1):
            total += loggamma(j + two_b) + loggamma(j) - 2 * loggamma(j + b)
            del at_int[j]
        return mpmath.exp(total)


def unitary_mom_k1_integer(N: int, beta: int) -> Fraction:
    """Exact rational value for integer beta: the gamma product collapses
    to a double product of (N/(i+j+1) + 1) over 0 <= i, j < beta, formed
    as one int quotient."""
    if N < 0:
        raise ValueError("matrix size must be nonnegative")
    if beta < 0:
        raise ValueError("integer beta must be nonnegative")
    num = den = 1
    for i in range(beta):
        for j in range(beta):
            num *= N + i + j + 1
            den *= i + j + 1
    return Fraction(num, den)


"""Growth regimes and leading-order coefficients of the moments.

The k-th moment changes growth at k*beta^2 = 1: below it grows like
2^(k*beta^2*n), at it like n*2^n, above like 2^((k^2*beta^2-k+1)*n).
The k = 1 moment is exactly 2^(beta^2*n) and has no transition.

Each regime has one route to its coefficient:

* sub-critical: a recursion over lower orders on the coefficients of
  the dynamic program's depth recurrence,
* critical: the same recursion at beta^2 = 1/k, last order halved,
* super-critical: the coefficient of the dominant exponent in the
  closed form of the depth recurrence, solved in the ring of beta^2.
  That exponent strictly dominates every other, so its coefficient has
  no pole: the denominators that vanish at beta = 1/sqrt(m), m < k,
  cancel out of it (in mpf only numerically: see
  ``supercritical_coefficient``).

``classify_regime`` owns the trichotomy, and the coefficient functions
take their regime from it; the ring contexts own beta^2's domain.

``leading_coefficient_numeric`` estimates the same coefficients from
finite depths of the dynamic program; it is an independent reference,
not a route.  The records ``Regime``, ``LeadingTerm`` and
``RatioEstimate`` are NamedTuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import mpmath

from .engine import MomentTable, _closed_forms, recurrence_coefficients
from .rings import (DEFAULT_PRECISION, ExpPair, _check_beta_sq,
                    resolve_context, to_mpf)

SUB = "sub-critical"
CRITICAL = "critical"
SUPER = "super-critical"


class RegimeError(ValueError):
    """The requested coefficient is undefined in this regime."""


class Regime(NamedTuple):
    tag: str
    growth: ExpPair
    n_power: int


class LeadingTerm(NamedTuple):
    coefficient: object
    regime: Regime
    method: str


class RatioEstimate(NamedTuple):
    value: mpmath.mpf
    error_proxy: mpmath.mpf
    regime: Regime


def classify_regime(k: int, beta_sq) -> Regime:
    """Trichotomy of k*beta^2 against 1, exact when beta^2 is rational.

    The first moment is special: it grows as 2^(beta^2*n) for every beta,
    so for k = 1 the growth exponent never picks up an n factor even when
    beta^2 = 1 lands on the formal boundary.
    """
    if k < 1:
        raise ValueError("moment order must be positive")
    _check_beta_sq(beta_sq)
    d = k * beta_sq - 1
    sign = (d > 0) - (d < 0)
    if k == 1:
        tag = SUB if sign < 0 else (CRITICAL if sign == 0 else SUPER)
        return Regime(tag=tag, growth=ExpPair(1, 0), n_power=0)
    if sign < 0:
        return Regime(tag=SUB, growth=ExpPair(k, 0), n_power=0)
    if sign == 0:
        return Regime(tag=CRITICAL, growth=ExpPair(0, 1), n_power=1)
    return Regime(tag=SUPER, growth=ExpPair(k * k, 1 - k), n_power=0)


def _recursion_coefficient(k: int, beta_sq, precision: int) -> mpmath.mpf:
    """c_1 = 1, c_j = sum_{0<i<=j/2} w_i c_i c_{j-i} / (2^(j*beta^2) -
    step_j) on the coefficients of ``engine.recurrence_coefficients``, one
    term per unordered split, so about half the products.  The one order
    with j*beta^2 = 1, k at the critical 1/k, divides by 2 instead: its
    growth equals its step, 2, and its pair sum adds up linearly in depth."""
    ctx = resolve_context(beta_sq, "float", precision)
    with ctx.workprec():
        coeffs = [None, ctx.one]
        for j in range(2, k + 1):
            step, weights = recurrence_coefficients(j, ctx)
            pair_sum = ctx.zero
            for i, w in weights:
                pair_sum += w * coeffs[i] * coeffs[j - i]
            gap = 2 if j * beta_sq == 1 else ctx.two_pow(j, 0) - step
            coeffs.append(pair_sum / gap)
        return coeffs[k]


def subcritical_coefficient(k: int, beta_sq,
                            precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Leading coefficient in the regime k*beta^2 < 1.

    Defined by recursion on the moment order: order 1 contributes 1, and
    order k combines each unordered split j | k-j once, with the depth
    recurrence's paired weights, and a final division by
    2^(k*beta^2) - 2^(k^2*beta^2-k+1), positive throughout the regime.
    """
    if classify_regime(k, beta_sq).tag != SUB and k > 1:
        raise RegimeError(f"k*beta^2 >= 1 for k={k}, beta^2={beta_sq}")
    return _recursion_coefficient(k, beta_sq, precision)


def critical_coefficient(k: int, precision: int = DEFAULT_PRECISION) -> mpmath.mpf:
    """Coefficient of n*2^n at the transition point beta^2 = 1/k, k >= 2."""
    if k < 2:
        raise ValueError("critical coefficient needs k >= 2")
    return _recursion_coefficient(k, Fraction(1, k), precision)


def supercritical_coefficient(k: int, beta_sq,
                              precision: int = DEFAULT_PRECISION):
    """Leading coefficient in the regime k*beta^2 > 1: the coefficient
    of the dominant exponent k^2*beta^2 + 1 - k in the closed form.  In
    mpf its terms grow and cancel near a pole 1/m, m < k, by a loss that
    the distance to the pole fixes, so the solve takes 64 guard bits,
    doubled until two runs agree to ``precision`` bits, and rounds."""
    regime = classify_regime(k, beta_sq)
    if regime.tag != SUPER:
        raise RegimeError(f"k*beta^2 <= 1 for k={k}, beta^2={beta_sq}")
    guard, last = 64, mpmath.inf
    while True:
        ctx = resolve_context(beta_sq, "auto", precision + guard)
        # No forcing base reaches the dominant one: no power of n.
        _, (coeff,) = _closed_forms(k, ctx)[k][ctx.two_pow(*regime.growth)]
        if not isinstance(coeff, mpmath.mpf):  # exact: no guard bits
            return coeff
        with mpmath.workprec(precision):
            if abs(coeff - last) <= abs(coeff) * mpmath.ldexp(1, -precision):
                return +coeff
        guard, last = 2 * guard, coeff


def leading_coefficient_numeric(k: int, beta_sq, n_lo: int, n_hi: int,
                                precision: int = DEFAULT_PRECISION) -> RatioEstimate:
    """Ratio estimate of the leading coefficient from finite depths.

    Divides the exact (or high-precision) moment by its classified growth
    term at depths n_lo and n_hi; the spread between the two ratios is the
    reported error proxy.  Rational beta^2 uses exact ring arithmetic, so
    the only rounding is in the final division.
    """
    if not n_hi > n_lo >= 1:
        raise ValueError("need n_hi > n_lo >= 1")
    regime = classify_regime(k, beta_sq)
    if k == 1:
        # First moment equals its growth term identically.
        return RatioEstimate(value=mpmath.mpf(1), error_proxy=mpmath.mpf(0),
                             regime=regime)
    table = MomentTable.build(k, n_hi, resolve_context(beta_sq, "auto",
                                                      precision))
    floats = resolve_context(beta_sq, "float", precision)
    with floats.workprec():

        def ratio(n):
            growth = floats.two_pow(regime.growth.p * n, regime.growth.q * n)
            scale = mpmath.mpf(n) ** regime.n_power
            return to_mpf(table.value(k, n), precision) / (scale * growth)

        lo, hi = ratio(n_lo), ratio(n_hi)
        return RatioEstimate(value=hi, error_proxy=abs(hi - lo), regime=regime)


def leading_term(k: int, beta_sq,
                 precision: int = DEFAULT_PRECISION) -> LeadingTerm:
    """Regime, growth exponent, and coefficient with the method that
    produced it: exact for k = 1, the recursion up to the transition, and
    the closed form's dominant term above it (method "symbolic")."""
    regime = classify_regime(k, beta_sq)
    if k == 1:
        coeff = Fraction(1) if isinstance(beta_sq, (int, Fraction)) else mpmath.mpf(1)
        return LeadingTerm(coeff, regime, method="exact")
    if regime.tag == SUB:
        value = subcritical_coefficient(k, beta_sq, precision)
        return LeadingTerm(value, regime, method="recursion")
    if regime.tag == CRITICAL:
        value = critical_coefficient(k, precision)
        return LeadingTerm(value, regime, method="recursion")
    value = supercritical_coefficient(k, beta_sq, precision)
    return LeadingTerm(value, regime, method="symbolic")

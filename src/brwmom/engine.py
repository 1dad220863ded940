"""Moments of the branching random walk partition function.

Three computation routes for the k-th moment of
Z_n = 2^(-n) * sum over leaves of exp(2*beta*X_n(leaf)):

* ``mom_dp``: a pole-free dynamic program over any coefficient ring.  At
  the root the k paths either share a child or split j / k-j between the
  two children, leaving independent subtrees one level shallower:
    M_k(d) = 2^(k^2 beta^2 + 1 - k) M_k(d-1) + sum_{0<j<k} C(k, j)
             2^((k^2 + 2j(j-k)) beta^2 - k) M_j(d-1) M_{k-j}(d-1),
  O(k^2 n) ring products for the whole table.  It never divides, so every
  beta (critical points included) is in range.

* ``mom_symbolic``: the recurrence unrolled in depth and carried out in
  Q(t), t = 2^(beta^2): the tuple splits at its last common level lam,
  and each lam-sum is collapsed by ``geometric_sum``.  Valid for generic
  beta; the critical denominators survive as poles of the coefficients.

* ``mom_polynomial``: for integer k and beta the symbolic form collapses
  to an exact polynomial in 2^n of degree k^2*beta^2 - k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, Tuple

from .rings import DEFAULT_PRECISION, RingContext, pow2, resolve_context
from .symbolic import ExpPair, GenPoly, RatFun, geometric_sum, two_pow_sym


class PoleAtCriticalBeta(ArithmeticError):
    """A symbolic coefficient denominator vanishes at this beta; use the
    termwise dynamic program instead."""


def recurrence_coefficients(j: int, ring: RingContext):
    """(step, [(i, w'_i)]) of order j's depth recurrence in ``ring``,
    M_j(d) = step M_j(d-1) + sum_{0<i<j} w'_i M_i(d-1) M_{j-i}(d-1) (see
    the module docstring).  Call it under ``ring.workprec()``."""
    step = ring.two_pow(j * j, 1 - j)
    weights = [(i, comb(j, i) * ring.two_pow(j * j + 2 * i * (i - j), -j))
               for i in range(1, j)]
    return step, weights


@dataclass
class MomentTable:
    """Bottom-up table of moment values, keyed by (order j, depth).

    Depth 0 is 1; each row then takes one step of the depth recurrence
    per depth (order 1 has no split term: (2^(beta^2))^d).  Completed
    tables are immutable and safe to share; construction is single-writer.
    """

    k_max: int
    n_max: int
    ring: RingContext
    entries: Dict[Tuple[int, int], object] = field(default_factory=dict)

    @classmethod
    def build(cls, k_max: int, n_max: int, ring: RingContext) -> "MomentTable":
        if k_max < 1:
            raise ValueError("moment order must be positive")
        if n_max < 0:
            raise ValueError("depth must be nonnegative")
        table = cls(k_max=k_max, n_max=n_max, ring=ring)
        ent = table.entries
        with ring.workprec():
            for j in range(1, k_max + 1):
                step, weights = recurrence_coefficients(j, ring)
                ent[(j, 0)] = ring.one
                for d in range(n_max):
                    total = step * ent[(j, d)]
                    for i, w in weights:
                        total = total + w * ent[(i, d)] * ent[(j - i, d)]
                    ent[(j, d + 1)] = total
        return table

    def value(self, j: int, depth: int):
        return self.entries[(j, depth)]


def mom_dp(k: int, n: int, beta_sq, precision: int = DEFAULT_PRECISION):
    """Moment of order k at depth n, in the ring selected for beta^2.

    Returns a Fraction for integer beta^2, a Radical for exact rational
    beta^2 = a/m, and an mpf otherwise.
    """
    ctx = resolve_context(beta_sq, "auto", precision)
    return MomentTable.build(k, n, ctx).value(k, n)


@lru_cache(maxsize=None)
def mom_symbolic(k: int) -> GenPoly:
    """Closed form of the k-th moment as a GenPoly over Q(t).

    Built by structural induction: each product of lower-order closed
    forms is pushed through the lam-sum via ``geometric_sum``, which is
    never degenerate here because the diagonal exponent strictly
    dominates every product exponent in its beta^2 part.
    """
    if k < 1:
        raise ValueError("moment order must be positive")
    if k == 1:
        return GenPoly.single(ExpPair(1, 0), RatFun.one())
    diag = ExpPair(k * k, 1 - k)
    total = GenPoly.single(diag, RatFun.one())
    pref = RatFun.t_power(k * k, pow2(-k))
    for j in range(1, k):
        weight = pref * RatFun.t_power(2 * j * (j - k), comb(k, j))
        product = mom_symbolic(j) * mom_symbolic(k - j)
        lam_sum = GenPoly.zero()
        for e, c in product.items():
            # sum over lam of 2^(diag*lam) * 2^(e*(n-lam-1))
            #   = 2^(-e) * (geometric sum with step diag-e) * 2^(e*n)
            shifted = geometric_sum(diag.minus(e)) * GenPoly.single(
                e, two_pow_sym(e.neg()))
            lam_sum = lam_sum + shifted.scale(c)
        total = total + lam_sum.scale(weight)
    return total


def evaluate_genpoly(g: GenPoly, beta_sq, n: int,
                     precision: int = DEFAULT_PRECISION):
    """Value of a GenPoly at a concrete beta^2 and depth n.

    Evaluated in the ring ``resolve_context`` picks for beta^2: exact
    (Fraction or Radical) for rational beta^2, mpf at the requested
    precision otherwise.  Raises PoleAtCriticalBeta when a coefficient
    denominator vanishes at t = 2^(beta^2), as the ring's ``vanishes``
    judges it: exactly in the exact rings, conservatively in floats.
    """
    ctx = resolve_context(beta_sq, "auto", precision)
    with ctx.workprec():
        t = ctx.two_pow(1, 0)
        total = ctx.zero
        for e, c in g.items():
            num, den = c.evaluate_parts(t)
            if ctx.vanishes(den):
                raise PoleAtCriticalBeta(
                    "coefficient denominator vanishes at beta^2 = "
                    f"{beta_sq} in ring {ctx.tag}")
            total = total + num / den * ctx.two_pow(e.p * n, e.q * n)
        return total


@dataclass(frozen=True)
class MomPolynomial:
    """Exact polynomial in X = 2^n equal to the moment for integer k, beta."""

    k: int
    beta: int
    coefficients: Dict[int, Fraction]

    @property
    def degree(self) -> int:
        return max(self.coefficients)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[self.degree]

    def evaluate_at(self, x: Fraction) -> Fraction:
        return sum((c * x ** d for d, c in self.coefficients.items()),
                   Fraction(0))

    def evaluate(self, n: int) -> Fraction:
        return self.evaluate_at(pow2(n))

    def rows(self):
        """(degree, coefficient) pairs, highest degree first."""
        return sorted(self.coefficients.items(), reverse=True)


def mom_polynomial(k: int, beta: int) -> MomPolynomial:
    """Exact coefficients of the moment as a polynomial in 2^n.

    Obtained by specializing the symbolic closed form at the integer
    t = 2^(beta^2) and collapsing each exponent pair to its integer
    degree.  At integer beta >= 1 every geometric-sum step of the closed
    form has a positive integer exponent, so no coefficient denominator
    vanishes.
    """
    if k < 1 or beta < 1:
        raise ValueError("k and beta must be positive integers")
    beta_sq = beta * beta
    expected_degree = k * k * beta_sq - k + 1
    t = resolve_context(beta_sq, "rational").two_pow(1, 0)
    coeffs: Dict[int, Fraction] = {}
    for e, c in mom_symbolic(k).items():
        degree = e.value_at(beta_sq)
        if degree < 0:
            raise ArithmeticError(
                f"negative degree {degree} for exponent {e}")
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + c.evaluate(t)
    coeffs = {d: c for d, c in coeffs.items() if c}
    poly = MomPolynomial(k=k, beta=beta, coefficients=coeffs)
    if poly.degree != expected_degree:
        raise ArithmeticError(
            f"degree {poly.degree} != expected {expected_degree}")
    if poly.leading_coefficient <= 0:
        raise ArithmeticError("leading coefficient must be positive")
    return poly

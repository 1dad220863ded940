"""Moments of the branching random walk partition function.

Three computation routes for the k-th moment of
Z_n = 2^(-n) * sum over leaves of exp(2*beta*X_n(leaf)):

* ``mom_dp``: a pole-free dynamic program over any coefficient ring.  The
  k-tuple of leaf paths is split at the last common level lam; j of the k
  particles branch one way and k-j the other, leaving two independent
  subtrees of depth n-lam-1, plus a diagonal term for all paths
  coinciding.  The lam-sum is accumulated termwise, so no division ever
  happens and every beta (critical points included) is in range.

* ``mom_symbolic``: the same induction carried out in Q(t), t = 2^(beta^2),
  with each lam-sum collapsed by ``geometric_sum``.  Valid for generic
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


@dataclass
class MomentTable:
    """Bottom-up table of moment values, keyed by (order j, depth).

    Base rows: depth 0 is identically 1, and the first moment at depth d
    is (2^(beta^2))^d.  Completed tables are immutable and safe to share;
    construction is single-writer.
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
            one = ring.one
            for j in range(1, k_max + 1):
                ent[(j, 0)] = one
            growth = ring.two_pow(1, 0)
            acc = one
            for d in range(1, n_max + 1):
                acc = acc * growth
                ent[(1, d)] = acc
            for j in range(2, k_max + 1):
                pref = ring.two_pow(j * j, -j)
                step = ring.two_pow(j * j, 1 - j)
                weights = [(i, comb(j, i) * ring.two_pow(2 * i * (i - j), 0))
                           for i in range(1, j)]
                for d in range(1, n_max + 1):
                    total = ring.zero
                    lam_factor = one
                    for lam in range(d):
                        sub = d - lam - 1
                        inner = ring.zero
                        for i, w in weights:
                            inner = inner + w * ent[(i, sub)] * ent[(j - i, sub)]
                        total = total + lam_factor * inner
                        lam_factor = lam_factor * step
                    diagonal = ring.two_pow(j * j * d, (1 - j) * d)
                    ent[(j, d)] = pref * total + diagonal
        return table

    def value(self, j: int, depth: int):
        return self.entries[(j, depth)]


def mom_dp(k: int, n: int, beta_sq, ring: str = "auto",
           precision: int = DEFAULT_PRECISION):
    """Moment of order k at depth n, in the ring selected for beta^2.

    Returns a Fraction for integer beta^2, a Radical for exact rational
    beta^2 = a/m, and an mpf otherwise.
    """
    ctx = resolve_context(beta_sq, ring, precision)
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

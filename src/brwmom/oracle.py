"""Ground-truth enumeration of the partition-function moments.

Leaves of the depth-n binary tree are n-bit labels whose bits encode the
root-to-leaf path.  The sum of k leaf walks is Gaussian, and its moment
generating function turns each k-tuple into an exact power of two whose
exponent counts shared path levels.  Summing over all 2^(k*n) tuples is
therefore exact in any ring and entirely independent of the recursion it
is used to check.
"""

from __future__ import annotations

from itertools import product

from .rings import DEFAULT_PRECISION, resolve_context

DEFAULT_ENUMERATION_BUDGET = 16


class EnumerationBudgetError(ValueError):
    """k*n exceeds the allowed exhaustive enumeration size."""


def mom_bruteforce(k: int, n: int, beta_sq, precision: int = DEFAULT_PRECISION,
                   budget: int = DEFAULT_ENUMERATION_BUDGET):
    """k-th moment by exhaustive enumeration of leaf k-tuples.

    Each tuple contributes 2^(beta^2 * (k*n + S)) where S counts shared
    levels over ordered pairs of distinct tuple slots; the result is the
    tuple average.  Refuses to enumerate beyond 2^budget tuples.
    """
    if k < 1:
        raise ValueError("moment order must be positive")
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if k * n > budget:
        raise EnumerationBudgetError(
            f"k*n = {k * n} exceeds enumeration budget {budget}")
    ctx = resolve_context(beta_sq, "auto", precision)
    with ctx.workprec():
        # S takes at most k(k-1)n/2 + 1 values: one power for each.
        total, powers = ctx.zero, {}
        for labels in product(range(1 << n), repeat=k):
            # A pair shares the levels above its labels' first differing bit.
            shared = 0
            for i in range(k):
                for j in range(i + 1, k):
                    shared += n - (labels[i] ^ labels[j]).bit_length()
            if shared not in powers:
                powers[shared] = ctx.two_pow(k * n + 2 * shared, 0)
            total = total + powers[shared]
        return total * ctx.two_pow(0, -k * n)

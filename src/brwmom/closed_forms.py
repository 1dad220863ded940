"""Hand-transcribed closed-form leading coefficients for moment orders
k = 2..5.

These expressions are the fully worked small-k limits of the moment
recursion, kept as golden data: the recursion and the symbolic extraction
are tested against them, so they must never be derived from the code they
check.  Sub-critical forms are written with the in-regime positive
orientation of each factor.

Three of the worked forms as usually printed are internally inconsistent
with the recursion they instantiate, and are corrected here:

* k = 4 super-critical gains the cross term 6/((2^(8x)-2)(2^(10x)-4)),
* k = 5 super-critical gains 120/((2^(8x)-2)(2^(16x)-4)(2^(18x)-8)),
* k = 5 sub-critical squares the (2 - 2^(2x)) factor in its first term,
  as forced by the pairing of two lower-order coefficients that each
  carry one such factor.

Each correction is pinned two independent ways: by composing the order
recursion exactly in Q(t), and by exact interpolation of the termwise
dynamic program (itself checked against brute-force enumeration).  The
corrected forms match both to full precision; the uncorrected ones miss
by the stated terms exactly.

Coverage: all three regimes for k = 2 and 3; sub- and super-critical for
k = 4 and 5 (the critical coefficient for k >= 4 has no transcribed
closed form here and comes from the recursion instead).
"""

from __future__ import annotations

import mpmath
from mpmath import mp

from .asymptotics import CRITICAL, SUB, SUPER
from .rings import DEFAULT_PRECISION, to_mpf

SUPPORTED = {
    (2, SUB), (2, CRITICAL), (2, SUPER),
    (3, SUB), (3, CRITICAL), (3, SUPER),
    (4, SUB), (4, SUPER),
    (5, SUB), (5, SUPER),
}


def leading_coefficient_closed_form(k: int, beta_sq, regime: str,
                                    precision: int = DEFAULT_PRECISION):
    """Evaluate the transcribed leading coefficient for (k, regime).

    beta_sq is ignored in the critical regime (it is pinned to 1/k there).
    Raises ValueError for combinations without a transcription.
    """
    if (k, regime) not in SUPPORTED:
        raise ValueError(f"no transcribed closed form for k={k}, {regime}")
    with mp.workprec(precision):
        x = None if beta_sq is None else to_mpf(beta_sq, precision)
        two = mpmath.mpf(2)

        def p(e):
            return two ** (e * x)

        if k == 2:
            if regime == SUB:
                return 1 / (2 * (1 - p(2) / 2))
            if regime == CRITICAL:
                return mpmath.mpf(1) / 2
            return (p(2) - 1) / (2 * (p(2) / 2 - 1))

        if k == 3:
            if regime == SUB:
                return 3 * p(2) / ((4 - p(6)) * (2 - p(2)))
            if regime == CRITICAL:
                return 3 / (two ** mpmath.mpf("7/3") - 4)
            return 1 + 3 * (p(6) - 2) / ((p(4) - 2) * (p(6) - 4))

        if k == 4:
            if regime == SUB:
                return (3 * p(8) * 4 / ((2 - p(2)) * (4 - p(6)) * (8 - p(12)))
                        + 3 * p(8) / 8 / ((2 - p(2)) ** 2 * (p(4) - p(16) / 8)))
            # super-critical: diagonal term plus the three split patterns
            # (1,3), (1,3) cross, and (2,2); the last line is the
            # correction discussed in the module docstring.
            return (1
                    + 4 / (p(6) - 2)
                    + 12 * (1 / ((p(4) - 2) * (p(6) - 4))
                            - (p(6) - p(4)) / ((p(2) - 2) * (p(4) - 2) * (p(10) - 4))
                            + p(8) / ((p(2) - 2) * (p(6) - 4) * (p(12) - 8)))
                    + 3 * p(8) / 8 * (
                        1 / ((p(2) - 2) ** 2 * (p(16) / 8 - p(4)))
                        - 4 / p(6) / ((p(2) - 2) ** 2 * (p(10) / 4 - 1))
                        - 1 / ((p(2) - 2) * (p(16) / 8 - p(6) / 2))
                        + 4 / p(8) / ((p(2) - 2) ** 2 * (p(8) / 2 - 1))
                        + 1 / ((p(2) - 2) * (p(16) / 8 - p(8) / 4))
                        + 1 / (p(16) / 8 - p(8) / 4))
                    + 6 / ((p(8) - 2) * (p(10) - 4)))

        if regime == SUB:  # k == 5; first factor squared per the docstring
            return (15 * p(10) * 2 / ((2 - p(2)) ** 2 * (4 - p(6)) * (16 - p(20)))
                    + 15 * p(20) * 4 / ((2 - p(2)) * (4 - p(6)) * (8 - p(12))
                                        * (16 - p(20)))
                    + 15 * p(16) / ((2 - p(2)) ** 2 * (8 - p(12)) * (16 - p(20))))
        # k == 5 super-critical, term by term.
        return (30 * (p(6) - 2) * (p(2) - 1)
                / ((p(2) - 2) * (p(4) - 2) * (p(6) - 4) * (p(12) - 2))
                - 15 * p(4) * 2 * (p(2) - 1) ** 2
                / ((p(2) - 2) ** 2 * (p(4) - 2) * (p(16) - 4))
                + 10 * (p(2) - 1) / ((p(2) - 2) * (p(12) - 2))
                + 15 * p(6) * 2 * (p(2) - 1)
                / ((p(2) - 2) ** 2 * (p(4) - 2) * (p(18) - 8))
                + 15 * p(8) * 2 * (p(2) - 1)
                / ((p(2) - 2) ** 2 * (p(6) - 4) * (p(18) - 8))
                + 60 / ((p(4) - 2) * (p(6) - 4) * (p(8) - 2))
                + 20 / ((p(6) - 2) * (p(8) - 2))
                + 5 / (p(8) - 2)
                - 60 * (p(6) - p(4))
                / ((p(2) - 2) * (p(4) - 2) * (p(8) - 2) * (p(10) - 4))
                - 15 * p(2) / ((p(2) - 2) * (p(8) - 2) * (p(10) - 4))
                - 15 * p(2) * 2 / ((p(2) - 2) ** 2 * (p(8) - 2) * (p(10) - 4))
                + 15 * p(8) * 4
                / ((p(2) - 2) * (p(6) - 4) * (p(8) - 2) * (p(12) - 8))
                + 15 * p(4) / ((p(2) - 2) ** 2 * (p(8) - 2) * (p(12) - 8))
                - 15 * p(2) * 2 * (p(6) - 2)
                / ((p(2) - 2) * (p(4) - 2) * (p(6) - 4) * (p(14) - 4))
                - 5 * p(2) * 2 / ((p(2) - 2) * (p(14) - 4))
                - 15 * p(6) * 4 / ((p(4) - 2) * (p(6) - 4) * (p(14) - 4))
                - 5 * p(6) * 4 / ((p(6) - 2) * (p(14) - 4))
                - 15 * p(8) / ((p(8) - 2) * (p(16) - 4))
                - 15 * p(8) / ((p(2) - 2) * (p(8) - 2) * (p(16) - 4))
                - 15 * p(8) / ((p(2) - 2) ** 2 * (p(8) - 2) * (p(16) - 4))
                + 60 * (p(16) - p(14))
                / ((p(2) - 2) * (p(4) - 2) * (p(10) - 4) * (p(18) - 8))
                + 15 * p(12) / ((p(2) - 2) * (p(10) - 4) * (p(18) - 8))
                + 15 * p(12) * 2 / ((p(2) - 2) ** 2 * (p(10) - 4) * (p(18) - 8))
                - 15 * p(10) * 2 / ((p(2) - 2) ** 2 * (p(6) - 4) * (p(20) - 16))
                - 15 * p(20) * 4
                / ((p(2) - 2) * (p(6) - 4) * (p(12) - 8) * (p(20) - 16))
                - 15 * p(16) / ((p(2) - 2) ** 2 * (p(12) - 8) * (p(20) - 16))
                + 15 / ((p(2) - 2) * (p(8) - 2) ** 2)
                + 15 / ((p(2) - 2) ** 2 * (p(8) - 2) ** 2)
                + 15 / (p(8) - 2) ** 2
                + 120 / ((p(8) - 2) * (p(16) - 4) * (p(18) - 8))
                + 1)

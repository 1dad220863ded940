"""Moments of the partition function of a Gaussian branching random walk.

Exact, symbolic, and stochastic computation of the k-th moments of
Z_n = 2^(-n) * sum over leaves of exp(2*beta*X_n(leaf)) on the depth-n
binary tree, their growth-regime asymptotics, and the finite-N first
moment of moments of random-unitary characteristic polynomials.
"""

from .asymptotics import (CRITICAL, SUB, SUPER, LeadingTerm, RatioEstimate,
                          Regime, RegimeError, classify_regime,
                          critical_coefficient, leading_coefficient_numeric,
                          leading_term, subcritical_coefficient,
                          supercritical_coefficient)
from .closed_forms import leading_coefficient_closed_form
from .engine import (MomentTable, MomPolynomial, PoleAtCriticalBeta,
                     evaluate_genpoly, mom_dp, mom_polynomial, mom_symbolic)
from .oracle import EnumerationBudgetError, mom_bruteforce
from .rings import (DEFAULT_PRECISION, Radical, RingMismatchError,
                    resolve_context, to_mpf)
from .rmt import unitary_mom_k1, unitary_mom_k1_integer
from .symbolic import (DegenerateExponent, ExpPair, GenPoly, RatFun,
                       geometric_sum)

__version__ = "0.1.0"

# Monte Carlo needs numpy and scipy, which take most of the import time;
# its names load on first use (PEP 562).
_MONTECARLO = ("MomentEstimate", "SimConfig", "estimate_mom")

__all__ = [
    "Radical", "RingMismatchError", "DEFAULT_PRECISION", "resolve_context",
    "to_mpf",
    "ExpPair", "RatFun", "GenPoly", "DegenerateExponent",
    "geometric_sum",
    "MomentTable", "MomPolynomial", "PoleAtCriticalBeta",
    "mom_dp", "mom_symbolic", "evaluate_genpoly", "mom_polynomial",
    "Regime", "RegimeError", "LeadingTerm", "RatioEstimate",
    "SUB", "CRITICAL", "SUPER", "classify_regime",
    "subcritical_coefficient", "critical_coefficient",
    "supercritical_coefficient", "leading_coefficient_numeric",
    "leading_term", "leading_coefficient_closed_form",
    "EnumerationBudgetError", "mom_bruteforce",
    "SimConfig", "MomentEstimate", "estimate_mom",
    "unitary_mom_k1", "unitary_mom_k1_integer",
    "__version__",
]


def __getattr__(name):
    if name in _MONTECARLO:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MONTECARLO))

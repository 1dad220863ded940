"""Moments of the partition function of a Gaussian branching random walk.

Exact, symbolic, and stochastic computation of the k-th moments of
Z_n = 2^(-n) * sum over leaves of exp(2*beta*X_n(leaf)) on the depth-n
binary tree, their growth-regime asymptotics, and the finite-N first
moment of moments of random-unitary characteristic polynomials.

The root imports no submodule: each exported name loads its submodule
on first use (PEP 562), so mpmath, numpy and scipy load only with a
route that needs them.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, in the order of __all__.
_SUBMODULE = {name: module for module, names in (
    ("rings", "Radical RingMismatchError DEFAULT_PRECISION resolve_context "
              "to_mpf"),
    ("symbolic", "ExpPair RatFun GenPoly DegenerateExponent geometric_sum"),
    ("engine", "MomentTable MomPolynomial PoleAtCriticalBeta mom_dp "
               "mom_symbolic evaluate_genpoly mom_polynomial"),
    ("asymptotics", "Regime RegimeError LeadingTerm RatioEstimate SUB "
                    "CRITICAL SUPER classify_regime subcritical_coefficient "
                    "critical_coefficient supercritical_coefficient "
                    "leading_coefficient_numeric leading_term"),
    ("closed_forms", "leading_coefficient_closed_form"),
    ("oracle", "EnumerationBudgetError mom_bruteforce"),
    ("montecarlo", "SimConfig MomentEstimate estimate_mom"),
    ("rmt", "unitary_mom_k1 unitary_mom_k1_integer"),
) for name in names.split()}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))

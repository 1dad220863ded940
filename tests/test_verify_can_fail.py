"""Each ``verify`` suite can fail.  With one route under check perturbed
beyond its tolerance, the suite exits 1, and exactly the checks that read
that route report ``"pass": false``.  Each suite runs in-process (the
``run`` fixture) with one route replaced at a time."""

import dataclasses
import json

import pytest

from brwmom import asymptotics, cli, engine, montecarlo, rmt


def scaled(factor):
    return lambda value, *args: value * factor


def exact_beta_plus_one(value, k, n, beta_sq, *rest):
    return value + 1 if isinstance(beta_sq, int) else value


def float_beta_scaled(value, k, n, beta_sq, *rest):
    return value if isinstance(beta_sq, int) else value * (1 + 1e-9)


def coefficient_scaled(term, *args):
    return term._replace(coefficient=term.coefficient * (1 + 1e-11))


def integer_beta_one_plus_one(value, N, beta, *rest):
    return value + 1 if beta == 1 else value


def mean_shifted(est, *args):
    return dataclasses.replace(est, mean=est.mean + 4 * est.stderr)


# (suite, budget, module, route, perturbation, family): ``perturbation``
# maps the route's value and positional arguments to the perturbed value,
# and ``family`` picks the names of the checks that read the route.
CASES = {
    "oracle-exact": ("oracle", 8, engine, "mom_dp", exact_beta_plus_one,
                     lambda name: name.startswith("dp=bruteforce")),
    "oracle-float": ("oracle", 8, engine, "mom_dp", float_beta_scaled,
                     lambda name: name.startswith("dp~bruteforce")),
    "closedform-leading": ("closedform", None, asymptotics, "leading_term",
                           coefficient_scaled,
                           lambda name: name.startswith("closed form")),
    "closedform-critical": ("closedform", None, asymptotics,
                            "critical_coefficient", scaled(1 + 1e-11),
                            lambda name: name.startswith("critical")),
    "rmt-gamma": ("rmt", 50, rmt, "unitary_mom_k1", scaled(1 + 1e-11),
                  lambda name: name.startswith("gamma=integer")),
    # The gamma checks at beta = 1 read the integer route too.
    "rmt-telescoping": ("rmt", 50, rmt, "unitary_mom_k1_integer",
                        integer_beta_one_plus_one,
                        lambda name: name.startswith("telescoping")
                        or name.endswith(" beta=1")),
    # Unperturbed, the z-scores at seed 42 and 200 trials are 1.3 and 1.0.
    "mc": ("mc", 200, montecarlo, "estimate_mom", mean_shifted,
           lambda name: True),
}


@pytest.mark.parametrize("case", list(CASES))
def test_perturbed_route_fails_its_checks(case, monkeypatch, run):
    suite, budget, module, route, perturbation, family = CASES[case]
    original = getattr(module, route)
    monkeypatch.setattr(module, route, lambda *args, **kwargs: perturbation(
        original(*args, **kwargs), *args))
    argv = ["verify", "--suite", suite, "--precision", "256"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code, out, _ = run(*argv)
    record = json.loads(out)
    assert code == cli.EXIT_VERIFY_FAILED
    assert record["result"]["pass"] is False
    checks = record["result"]["checks"]
    failed = {c["name"] for c in checks if not c["pass"]}
    assert failed and failed == {c["name"] for c in checks
                                 if family(c["name"])}

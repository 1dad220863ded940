"""Each fresh process loads only what its route uses: a bare ``import
brwmom`` loads no submodule and no numeric library, mpmath loads only
for float and radical values, numpy and scipy only for Monte Carlo, and
each command or ``verify`` suite loads its own modules and no other's.
``dataclasses`` and ``inspect`` load only with Monte Carlo: the records
of every other route are NamedTuples.  So do ``argparse`` and
``gettext``, through numpy and scipy: the CLI parses with its own flag
table."""

import json

import pytest

from conftest import spawn

RUN = """
import contextlib, io, json, sys
from brwmom import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "stdout": out.getvalue(),
                  "modules": sorted(sys.modules)}))
"""

# What every command loads: the CLI, the dynamic program and its rings.
CLI_BASE = {"brwmom.cli", "brwmom.engine", "brwmom.rings"}
# The costly standard-library modules: numpy and Monte Carlo's records
# load them.
STDLIB = ("argparse", "dataclasses", "gettext", "inspect")
MONTE_CARLO = {"mpmath", "numpy", "scipy", *STDLIB, "brwmom.montecarlo"}


def run_in_fresh_interpreter(code: str, *args: str) -> dict:
    cp = spawn("-c", code, *args)
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout)


def run_commands(*argvs) -> dict:
    return run_in_fresh_interpreter(RUN, json.dumps(argvs))


def watched(out: dict) -> set:
    """The numeric libraries, the costly standard-library modules and the
    brwmom submodules of a run."""
    return {m for m in out["modules"]
            if m in ("mpmath", "numpy", "scipy") + STDLIB
            or m.startswith("brwmom.")}


def test_non_mc_commands_leave_numeric_stack_unloaded():
    out = run_commands(
        ["mom", "--k", "2", "--n", "3", "--beta", "1"],
        ["mom", "--k", "2", "--n", "3", "--beta", "0.3"],
        ["poly", "--k", "2", "--beta", "1"],
        ["asym", "--k", "3", "--beta", "0.4"],
        ["sweep", "--k", "2", "--beta-min", "0.1", "--beta-max", "1",
         "--steps", "3"],
        ["verify", "--suite", "oracle", "--budget", "8"],
        ["verify", "--suite", "closedform"],
        ["verify", "--suite", "rmt", "--budget", "50"])
    assert out["codes"] == [0] * 8
    assert not {"numpy", "scipy", *STDLIB} & watched(out)


def test_bare_import_leaves_numeric_stack_unloaded():
    out = run_in_fresh_interpreter(
        "import json, sys, brwmom\n"
        "print(json.dumps({'modules': sorted(sys.modules)}))")
    assert watched(out) == set()


def test_mc_loads_numeric_stack():
    out = run_commands(["mc", "--k", "1", "--n", "3", "--beta", "0.3",
                        "--trials", "50", "--seed", "1"])
    assert out["codes"] == [0]
    record = json.loads(out["stdout"])
    assert record["command"] == "mc"
    assert record["result"]["estimate"] > 0
    assert "numpy" in watched(out)


@pytest.mark.parametrize("argv, loads", [
    (["poly", "--k", "5", "--beta", "3"], set()),
    (["poly", "--k", "2", "--beta", "1", "--format", "csv"], set()),
    (["mom", "--k", "2", "--n", "3", "--beta", "1"], set()),
    (["mom", "--k", "2", "--n", "3", "--beta-sq-rational", "4/1"], set()),
    (["mom", "--k", "1", "--n", "3", "--beta-sq-rational", "1/2"],
     {"mpmath"}),
    (["mom", "--k", "2", "--n", "3", "--beta", "0.3"], {"mpmath"}),
    (["asym", "--k", "3", "--beta", "0.4"],
     {"mpmath", "brwmom.asymptotics"}),
    (["asym", "--k", "2", "--beta-sq-rational", "1/1"],
     {"mpmath", "brwmom.asymptotics"}),
    (["sweep", "--k", "2", "--beta-min", "0.1", "--beta-max", "1",
      "--steps", "3"], {"mpmath", "brwmom.asymptotics"}),
    (["verify", "--suite", "oracle", "--budget", "8"],
     {"mpmath", "brwmom.oracle"}),
    (["verify", "--suite", "closedform"],
     {"mpmath", "brwmom.asymptotics", "brwmom.closed_forms"}),
    (["verify", "--suite", "rmt", "--budget", "50"],
     {"mpmath", "brwmom.rmt"}),
    (["verify", "--suite", "mc", "--budget", "50"], MONTE_CARLO),
    (["mc", "--k", "1", "--n", "3", "--beta", "0.3", "--trials", "50"],
     MONTE_CARLO),
], ids=["poly", "poly-csv", "mom-rational", "mom-rational-sq",
        "mom-radical", "mom-float", "asym-float", "asym-exact", "sweep",
        "verify-oracle", "verify-closedform", "verify-rmt", "verify-mc",
        "mc"])
def test_route_loads_only_its_modules(argv, loads):
    out = run_commands(argv)
    assert out["codes"] == [0]
    assert watched(out) == CLI_BASE | loads


@pytest.mark.parametrize("statement, loads_symbolic", [
    ("brwmom.mom_dp(3, 4, 0.3)", False),
    ("brwmom.leading_term(3, 0.5)", False),
    ("brwmom.supercritical_coefficient(4, 0.3)", False),
    ("brwmom.ExpPair(1, 0)", False),
    ("brwmom.mom_symbolic(2)", True),
    ("brwmom.RatFun", True),
], ids=["mom_dp", "leading_term", "supercritical", "ExpPair",
        "mom_symbolic", "RatFun"])
def test_library_loads_symbolic_only_for_q_t(statement, loads_symbolic):
    # The Q(t) layer loads with its own names alone: every route of a
    # float beta^2, super-critical ones included, leaves it unloaded.
    out = run_in_fresh_interpreter(
        f"import json, sys, brwmom\n{statement}\n"
        "print(json.dumps({'modules': sorted(sys.modules)}))")
    assert ("brwmom.symbolic" in out["modules"]) is loads_symbolic

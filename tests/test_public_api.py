"""The package root exports what the documentation imports from it."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import brwmom
from brwmom import ExpPair

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in brwmom.__all__:
        assert hasattr(brwmom, name), name


# The submodule of each exported constant; classes and functions name
# theirs in __module__.
CONSTANT_HOME = {"SUB": "asymptotics", "CRITICAL": "asymptotics",
                 "SUPER": "asymptotics", "DEFAULT_PRECISION": "rings"}


@pytest.mark.parametrize("name", sorted(set(brwmom.__all__)
                                        - {"__version__"}))
def test_exported_name_is_the_submodules_object(name):
    value = getattr(brwmom, name)
    home = CONSTANT_HOME.get(name) or value.__module__.removeprefix(
        "brwmom.")
    assert value is getattr(importlib.import_module(f"brwmom.{home}"), name)


def test_dir_lists_every_exported_name():
    assert set(brwmom.__all__) <= set(dir(brwmom))


def test_monte_carlo_names_import_lazily():
    from brwmom import MomentEstimate, SimConfig, estimate_mom
    from brwmom import montecarlo
    assert (MomentEstimate, SimConfig, estimate_mom) == (
        montecarlo.MomentEstimate, montecarlo.SimConfig,
        montecarlo.estimate_mom)
    assert {"MomentEstimate", "SimConfig", "estimate_mom"} <= set(
        dir(brwmom))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from brwmom import *", namespace)
    assert set(brwmom.__all__) <= set(namespace)


def test_unknown_name_is_missing():
    assert not hasattr(brwmom, "no_such_name")


def test_readme_library_imports_are_exported():
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    imported = {alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom)
                and node.module == "brwmom"
                for alias in node.names}
    assert imported, "README's Library block imports nothing from brwmom"
    assert imported <= set(brwmom.__all__), imported - set(brwmom.__all__)


@pytest.mark.parametrize("call, message", [
    (lambda: brwmom.classify_regime(0, 0.1), "order"),
    (lambda: brwmom.subcritical_coefficient(0, 0.1), "order"),
    (lambda: brwmom.supercritical_coefficient(0, 2.0), "order"),
    (lambda: brwmom.MomentTable.build(1, -1, brwmom.resolve_context(1)),
     "depth"),
    (lambda: brwmom.mom_symbolic(0), "order"),
    (lambda: brwmom.mom_bruteforce(0, 1, 1), "order"),
    (lambda: brwmom.mom_bruteforce(1, -1, 1), "depth"),
    (lambda: brwmom.unitary_mom_k1_integer(-1, 1), "matrix size"),
    (lambda: brwmom.unitary_mom_k1_integer(1, -1), "beta"),
    (lambda: brwmom.geometric_sum(ExpPair(1, 0), -1), "n must"),
    (lambda: brwmom.resolve_context(1, "complex"), "unknown ring"),
    (lambda: brwmom.Radical(0, []), "root index"),
], ids=["classify_regime", "subcritical_coefficient",
        "supercritical_coefficient", "MomentTable.build", "mom_symbolic",
        "mom_bruteforce-k", "mom_bruteforce-n", "unitary_mom_k1_integer-N",
        "unitary_mom_k1_integer-beta", "geometric_sum", "resolve_context",
        "Radical"])
def test_out_of_range_input_raises_value_error(call, message):
    # Input checks that no other test reaches.
    with pytest.raises(ValueError, match=message):
        call()

"""The package root exports what the documentation imports from it."""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import brwmom

README = Path(__file__).resolve().parent.parent / "README.md"
NAN, INF = float("nan"), float("inf")


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
    pytest.param(lambda: brwmom.classify_regime(0, 0.1), "order",
                 id="classify_regime"),
    pytest.param(lambda: brwmom.subcritical_coefficient(0, 0.1), "order",
                 id="subcritical_coefficient"),
    pytest.param(lambda: brwmom.subcritical_coefficient(3, -0.5),
                 "nonnegative", id="subcritical_coefficient-negative"),
    pytest.param(lambda: brwmom.subcritical_coefficient(1, NAN), "finite",
                 id="subcritical_coefficient-nan"),
    pytest.param(lambda: brwmom.supercritical_coefficient(0, 2.0), "order",
                 id="supercritical_coefficient"),
    pytest.param(lambda: brwmom.supercritical_coefficient(3, NAN), "finite",
                 id="supercritical_coefficient-nan"),
    pytest.param(lambda: brwmom.MomentTable.build(
        1, -1, brwmom.resolve_context(1)), "depth", id="MomentTable.build"),
    pytest.param(lambda: brwmom.mom_dp(2, 3, NAN), "finite", id="mom_dp-nan"),
    pytest.param(lambda: brwmom.mom_dp(2, 3, INF), "finite", id="mom_dp-inf"),
    pytest.param(lambda: brwmom.leading_term(3, NAN), "finite",
                 id="leading_term-nan"),
    pytest.param(lambda: brwmom.leading_term(3, INF), "finite",
                 id="leading_term-inf"),
    pytest.param(lambda: brwmom.leading_term(3, -0.5), "nonnegative",
                 id="leading_term-negative"),
    pytest.param(lambda: brwmom.mom_symbolic(0), "order", id="mom_symbolic"),
    pytest.param(lambda: brwmom.evaluate_genpoly(brwmom.mom_symbolic(2),
                                                 NAN, 3),
                 "finite", id="evaluate_genpoly-nan"),
    pytest.param(lambda: brwmom.leading_coefficient_closed_form(
        2, -0.5, brwmom.SUB), "nonnegative",
        id="leading_coefficient_closed_form-negative"),
    pytest.param(lambda: brwmom.leading_coefficient_closed_form(
        2, NAN, brwmom.SUB), "finite",
        id="leading_coefficient_closed_form-nan"),
    pytest.param(lambda: brwmom.leading_coefficient_closed_form(
        3, INF, brwmom.SUPER), "finite",
        id="leading_coefficient_closed_form-inf"),
    pytest.param(lambda: brwmom.mom_bruteforce(0, 1, 1), "order",
                 id="mom_bruteforce-k"),
    pytest.param(lambda: brwmom.mom_bruteforce(1, -1, 1), "depth",
                 id="mom_bruteforce-n"),
    pytest.param(lambda: brwmom.mom_bruteforce(2, 2, NAN), "finite",
                 id="mom_bruteforce-nan"),
    pytest.param(lambda: brwmom.mom_bruteforce(2, 2, -1), "nonnegative",
                 id="mom_bruteforce-negative"),
    pytest.param(lambda: brwmom.unitary_mom_k1_integer(-1, 1), "matrix size",
                 id="unitary_mom_k1_integer-N"),
    pytest.param(lambda: brwmom.unitary_mom_k1_integer(1, -1), "beta",
                 id="unitary_mom_k1_integer-beta"),
    pytest.param(lambda: brwmom.resolve_context(1, "complex"), "unknown ring",
                 id="resolve_context"),
    pytest.param(lambda: brwmom.resolve_context(-1), "nonnegative",
                 id="resolve_context-rational-negative"),
    pytest.param(lambda: brwmom.resolve_context(Fraction(-1, 2)),
                 "nonnegative", id="resolve_context-radical-negative"),
    pytest.param(lambda: brwmom.resolve_context(INF), "finite",
                 id="resolve_context-float-inf"),
    pytest.param(lambda: brwmom.Radical(0, []), "root index", id="Radical"),
])
def test_out_of_range_input_raises_value_error(call, message):
    # Input checks that no other test reaches.
    with pytest.raises(ValueError, match=message):
        call()

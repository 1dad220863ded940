"""The package root exports what the documentation imports from it."""

import ast
import re
from pathlib import Path

import brwmom

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in brwmom.__all__:
        assert hasattr(brwmom, name), name


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

"""tools/linecov.py; no test here starts a process."""

import json
import os

import pytest

import linecov

FIXTURE = '''\
"""Module docstring."""
import os
from sys import path

X = max(1,
        2)


def f(a):
    """Function docstring."""
    if (a
            and X):
        return [a,
                a]
    return None


class C:
    """Class docstring."""
    y = os.sep
'''


def test_statement_lines(tmp_path):
    # Lines 1-3, 9-10 and 18-19 are docstrings, imports, a def and a
    # class; the if counts by its two-line header, not by its body.
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert linecov.statement_lines(path) == {
        5: {5, 6}, 11: {11, 12}, 13: {13, 14}, 15: {15}, 20: {20}}


def test_report(tmp_path, monkeypatch):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "ran.py").write_text(
        "a = 1\nif a:\n    b = 2\nelse:\n    c = 3\n")
    (package / "unrun.py").write_text("d = 4\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "1.json").write_text(json.dumps(
        {os.path.realpath(package / "ran.py"): [1, 2, 3]}))
    monkeypatch.setattr(linecov, "ROOT", tmp_path)
    monkeypatch.setattr(linecov, "PACKAGE", package)
    assert linecov.report(out) == {
        "executable": 5, "unrun": 2,
        "lines": {"pkg/ran.py": [[5, "c = 3"]],
                  "pkg/unrun.py": [[1, "d = 4"]]}}


def test_unknown_argument_is_a_usage_error(capsys):
    assert linecov.main(["--x"]) == 2
    assert capsys.readouterr() == (
        "", "usage: python tools/linecov.py [--routes]\n")


@pytest.mark.parametrize("argv", linecov.ERRORS)
def test_each_error_line_exits_with_an_error_code(argv, run):
    code, _, err = run(*argv)
    assert 2 <= code <= 5
    assert err.startswith("error: ")

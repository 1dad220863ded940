import os
import subprocess
import sys

import pytest

import brwmom
from brwmom import cli

# The src/ this process imported brwmom from (pyproject.toml's pythonpath).
SRC = os.path.dirname(os.path.dirname(brwmom.__file__))


def spawn(*args: str, env=None, **run_kwargs) -> subprocess.CompletedProcess:
    """Runs ``python *args`` as text in a child interpreter, with ``SRC``
    and then the caller's ``PYTHONPATH`` on its path and ``env`` set over
    this process's environment; a stream not given is captured."""
    env = {**os.environ, **(env or {})}
    path = [SRC, env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    for stream in ("stdout", "stderr"):
        run_kwargs.setdefault(stream, subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          **run_kwargs)


@pytest.fixture
def run(capsys, monkeypatch):
    """Runs a command in this process as ``python -m brwmom *argv`` would:
    ``cli.main`` with ``env`` set for the call, a ``SystemExit``'s code
    read as the exit status.  Returns ``(code, stdout, stderr)``."""
    def run(*argv: str, env=None) -> tuple:
        capsys.readouterr()
        with monkeypatch.context() as patch:
            for name, value in (env or {}).items():
                patch.setenv(name, value)
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return (code, *capsys.readouterr())
    return run

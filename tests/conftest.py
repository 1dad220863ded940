import sys
from pathlib import Path

import pytest

# Allow running the suite from a source checkout without installing, and
# let the tests import the tools and the benchmark's modules by name.
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "tools"),
                                  str(ROOT / "perfbench"))
                if path not in sys.path]

from brwmom import cli  # noqa: E402


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

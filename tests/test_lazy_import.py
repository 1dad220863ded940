"""numpy and scipy load only for Monte Carlo: every other command, and a
bare ``import brwmom``, leaves them out of ``sys.modules``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = """
import contextlib, io, json, sys
from brwmom import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "stdout": out.getvalue(),
                  "numeric": sorted({"numpy", "scipy"} & set(sys.modules))}))
"""


def run_in_fresh_interpreter(code: str, *args: str) -> dict:
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    cp = subprocess.run([sys.executable, "-c", code, *args],
                        capture_output=True, text=True,
                        env={**os.environ, "PYTHONPATH": path})
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout)


def run_commands(*argvs) -> dict:
    return run_in_fresh_interpreter(RUN, json.dumps(argvs))


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
    assert out["numeric"] == []


def test_bare_import_leaves_numeric_stack_unloaded():
    out = run_in_fresh_interpreter(
        "import json, sys, brwmom\n"
        "print(json.dumps({'numeric': "
        "sorted({'numpy', 'scipy'} & set(sys.modules))}))")
    assert out["numeric"] == []


def test_mc_loads_numeric_stack():
    out = run_commands(["mc", "--k", "1", "--n", "3", "--beta", "0.3",
                        "--trials", "50", "--seed", "1"])
    assert out["codes"] == [0]
    record = json.loads(out["stdout"])
    assert record["command"] == "mc"
    assert record["result"]["estimate"] > 0
    assert "numpy" in out["numeric"]

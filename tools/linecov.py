"""Report the executable lines of ``src/brwmom`` that never run.

    python tools/linecov.py
    python tools/linecov.py --routes

The default mode runs ``python -m pytest -q -p no:cacheprovider``, the
whole suite, from the repository root.  A generated
``sitecustomize.py`` comes first on ``PYTHONPATH``, so every Python
process of the run, the subprocesses of the tests included, traces the
lines it runs in ``src/brwmom/*.py`` and writes them to a JSON file of
its own at exit.  ``--routes`` runs, in one traced process, every variant
of the benchmark's workloads (``tools/variants.py``'s job list), the
``brwmom`` examples of README.md (``--out`` into a temporary directory),
each ``verify`` suite, ``BRANCHES`` (command lines that reach branches no
benchmark job reaches), ``--help``, and ``ERRORS``: one command line per
parser error and per error exit of a handler.  Each job runs through the
benchmark's own worker, ``perfbench/worker.run_job`` (``perfbench/`` is
read and not changed), and a job that raises fails the traced run.

Either mode merges the files and prints one JSON record to stdout: the
number of executable statement lines, how many never ran, and those
lines with their source per file.  An executable statement line is the
first line of an ``ast`` statement that is not a def, class, import or
docstring and that compiles to code; it ran when any line of the
statement ran (of its header alone, for a compound statement).  The
exit status is 1 when a line never ran or the traced run failed.
Standard library only.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

import variants  # puts src/ and perfbench/ on sys.path
import worker
import workloads

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
SRC = ROOT / "src"
PACKAGE = SRC / "brwmom"

# Written as sitecustomize.py: imports nothing beyond what every
# interpreter has loaded, so tests that watch sys.modules see no change.
SITE = '''\
import atexit
import os
import sys

_PACKAGE, _OUT = {package!r}, {out!r}
_lines, _tracers = {{}}, {{}}


def _tracer(lines):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        return _tracers[name]
    except KeyError:
        path = os.path.realpath(name)
        mine = os.path.dirname(path) == _PACKAGE
        lines = _lines.setdefault(path, set()) if mine else None
        _tracers[name] = tracer = _tracer(lines) if mine else None
        return tracer


@atexit.register
def _dump():
    sys.settrace(None)
    import json
    name = f"{{os.getpid()}}-{{os.urandom(4).hex()}}.json"
    with open(os.path.join(_OUT, name), "w") as fh:
        json.dump({{p: sorted(s) for p, s in _lines.items()}}, fh)


sys.settrace(_call)
'''


# One command line per error of cli.parse_args and per error exit of a
# handler (exit codes 2 to 5).
MOM = ["mom", "--k", "1", "--n", "1", "--beta", "1"]
ERRORS = [
    [], ["x"], ["-hx"], ["--foo", *MOM], ["mom", "--b", "1"], ["mom", "--k"],
    MOM + ["--ring", "x"], MOM + ["--k", "0"], MOM + ["--n", "x"],
    MOM + ["--beta-sq-rational", "1/2"],
    ["mom", "--k", "1"], ["mom", "--k", "1", "--n", "1"],
    ["mc", "--k", "1", "--n", "1", "--beta", "0.3", "--force=x"],
    MOM + ["--", "x"],
    ["sweep", "--k", "2", "--beta-min", "1", "--beta-max", "0", "--steps",
     "3"],
    ["verify", "--suite", "mc", "--budget", "1"],
    ["mom", "--k", "1", "--n", "1", "--beta", "0.3", "--ring", "rational"],
    ["sweep", "--k", "2", "--beta-min", "0", "--beta-max", "1", "--steps",
     "2", "--out", str(ROOT / "no-such-dir" / "x.csv")],
    ["mc", "--k", "3", "--n", "2", "--beta", "0.8", "--trials", "2"],
]


# Command lines that reach branches no benchmark job reaches: asym at
# k = 1 with a float and an exact beta^2, an integral --beta-sq-rational
# (RationalContext's Fraction -> int step), mc at depth 0 and at one trial.
BRANCHES = [
    ["asym", "--k", "1", "--beta", "0.5"],
    ["asym", "--k", "1", "--beta-sq-rational", "1/2"],
    ["mom", "--k", "2", "--n", "1", "--beta-sq-rational", "4"],
    ["mc", "--k", "1", "--n", "0", "--beta", "0.3", "--trials", "2"],
    ["mc", "--k", "1", "--n", "1", "--beta", "0.3", "--trials", "1"],
]


def readme_examples(out_dir: str) -> list:
    """The ``brwmom`` command lines of README.md, ``--out`` moved into
    ``out_dir``."""
    import shlex
    argvs = []
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("brwmom "):
            argv = shlex.split(line, comments=True)[1:]
            if "--out" in argv:
                at = argv.index("--out") + 1
                argv[at] = os.path.join(out_dir, os.path.basename(argv[at]))
            argvs.append(argv)
    return argvs


def run_routes() -> None:
    """Run every benchmark variant once, then the README examples, the
    verify suites, BRANCHES, help and ERRORS, each through the
    benchmark's ``worker.run_job``; stdout and stderr are discarded.
    Exits with status 1 when a job raised."""
    import io
    from contextlib import redirect_stderr

    from brwmom import cli, rmt
    suites = [["verify", "--suite", "oracle", "--budget", "8"],
              ["verify", "--suite", "mc", "--budget", "200"],
              ["verify", "--suite", "closedform"],
              ["verify", "--suite", "rmt", "--budget", "20"]]
    raised = []
    with tempfile.TemporaryDirectory() as out_dir, \
            redirect_stderr(io.StringIO()):
        for job in ([job for _, job in variants.variant_jobs()]
                    + readme_examples(out_dir) + suites + BRANCHES
                    + [["--help"]] + ERRORS):
            error = worker.run_job(cli, rmt, job)["error"]
            if error is not None:
                raised.append(f"{workloads.job_key(job)}: "
                              + error.strip().splitlines()[-1])
    if raised:
        sys.exit("\n".join(raised))


def statement_lines(path: Path) -> dict:
    """{first line: the lines whose run counts} of each executable statement."""
    source = path.read_text()
    code_lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for *_, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            skipped.add(id(node))
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skipped.add(id(first))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.add(id(node))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in skipped:
            continue
        inner = [c.lineno for c in ast.iter_child_nodes(node)
                 if isinstance(c, (ast.stmt, ast.excepthandler,
                                   ast.match_case))]
        last = min(inner) - 1 if inner else node.end_lineno
        own = set(range(node.lineno, max(last, node.lineno) + 1)) & code_lines
        if own:
            out[node.lineno] = own
    return out


def report(out_dir: Path) -> dict:
    ran: dict = {}
    for part in out_dir.glob("*.json"):
        for path, lines in json.loads(part.read_text()).items():
            ran.setdefault(path, set()).update(lines)
    total, unrun = 0, {}
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(os.path.realpath(path), set())
        source, statements = path.read_text().splitlines(), statement_lines(path)
        missed = [[first, source[first - 1].strip()]
                  for first, own in sorted(statements.items()) if not own & hit]
        total += len(statements)
        if missed:
            unrun[str(path.relative_to(ROOT))] = missed
    return {"executable": total,
            "unrun": sum(map(len, unrun.values())),
            "lines": unrun}


COMMANDS = {
    (): [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
    ("--routes",): [sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(TOOLS)!r}); "
                    "import linecov; linecov.run_routes()"],
}


def main(argv: list) -> int:
    command = COMMANDS.get(tuple(argv))
    if command is None:
        print("usage: python tools/linecov.py [--routes]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        site, out_dir = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out_dir.mkdir()
        (site / "sitecustomize.py").write_text(SITE.format(
            package=os.path.realpath(PACKAGE), out=str(out_dir)))
        path = [str(site), str(SRC), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        # The run's own output goes to stderr: stdout is the JSON record.
        code = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=sys.stderr).returncode
        result = report(out_dir)
    print(json.dumps(result, indent=1))
    return 1 if code or result["unrun"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

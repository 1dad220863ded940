"""Report the executable lines of ``src/brwmom`` that never run.

    python tools/linecov.py
    python tools/linecov.py --routes

The default mode runs ``python -m pytest -q -p no:cacheprovider``, the
whole suite, from the repository root.  A generated
``sitecustomize.py`` comes first on ``PYTHONPATH``, so every Python
process of the run, the subprocesses of the tests included, traces the
lines it runs in ``src/brwmom/*.py`` and writes them to a JSON file of
its own at exit.  ``--routes`` runs, in one traced process, every variant
of the benchmark's workloads (``perfbench/workloads.all_variants``, read
and not changed): ``cli.main`` for a command, ``rmt.unitary_mom_k1`` and
``cli.encode_value`` for an ``rmt`` job.

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


def run_routes() -> None:
    """Run every benchmark variant once, its stdout discarded."""
    import importlib.util
    import io
    from contextlib import redirect_stdout

    from brwmom import cli, rmt
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for job in workloads.all_variants(workload):
            with redirect_stdout(io.StringIO()):
                if isinstance(job, dict):
                    cli.encode_value(
                        rmt.unitary_mom_k1(job["N"], float(job["beta"])), 256)
                else:
                    cli.main(job)


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

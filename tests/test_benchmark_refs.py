"""Every benchmark job's output matches its stored reference.

The benchmark (``perfbench/run.py``) counts a job whose output differs
from ``perfbench/refs/<workload>.json`` as failed.  Running the CLI
variants here, through ``cli.main`` and ``perfbench/compare.py``, makes
an output change fail the test suite first.  The ``rmt`` jobs have no CLI
route and the deep Monte Carlo jobs take seconds each, so both are left
to the benchmark.
"""

import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from brwmom import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SHALLOW_MC_DEPTH = 8


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_jobs(workloads, workload):
    for job in workloads.all_variants(workload):
        if isinstance(job, list) and (
                workload != "montecarlo"
                or int(job[job.index("--n") + 1]) <= SHALLOW_MC_DEPTH):
            yield job


@pytest.mark.parametrize("workload", ["exact-dp", "closed-form",
                                      "montecarlo"])
def test_cli_jobs_match_references(workload):
    workloads, compare = load("workloads"), load("compare")
    refs = json.loads((PERFBENCH / "refs" / f"{workload}.json").read_text())
    failures, count = [], 0
    for job in cli_jobs(workloads, workload):
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                rc = cli.main(job)
        except SystemExit as exc:
            rc = exc.code
        reason = compare.compare(refs[workloads.job_key(job)], rc,
                                 out.getvalue())
        if reason:
            failures.append((workloads.job_key(job), reason))
        count += 1
    assert count > 0
    assert not failures, failures

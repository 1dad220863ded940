"""Every benchmark job's output matches its stored reference.

The benchmark (``perfbench/run.py``) counts a job whose output differs
from ``perfbench/refs/<workload>.json`` as failed.  Running the variants
here, each through the benchmark's own ``worker.run_job`` and
``compare.compare``, makes an output change fail the test suite first.
The deep Monte Carlo jobs (depth above 8) take seconds each, so they are
left to the benchmark.
"""

import json
from pathlib import Path

import pytest

import compare
import worker
import workloads
from brwmom import cli, rmt

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"
SHALLOW_MC_DEPTH = 8


def jobs(workload):
    for job in workloads.all_variants(workload):
        if (workload != "montecarlo"
                or int(job[job.index("--n") + 1]) <= SHALLOW_MC_DEPTH):
            yield job


@pytest.mark.parametrize("workload", ["exact-dp", "closed-form",
                                      "montecarlo"])
def test_cli_jobs_match_references(workload):
    refs = json.loads((REFS / f"{workload}.json").read_text())
    failures, count = [], 0
    for job in jobs(workload):
        record = worker.run_job(cli, rmt, job)
        if record["error"] is not None:
            reason = "raised: " + record["error"].strip().splitlines()[-1]
        else:
            reason = compare.compare(refs[workloads.job_key(job)],
                                     record["rc"], record["stdout"])
        if reason:
            failures.append((workloads.job_key(job), reason))
        count += 1
    assert count > 0
    assert not failures, failures

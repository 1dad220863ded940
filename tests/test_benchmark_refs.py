"""Every benchmark job's output matches its stored reference.

The benchmark (``perfbench/run.py``) counts a job whose output differs
from ``perfbench/refs/<workload>.json`` as failed.  Running the variants
here, each through the benchmark's own ``worker.run_job`` and ``check``,
makes an output change fail the test suite first.
The deep Monte Carlo jobs (depth above 8) take seconds each, so they are
left to the benchmark.
"""

import pytest

import run
import worker
import workloads
from brwmom import cli, rmt

SHALLOW_MC_DEPTH = 8


def jobs(workload):
    for job in workloads.all_variants(workload):
        if (workload != "montecarlo"
                or int(job[job.index("--n") + 1]) <= SHALLOW_MC_DEPTH):
            yield job


@pytest.mark.parametrize("workload", ["exact-dp", "closed-form",
                                      "montecarlo"])
def test_cli_jobs_match_references(workload):
    records = [dict(worker.run_job(cli, rmt, job), job=job)
               for job in jobs(workload)]
    assert records
    assert run.check(records, run.load_refs(workload)) == []

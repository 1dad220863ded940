"""Record the reference output of every job any seed can produce.

    python3 perfbench/record_refs.py [WORKLOAD ...]

Runs each variant once through ``cli.main`` in a warm worker and writes
``refs/<workload>.json`` as ``{job key: {"rc": ..., "stdout": ...}}``.
Outputs do not depend on warm or cold start, so closed-form references
are recorded warm.  Refuses to record a job that fails.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import OUT, REFS, Runner
from workloads import WORKLOADS, all_variants, job_key


def record(workload: str) -> None:
    jobs = all_variants(workload)
    os.makedirs(OUT, exist_ok=True)
    runner = Runner(time.monotonic() + 3600)
    results, wall, _, _ = runner.worker(jobs, False, 0)
    refs = {}
    for job, res in zip(jobs, results):
        if res["error"] is not None or res["rc"] != 0:
            raise SystemExit(f"{job_key(job)} failed: rc={res['rc']} "
                             f"{res['error']}")
        refs[job_key(job)] = {"rc": res["rc"], "stdout": res["stdout"]}
    with open(os.path.join(REFS, f"{workload}.json"), "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(refs)} references in {wall:.1f} s")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)

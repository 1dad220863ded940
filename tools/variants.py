"""Hash the output of every variant job of the benchmark.

    python tools/variants.py

Runs, in this one process, every job any seed of the benchmark's
workloads can produce (``perfbench/workloads.all_variants``), each
through the benchmark's own worker, ``perfbench/worker.run_job``, the
function that ``perfbench/run.py`` times and checks; ``perfbench/`` is
read and not changed.  stderr is discarded.  Prints one JSON record to
stdout: per job, keyed by workload and job, the sha-256 of its exit code
and stdout (for a job that raises, the last line of its traceback in
place of the exit code), and ``total``, the sha-256 over those in order.
Two trees with the same total give byte-identical stdout and the same
exit code on every variant.  A run takes tens of seconds.  Standard
library only.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "perfbench"))
                if path not in sys.path]

import worker  # noqa: E402
import workloads  # noqa: E402


def variant_jobs() -> list:
    """(workload, job) of every variant of every workload."""
    return [(w, job) for w in workloads.WORKLOADS
            for job in workloads.all_variants(w)]


def run_job(job) -> str:
    """The sha-256 of the job's exit code and stdout under
    ``worker.run_job``."""
    from brwmom import cli, rmt
    with redirect_stderr(io.StringIO()):
        record = worker.run_job(cli, rmt, job)
    code = (record["rc"] if record["error"] is None
            else record["error"].strip().splitlines()[-1])
    return hashlib.sha256(f"{code}\n{record['stdout']}".encode()).hexdigest()


def main(jobs=None) -> int:
    """Print the record for ``jobs``, (workload, job) pairs; every
    variant of every workload by default."""
    digests = {f"{w}: {workloads.job_key(job)}": run_job(job)
               for w, job in (variant_jobs() if jobs is None else jobs)}
    total = hashlib.sha256("\n".join(digests.values()).encode())
    print(json.dumps({"jobs": digests, "count": len(digests),
                      "total": total.hexdigest()}, indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:]:
        print("usage: python tools/variants.py", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())

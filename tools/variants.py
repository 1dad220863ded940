"""Hash the output of every variant job of the benchmark.

    python tools/variants.py

Runs, in this one process, every job any seed of the benchmark's
workloads can produce (``perfbench/workloads.all_variants``, read and not
changed): ``cli.main`` for a command line, and for an ``rmt`` job
``rmt.unitary_mom_k1`` with the JSON record of ``cli.encode_value`` that
the benchmark's worker prints.  stderr is discarded.  Prints one JSON
record to stdout: per job, keyed by workload and job, the sha-256 of its
exit code and stdout (a job that raises counts the exception in place of
the exit code), and ``total``, the sha-256 over those in order.  Two
trees with the same total give byte-identical stdout and the same exit
code on every variant.  A run takes tens of seconds.  Standard library
only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def run_job(job) -> str:
    """The sha-256 of the job's exit code and stdout."""
    from brwmom import cli, rmt
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if isinstance(job, dict):
                value = rmt.unitary_mom_k1(job["N"], float(job["beta"]))
                print(json.dumps({"N": job["N"], "beta": job["beta"],
                                  "value": cli.encode_value(value, 256)},
                                 sort_keys=True))
                code = 0
            else:
                code = cli.main(job)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the failure is part of the output
        code = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def main(jobs=None) -> int:
    """Print the record for ``jobs``, (workload, job) pairs; every
    variant of every workload by default."""
    workloads = load_workloads()
    if jobs is None:
        jobs = [(w, job) for w in workloads.WORKLOADS
                for job in workloads.all_variants(w)]
    digests = {f"{w}: {workloads.job_key(job)}": run_job(job)
               for w, job in jobs}
    total = hashlib.sha256("\n".join(digests.values()).encode())
    print(json.dumps({"jobs": digests, "count": len(digests),
                      "total": total.hexdigest()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:]:
        print("usage: python tools/variants.py", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())

"""Run a list of brwmom jobs in one interpreter.

    python3 perfbench/worker.py REQUEST.json RESULT.json

REQUEST holds ``{"jobs": [...], "trace": bool, "spans": path|null,
"job_offset": int, "probe": bool}``.  Each job runs through ``brwmom.cli.main`` (or
``rmt.unitary_mom_k1`` for ``rmt`` jobs) with its stdout captured.  With
``probe`` the machine-speed probe runs before the first job and after
each.  A job
that raises is recorded as failed and the next job runs.  With ``trace``
the layer wrappers of ``tracer.py`` are installed after import, and the
spans are written to ``spans`` at exit.  The caller puts ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

from probe import probe
from tracer import Tracer


def run_job(cli, rmt, job) -> dict:
    out = io.StringIO()
    rc, error = None, None
    t0 = perf_counter()
    try:
        with redirect_stdout(out):
            if isinstance(job, dict):
                value = rmt.unitary_mom_k1(job["N"], float(job["beta"]))
                print(json.dumps({"N": job["N"], "beta": job["beta"],
                                  "value": cli.encode_value(value, 256)},
                                 sort_keys=True))
                rc = 0
            else:
                rc = cli.main(job)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc(limit=3)
    latency = perf_counter() - t0
    return {"latency_s": latency, "rc": rc, "error": error,
            "stdout": out.getvalue()}


def main(request_path: str, result_path: str) -> int:
    with open(request_path) as fh:
        request = json.load(fh)
    from brwmom import cli, rmt
    tracer, run = None, run_job
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
        # One root span per job, under which the layer spans nest.
        run = tracer.wrap("job", run_job)
    probing = request["probe"]
    results = []
    probes = [probe()] if probing else []
    for i, job in enumerate(request["jobs"]):
        if tracer is not None:
            tracer.current_job = request["job_offset"] + i
        results.append(run(cli, rmt, job))
        if probing:
            probes.append(probe())
    report = {"jobs": results, "probes": probes}
    if tracer is not None:
        tracer.finish()
        report["layers"] = tracer.layer_totals()
        report["counters"] = tracer.counters
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    if tracer is not None and request.get("spans"):
        tracer.write_spans(request["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

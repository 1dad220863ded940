"""brwmom benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload exact-dp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the seeded job list in a closed loop: each job
starts when the previous one has ended.  Numeric-library thread pools are
capped at 1.  ``--seconds`` sets how many passes of the job list run (one
pass takes about NOMINAL_PASS_S on a 2-core Xeon sandbox).

* ``exact-dp`` and ``montecarlo`` run every job through ``cli.main`` in
  one warm worker interpreter.
* ``closed-form`` runs every job in a fresh interpreter (``python -m
  brwmom`` untraced), because ``mom_symbolic``'s cache would otherwise
  make every job after the first free, which no CLI user sees.

Times are in reference seconds: each measured time is scaled by the
machine's speed while it ran, as measured by ``probe.py``; the raw times
are kept in the full result.  Every output is compared with its stored reference (``compare.py``); a job
fails if it exits non-zero, raises, or misses its reference.  The last
line of stdout is the JSON result.  With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` the job list runs untraced and then
traced, and the result holds the per-layer metrics of the traced pass and
``trace.overhead_ratio``.  Full results, and spans of traced runs, go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from compare import compare
from probe import REF_PROBE_S, probe
from workloads import WORKLOADS, job_key, job_list

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs")

COLD = {"closed-form"}
NOMINAL_PASS_S = {"exact-dp": 20, "closed-form": 40, "montecarlo": 20}
SETUP_RUNS = 3
# Every child is killed at this point, so a run ends within 180 s.
RUN_LIMIT_S = 170
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

ENV_PROBE = """\
import json, brwmom, mpmath, numpy, scipy
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "mpmath": mpmath.__version__,
                  "mpmath_backend": mpmath.libmp.BACKEND}))
"""

# (metric, unit, layer, field): field 0 is calls, 2 is self time.
LAYER_METRICS = (
    ("rings.two_pow.calls", "count", "rings.two_pow", 0),
    ("rings.two_pow.self_s", "s", "rings.two_pow", 2),
    ("rings.Radical.mul.calls", "count", "rings.Radical.mul", 0),
    ("rings.Radical.mul.self_s", "s", "rings.Radical.mul", 2),
    ("rings.Radical.inverse.calls", "count", "rings.Radical.inverse", 0),
    ("engine.MomentTable.build.calls", "count", "engine.MomentTable.build", 0),
    ("engine.MomentTable.build.self_s", "s", "engine.MomentTable.build", 2),
    ("oracle.mom_bruteforce.self_s", "s", "oracle.mom_bruteforce", 2),
    ("engine.mom_symbolic.self_s", "s", "engine.mom_symbolic", 2),
    ("engine.mom_polynomial.self_s", "s", "engine.mom_polynomial", 2),
    ("engine.evaluate_genpoly.self_s", "s", "engine.evaluate_genpoly", 2),
    ("symbolic.geometric_sum.calls", "count", "symbolic.geometric_sum", 0),
    ("symbolic.geometric_sum.self_s", "s", "symbolic.geometric_sum", 2),
    ("symbolic.GenPoly.mul.calls", "count", "symbolic.GenPoly.mul", 0),
    ("symbolic.GenPoly.mul.self_s", "s", "symbolic.GenPoly.mul", 2),
    ("symbolic.RatFun.arith.calls", "count", "symbolic.RatFun.arith", 0),
    ("symbolic.RatFun.arith.self_s", "s", "symbolic.RatFun.arith", 2),
    ("asymptotics.leading_term.calls", "count", "asymptotics.leading_term", 0),
    ("asymptotics.subcritical_coefficient.self_s", "s",
     "asymptotics.subcritical_coefficient", 2),
    ("asymptotics.critical_coefficient.self_s", "s",
     "asymptotics.critical_coefficient", 2),
    ("asymptotics.supercritical_coefficient.self_s", "s",
     "asymptotics.supercritical_coefficient", 2),
    ("asymptotics.leading_coefficient_numeric.self_s", "s",
     "asymptotics.leading_coefficient_numeric", 2),
    ("closed_forms.leading_coefficient_closed_form.self_s", "s",
     "closed_forms.leading_coefficient_closed_form", 2),
    ("rmt.unitary_mom_k1.calls", "count", "rmt.unitary_mom_k1", 0),
    ("rmt.unitary_mom_k1.self_s", "s", "rmt.unitary_mom_k1", 2),
    ("rmt.unitary_mom_k1_integer.self_s", "s", "rmt.unitary_mom_k1_integer",
     2),
    ("montecarlo.sample.self_s", "s", "montecarlo.sample", 2),
    ("montecarlo.reduce.self_s", "s", "montecarlo.reduce", 2),
    ("montecarlo.estimate_mom.self_s", "s", "montecarlo.estimate_mom", 2),
    ("cli.command.self_s", "s", "cli.command", 2),
    ("cli.encode_value.self_s", "s", "cli.encode_value", 2),
)


class Runner:
    """Starts every child of one benchmark run and reaps it."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.env.update(dict.fromkeys(THREAD_CAPS, "1"))
        # References are at the default float precision.
        self.env.pop("BRWMOM_PRECISION", None)

    def spawn(self, argv):
        """(exit code, stdout, stderr, wall seconds, peak RSS in MiB)."""
        with tempfile.TemporaryFile(dir=OUT) as out, \
                tempfile.TemporaryFile(dir=OUT) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read().decode(), err.read().decode(),
                    wall, usage.ru_maxrss / 1024.0)

    def worker(self, jobs, trace: bool, job_offset: int, spans=None,
               probing=True):
        """Run jobs in one fresh worker interpreter.

        Returns (per-job results, wall seconds, peak RSS MiB, report).
        """
        fd, request = tempfile.mkstemp(dir=OUT, suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump({"jobs": jobs, "trace": trace, "spans": spans,
                       "job_offset": job_offset, "probe": probing}, fh)
        result = request[:-5] + ".result.json"
        try:
            rc, _, err, wall, rss = self.spawn(
                [sys.executable, os.path.join(HERE, "worker.py"), request,
                 result])
            if rc != 0 or not os.path.exists(result):
                failed = {"latency_s": wall, "rc": None, "stdout": "",
                          "error": f"worker exit {rc}: {err[-300:]}"}
                return [dict(failed) for _ in jobs], wall, rss, {}
            with open(result) as fh:
                report = json.load(fh)
            return report["jobs"], wall, rss, report
        finally:
            for path in (request, result):
                if os.path.exists(path):
                    os.unlink(path)


def load_refs(workload: str) -> dict:
    with open(os.path.join(REFS, f"{workload}.json")) as fh:
        return json.load(fh)


def environment(runner: Runner) -> dict:
    """Machine, interpreter and library versions, plus the thread caps."""
    rc, out, err, _, _ = runner.spawn([sys.executable, "-c", ENV_PROBE])
    if rc != 0:
        raise SystemExit(f"error: cannot import brwmom from {SRC}: "
                         f"{err.strip().splitlines()[-1:]}")
    env = json.loads(out)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env.update({"nproc": os.cpu_count(), "cpu_model": cpu,
                "python": platform.python_version(),
                "thread_caps": {v: runner.env[v] for v in THREAD_CAPS}})
    return env


def measure_setup(runner: Runner) -> tuple:
    """(normalized, raw) median wall time of a fresh interpreter running
    `import brwmom`, probing the machine's speed around each start."""
    raw, norm = [], []
    before = probe()
    for _ in range(SETUP_RUNS):
        wall = runner.spawn([sys.executable, "-c", "import brwmom"])[3]
        after = probe()
        raw.append(wall)
        norm.append(wall * REF_PROBE_S / ((before + after) / 2))
        before = after
    return statistics.median(norm), statistics.median(raw)


def run_jobs(runner: Runner, workload: str, jobs, trace: bool,
             spans_path=None):
    """Run the job list once.

    Returns (job records, raw wall s, probe times, peak RSS MiB, summed
    layer totals, summed counters).  Each record's ``latency_s`` is
    normalized with the probes taken around the job; ``raw_s`` is the
    measured latency.
    """
    layers: dict = {}
    counters: dict = {}
    span_files = []

    def merge(report):
        for name, row in report.get("layers", {}).items():
            acc = layers.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in report.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value

    t0 = time.perf_counter()
    if workload not in COLD:
        spans = spans_path + ".part" if trace and spans_path else None
        results, _, rss, report = runner.worker(jobs, trace, 0, spans)
        merge(report)
        span_files.append(spans)
        probes = report.get("probes") or [REF_PROBE_S] * (len(jobs) + 1)
        records = [dict(r, job=job) for r, job in zip(results, jobs)]
    else:
        rss, records, probes = 0.0, [], [probe()]
        for i, job in enumerate(jobs):
            if trace or isinstance(job, dict):
                spans = (f"{spans_path}.part{i}" if trace and spans_path
                         else None)
                results, wall, job_rss, report = runner.worker(
                    [job], trace, i, spans, probing=False)
                merge(report)
                span_files.append(spans)
                record = dict(results[0], latency_s=wall,
                              counters=report.get("counters", {}))
            else:
                rc, out, err, wall, job_rss = runner.spawn(
                    [sys.executable, "-m", "brwmom", *job])
                record = {"latency_s": wall, "rc": rc, "stdout": out,
                          "error": err[-300:] if rc else None}
            probes.append(probe())
            record["job"] = job
            records.append(record)
            rss = max(rss, job_rss)
    wall = time.perf_counter() - t0
    for i, rec in enumerate(records):
        # Probe i ran just before job i: scale by the median of the three
        # probes before the job and the three after it.
        nearby = statistics.median(probes[max(i - 2, 0):i + 4])
        rec["raw_s"] = rec["latency_s"]
        rec["latency_s"] *= REF_PROBE_S / nearby
    if spans_path:
        merge_spans(spans_path, [p for p in span_files if p])
    return records, wall, probes, rss, layers, counters


def merge_spans(path: str, parts) -> None:
    """Concatenate per-process span files into one, turning each parent
    index into an index in the merged file."""
    offset = 0
    with gzip.open(path, "wt", compresslevel=1) as dst:
        for part in parts:
            if not os.path.exists(part):
                continue
            with gzip.open(part, "rt") as src:
                count = 0
                for line in src:
                    name, start, end, parent, job = json.loads(line)
                    if parent >= 0:
                        parent += offset
                    dst.write(json.dumps([name, start, end, parent, job])
                              + "\n")
                    count += 1
            offset += count
            os.unlink(part)


def check(records, refs) -> list:
    """Mark each record failed or not; returns the failure reasons."""
    failures = []
    for rec in records:
        key = job_key(rec["job"])
        if rec["error"] is not None:
            reason = "raised: " + rec["error"].strip().splitlines()[-1]
        elif key not in refs:
            reason = "no reference"
        else:
            reason = compare(refs[key], rec["rc"], rec["stdout"])
        rec["failed"] = reason is not None
        if reason:
            failures.append(f"{key}: {reason}")
    return failures


def tail(latencies):
    """(value, percentile, samples) of the highest percentile that still
    has at least 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(layers, counters, overhead_ratio) -> dict:
    metrics = {}
    for name, unit, layer, field in LAYER_METRICS:
        metrics[name] = {"value": layers.get(layer, [0, 0.0, 0.0])[field],
                         "unit": unit}
    calls = layers.get("asymptotics.leading_term", [0])[0]
    hits = counters.get("asymptotics.numeric_fallback.hits", 0)
    metrics["engine.mom_symbolic.misses"] = {
        "value": counters.get("engine.mom_symbolic.misses", 0),
        "unit": "count"}
    metrics["asymptotics.numeric_fallback.ratio"] = {
        "value": hits / calls if calls else 0.0, "unit": "ratio"}
    metrics["montecarlo.trials"] = {
        "value": counters.get("montecarlo.trials", 0), "unit": "count"}
    metrics["montecarlo.draw_bytes"] = {
        "value": counters.get("montecarlo.draw_bytes", 0), "unit": "bytes"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio,
                                       "unit": "ratio"}
    return metrics


def benchmark(workload: str, seed: int, seconds: int, trace: bool,
              jobs=None, refs=None) -> dict:
    """One benchmark run; returns the full result."""
    start = time.monotonic()
    if not os.path.isdir(os.path.join(SRC, "brwmom")):
        raise SystemExit(f"error: no package source at {SRC}")
    os.makedirs(OUT, exist_ok=True)
    # Jobs, probes and set-up starts share one CPU, so each probe sees the
    # contention the job it scales saw.  Children inherit the affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(start + RUN_LIMIT_S)
    env = environment(runner)
    refs = load_refs(workload) if refs is None else refs
    passes = max(1, seconds // NOMINAL_PASS_S[workload])
    if jobs is None:
        jobs = job_list(workload, seed, passes)
    result = {"workload": workload, "seed": seed, "passes": passes,
              "environment": env, "ref_probe_s": REF_PROBE_S}
    if not trace:
        setup_s, result["raw_setup_s"] = measure_setup(runner)
    records, wall, probes, rss, _, _ = run_jobs(runner, workload, jobs, False)
    wall_s = wall * REF_PROBE_S / statistics.mean(probes)
    result.update(raw_wall_s=wall, probe_s=statistics.mean(probes),
                  probes=probes)
    failures = check(records, refs)
    if trace:
        spans_path = os.path.join(OUT, f"{workload}-seed{seed}.spans.jsonl.gz")
        traced, traced_wall, traced_probes, _, layers, counters = run_jobs(
            runner, workload, jobs, True, spans_path)
        traced_wall_s = (traced_wall * REF_PROBE_S
                         / statistics.mean(traced_probes))
        failures += check(traced, refs)
        for rec in traced:
            rec["traced"] = True
        records += traced
        metrics = layer_metrics(layers, counters, traced_wall_s / wall_s)
        result.update(spans=os.path.relpath(spans_path, ROOT),
                      untraced_wall_s=wall_s, traced_wall_s=traced_wall_s)
    else:
        latencies = [r["latency_s"] for r in records]
        tail_s, tail_pct, samples = tail(latencies)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "job_s.p50": {"value": statistics.median(latencies), "unit": "s"},
            "job_s.tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
        result["tail"] = {"percentile": tail_pct, "samples": samples}
    failed = sum(r["failed"] for r in records)
    result.update(attempted=len(records), failed=failed,
                  error_rate=failed / len(records), failures=failures,
                  metrics=metrics,
                  jobs=[{"key": job_key(r["job"]), "latency_s": r["latency_s"],
                         "raw_s": r["raw_s"], "failed": r["failed"],
                         "traced": r.get("traced", False),
                         "counters": r.get("counters", {})}
                        for r in records])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = benchmark(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=1)
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"# {args.workload} seed={args.seed} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={result['error_rate']}")
    print(f"# probe_s={result['probe_s']} raw_wall_s={result['raw_wall_s']}"
          + (f" raw_setup_s={result['raw_setup_s']}"
             if "raw_setup_s" in result else ""))
    if "tail" in result:
        print(f"# job_s.tail is p{result['tail']['percentile']:.1f} over "
              f"{result['tail']['samples']} jobs")
    for line in result["failures"][:10]:
        print(f"# FAIL {line}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Show that each check of the benchmark can fail.

    python3 perfbench/selftest.py

Prints one PASS/FAIL line per check and exits 0 only if all pass:

1. the comparator rejects a value outside each tolerance and a missing
   key, and accepts an added key;
2. changing one stored reference raises error_rate;
3. a job that raises is counted as failed and the jobs after it still
   run;
4. traced outputs pass the same comparator as untraced ones, on jobs of
   every workload;
5. every k=5 closed-form job records engine.mom_symbolic.misses > 0, so
   each ran cold.
"""

from __future__ import annotations

import copy
import json
import sys

from compare import compare
from run import benchmark, load_refs
from workloads import job_key, job_list

RESULTS = []


def report(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}",
          flush=True)


def check_comparator() -> None:
    refs = load_refs("montecarlo")
    key, ref = next((k, v) for k, v in refs.items() if " --k 2 " in k)
    record = json.loads(ref["stdout"])
    report("comparator accepts the reference itself",
           compare(ref, 0, ref["stdout"]) is None)

    def mutated(edit):
        out = copy.deepcopy(record)
        edit(out["result"])
        return compare(ref, 0, json.dumps(out))

    def scale(field, factor):
        return lambda r: r.__setitem__(field, r[field] * factor)

    report("comparator accepts estimate within 1e-9",
           mutated(scale("estimate", 1 + 1e-11)) is None)
    report("comparator rejects estimate off by 1e-8",
           mutated(scale("estimate", 1 + 1e-8)) is not None)
    report("comparator rejects stderr off by 1e-8",
           mutated(scale("stderr", 1 + 1e-8)) is not None)
    report("comparator accepts an added key",
           mutated(lambda r: r.__setitem__("exact_stderr", 1.0)) is None)
    report("comparator rejects a missing key",
           mutated(lambda r: r.pop("heavy_tail")) is not None)
    report("comparator rejects a flipped flag",
           mutated(lambda r: r.__setitem__("heavy_tail", True)) is not None)
    bits = record["result"]["exact"]["precision_bits"]
    value = record["result"]["exact"]["value"]

    def float_off(rel):
        def edit(r):
            r["exact"]["value"] = repr(float(value) * (1 + rel))
        return edit

    report(f"comparator rejects a {bits}-bit float off by 2^-40",
           mutated(float_off(2.0 ** -40)) is not None)
    report("comparator rejects a changed exit code",
           compare(ref, 1, ref["stdout"]) is not None)


def check_reference_change() -> None:
    jobs = job_list("exact-dp", 1)[:4]
    refs = load_refs("exact-dp")
    clean = benchmark("exact-dp", 1, 1, False, jobs=jobs, refs=refs)
    bad = copy.deepcopy(refs)
    key = job_key(jobs[0])
    record = json.loads(bad[key]["stdout"])
    payload = record["result"]["value"]
    field = "value" if "value" in payload else "approx"
    payload[field] = "3" + payload[field]
    bad[key]["stdout"] = json.dumps(record, sort_keys=True) + "\n"
    broken = benchmark("exact-dp", 1, 1, False, jobs=jobs, refs=bad)
    report("changed reference raises error_rate",
           clean["error_rate"] == 0 and broken["error_rate"] > 0,
           f"{clean['error_rate']} -> {broken['error_rate']}")


def check_raising_job() -> None:
    good = job_list("exact-dp", 1)[:2]
    jobs = [good[0], ["mom", "--k", "0", "--n", "3", "--beta", "1"], good[1]]
    result = benchmark("exact-dp", 1, 1, False, jobs=jobs)
    flags = [j["failed"] for j in result["jobs"]]
    raised = any("raised: ValueError" in f for f in result["failures"])
    report("raising job counted as failed, later jobs still run",
           flags == [False, True, False] and raised, str(flags))


def check_traced_outputs() -> None:
    for workload, count in (("exact-dp", 6), ("montecarlo", 6),
                            ("closed-form", 4)):
        jobs = job_list(workload, 2)[:count]
        result = benchmark(workload, 2, 1, True, jobs=jobs)
        traced = [j for j in result["jobs"] if j["traced"]]
        report(f"{workload}: traced outputs pass the comparator",
               len(traced) == count and result["failed"] == 0,
               f"{result['failed']} of {result['attempted']} failed")


def check_cold_k5() -> None:
    jobs = [j for j in job_list("closed-form", 1)
            if isinstance(j, list) and (j[1:3] == ["--k", "5"]
                                        or j[1:3] == ["--suite", "closedform"])]
    result = benchmark("closed-form", 1, 1, True, jobs=jobs)
    misses = [j["counters"].get("engine.mom_symbolic.misses", 0)
              for j in result["jobs"] if j["traced"]]
    report(f"{len(misses)} k=5 closed-form jobs each miss the "
           "mom_symbolic cache", len(misses) == len(jobs)
           and all(m > 0 for m in misses) and result["failed"] == 0,
           str(misses))


if __name__ == "__main__":
    check_comparator()
    check_reference_change()
    check_raising_job()
    check_traced_outputs()
    check_cold_k5()
    sys.exit(0 if all(RESULTS) else 1)

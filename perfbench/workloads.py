"""Job lists of the three workloads.

A workload is a fixed list of slots.  Each slot holds up to four variant
jobs of about the same cost; the workload seed picks one variant per slot
and the order in which the jobs run.  Every variant has a stored
reference (``refs/<workload>.json``), so any seed is checked in full, and
the cost of a job list hardly depends on the seed.

Job kinds:

* ``cli``: ``brwmom <argv>``; the output is what the command prints.
* ``rmt``: ``rmt.unitary_mom_k1(N, beta)``, which has no CLI route; the
  output is a JSON record holding ``cli.encode_value`` of the result.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-dp", "closed-form", "montecarlo")

# Float-ring beta grid for exact-dp (the float DP costs the same at every
# beta).
_FLOAT_BETAS = ("0.35", "0.45", "0.55", "0.65")


def _mom(k, n, beta_args):
    return ["mom", "--k", str(k), "--n", str(n), *beta_args]


def _ring_args(ring, beta):
    if ring == "rational":
        return ["--beta", beta]
    if ring == "radical":
        return ["--beta-sq-rational", beta]
    bits = ring.split(":")[1]
    return ["--beta", beta, "--ring", "float", "--precision", bits]


def _exact_dp_slots():
    # The five rings of the DP: rationals at beta 1 and 2 (small and large
    # integers), the radical fields at beta^2 = 1/2 and 1/3, and mpf at
    # 256 and 1024 bits.  Shallow jobs have k <= 10 and n 20 or 21.  The
    # median job is one of twelve repeats of `mom --k 10 --n 20 --beta 1`
    # that sit in the middle of the sorted latencies, with 22 cheaper jobs
    # below them and 22 dearer ones above.
    slots = []
    cheaper = (("rational", ("1",), (4, 6, 8)),
               ("rational", ("2",), (4, 4, 6)),
               ("float:256", _FLOAT_BETAS, (4, 6, 8)),
               ("float:1024", _FLOAT_BETAS, (4, 6)))
    for ring, betas, ks in cheaper:
        for k in ks * 2:
            variants = [(n, b) for n in (20, 21) for b in betas[:2]]
            slots.append([_mom(k, n, _ring_args(ring, b))
                          for n, b in variants])
    slots.extend([[_mom(10, 20, _ring_args("rational", "1"))]] * 12)
    for _ in range(2):
        slots.append([_mom(10, n, _ring_args("rational", "2"))
                      for n in (20, 21)])
    for beta_sq, ks in (("1/2", (4, 6, 8)), ("1/3", (4, 6))):
        for k in ks:
            slots.append([_mom(k, n, _ring_args("radical", beta_sq))
                          for n in (20, 21)])
    # Deep: n 56-198.  Seven distinct jobs of 1.2-2.5 s at the seed
    # commit, then seven repeats of a 0.85 s radical-ring job, so the tail
    # (the 11th largest latency) is the middle one of those seven.  Three
    # depths per distinct slot.
    deep = (
        ("rational", ("1",), 8, 100), ("rational", ("1",), 6, 140),
        ("rational", ("2",), 4, 160), ("rational", ("2",), 4, 196),
        ("radical", ("1/3",), 4, 56), ("float:256", _FLOAT_BETAS[:2], 8, 120),
        ("float:1024", _FLOAT_BETAS[1:3], 4, 150),
    )
    for ring, betas, k, n in deep:
        variants = [(n + dn, b) for dn in (0, 1, 2) for b in betas][:4]
        slots.append([_mom(k, dn, _ring_args(ring, b)) for dn, b in variants])
    slots.extend([[_mom(4, 64, _ring_args("radical", "1/2"))]] * 7)
    slots.append([["verify", "--suite", "oracle", "--budget", "16"]])
    return slots


def _closed_form_slots():
    slots = []
    # Heavy: every k=5 job pays mom_symbolic(5) in its fresh process.
    for fmt in ("json", "json", "csv", "csv"):
        slots.append([["poly", "--k", "5", "--beta", str(b), "--format", fmt]
                      for b in (1, 2, 3, 4)])
    for betas in (("0.8", "0.9"), ("1.0", "1.2")):
        slots.append([["asym", "--k", "5", "--beta", b] for b in betas])
    # Pole points beta^2 = 1/m, m < k, of the symbolic coefficients.
    for choices in (("1/2", "1/3"), ("1/3", "1/4"), ("1/2", "1/4")):
        slots.append([["asym", "--k", "5", "--beta-sq-rational", b]
                      for b in choices])
    for ranges in ((("0.1", "1.2"), ("0.15", "1.25")),
                   (("0.2", "1.5"), ("0.25", "1.55"))):
        slots.append([["sweep", "--k", "5", "--beta-min", lo, "--beta-max",
                       hi, "--steps", "12"] for lo, hi in ranges])
    slots.append([["verify", "--suite", "closedform"]])
    # Light: import-dominated, and more than half of all jobs, so they
    # set the median.  No k=5 job is light, so every k=5 job pays
    # mom_symbolic(5).
    for k, fmt in ((2, "json"), (2, "csv"), (3, "json"), (3, "csv"),
                   (2, "csv"), (3, "json"), (3, "csv")):
        slots.append([["poly", "--k", str(k), "--beta", str(b), "--format",
                       fmt] for b in (1, 2, 3, 4)])
    for k, betas in ((3, ("0.3", "0.4")), (3, ("0.45", "0.5")),
                     (4, ("0.25", "0.35")), (4, ("0.2", "0.3")),
                     (2, ("0.5", "0.6")), (3, ("0.8", "1.0")),
                     (2, ("1.0", "1.5"))):
        slots.append([["asym", "--k", str(k), "--beta", b] for b in betas])
    for k, args in ((3, ("--beta-sq-rational", "1/3")),
                    (4, ("--beta", "0.5")),
                    (2, ("--beta-sq-rational", "1/2"))):
        slots.append([["asym", "--k", str(k), *args]])
    slots.append([["verify", "--suite", "rmt"]])
    slots.append([["sweep", "--k", "4", "--beta-min", lo, "--beta-max", hi,
                   "--steps", "12"]
                  for lo, hi in (("0.1", "1.2"), ("0.15", "1.25"))])
    # The N = 2^n correspondence on the random-matrix side.
    for n, betas in ((8, ("0.5", "1.5")), (10, ("0.75", "1.25")),
                     (13, ("0.5", "1.5"))):
        slots.append([{"N": 2 ** n, "beta": b} for b in betas])
    return slots


def _montecarlo_slots():
    # beta = 0.3, k in {1, 2}: k^2 beta^2 <= 0.36 and 2 k beta^2 <= 0.36,
    # so neither heavy-tail rule fires.
    slots = []
    for i in range(30):
        # Shallow: n 4-8, 1500 trials; per-trial overhead bound.  The
        # depth of each slot is fixed, so the set of shallow costs, which
        # sets the median, does not depend on the seed.
        slots.append([["mc", "--k", str(1 + (i + v) % 2), "--n",
                       str(4 + i % 5), "--beta", "0.3",
                       "--trials", "1500", "--seed", str(1000 * i + v)]
                      for v in range(4)])
    # Deep: n 16-18 with tens of trials; work per leaf bound.  The depth
    # of each slot is fixed, so the cost of the deep jobs, which set the
    # tail, does not depend on the seed.  Every job list holds n = 18
    # jobs, which set peak memory.
    for i, (n, trials) in enumerate([(16, 120)] * 4 + [(17, 48)] * 4
                                    + [(18, 24)] * 5):
        slots.append([["mc", "--k", str(1 + (i + v) % 2), "--n", str(n),
                       "--beta", "0.3", "--trials", str(trials),
                       "--seed", str(500 + 10 * i + v)] for v in range(4)])
    return slots


SLOTS = {
    "exact-dp": _exact_dp_slots,
    "closed-form": _closed_form_slots,
    "montecarlo": _montecarlo_slots,
}


def job_key(job) -> str:
    """Reference key of a job."""
    if isinstance(job, dict):
        return f"rmt.unitary_mom_k1 N={job['N']} beta={job['beta']}"
    return "brwmom " + " ".join(job)


def all_variants(workload: str) -> list:
    """Every job any seed can produce, without repeats."""
    seen = {}
    for slot in SLOTS[workload]():
        for job in slot:
            seen.setdefault(job_key(job), job)
    return list(seen.values())


def job_list(workload: str, seed: int, passes: int = 1) -> list:
    """The seeded job list: one variant per slot, shuffled, per pass."""
    rng = random.Random(f"{workload}:{seed}")
    slots = SLOTS[workload]()
    jobs = []
    for _ in range(passes):
        chosen = [rng.choice(slot) for slot in slots]
        rng.shuffle(chosen)
        jobs.extend(chosen)
    return jobs

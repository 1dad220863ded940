"""tools/variants.py on a two-job list."""

import hashlib
import json

import variants

MOM = ["mom", "--k", "2", "--n", "3", "--beta-sq-rational", "1/2"]
RMT = {"N": 4, "beta": "0.5"}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_main_hashes_exit_code_and_stdout(run, capsys):
    code, mom_out, _ = run(*MOM)
    assert code == 0
    assert variants.main([("exact-dp", MOM), ("closed-form", RMT)]) == 0
    record = json.loads(capsys.readouterr().out)
    jobs = record["jobs"]
    assert record["count"] == 2
    assert list(jobs) == ["exact-dp: brwmom " + " ".join(MOM),
                          "closed-form: rmt.unitary_mom_k1 N=4 beta=0.5"]
    assert jobs["exact-dp: brwmom " + " ".join(MOM)] == sha(f"0\n{mom_out}")
    assert record["total"] == sha("\n".join(jobs.values()))


def test_failures_are_part_of_the_hash():
    # A parser error exits 2 with no stdout; an rmt job that raises
    # counts its exception.
    assert variants.run_job(["mom", "--k", "0"]) == sha("2\n")
    assert variants.run_job({"N": -1, "beta": "0.5"}) == sha(
        "ValueError: matrix size must be positive\n")
    assert variants.run_job(MOM) != variants.run_job(MOM[:-1] + ["1/3"])

import gc
import hashlib
import json
import os
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from operator import truediv
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import workloads
from brwmom import Radical, cli, mom_dp
from conftest import spawn

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "src" / "brwmom" / "schema" / "output_record.schema.json"


def record(result: tuple) -> dict:
    code, out, err = result
    assert code == 0, err
    return json.loads(out)


def assert_reruns_byte_identical(*argv: str) -> None:
    """Two interpreters, each with its own hash seed, exit 0 and print the
    same one record of the command."""
    a, b = (spawn("-m", "brwmom", *argv) for _ in range(2))
    for cp in (a, b):
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout)["command"] == argv[0]
    assert a.stdout == b.stdout


def validate_schema(payload: dict) -> None:
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(payload, schema)


class TestSchema:
    def test_malformed_records_fail(self, run):
        good = record(run("asym", "--k", "3", "--beta", "0.3"))
        validate_schema(good)
        coefficient = good["result"]["coefficient"]
        no_precision = {k: v for k, v in coefficient.items()
                        if k != "precision_bits"}
        bad_values = [
            no_precision,
            {"type": "rational", "value": "1.5"},
            {"type": "radical", "root_index": 2, "coeffs": ["1/1", "0.5"]},
        ]
        for value in bad_values:
            bad = json.loads(json.dumps(good))
            bad["result"]["coefficient"] = value
            with pytest.raises(jsonschema.ValidationError):
                validate_schema(bad)
        mom = {"command": "mom", "parameters": {}, "provenance": "engine",
               "result": {"value": {"type": "rational", "value": "1.5"}}}
        with pytest.raises(jsonschema.ValidationError):
            validate_schema(mom)
        mom["result"]["value"]["value"] = "3/2"
        validate_schema(mom)


class TestMomCommand:
    def test_exact_rational(self, run):
        rec = record(run("mom", "--k", "2", "--n", "1", "--beta", "1",
                         "--ring", "rational"))
        assert rec["result"]["value"]["value"] == "10/1"
        assert rec["provenance"] == "engine"
        validate_schema(rec)

    def test_first_moment_beta_two(self, run):
        rec = record(run("mom", "--k", "1", "--n", "3", "--beta", "2"))
        assert rec["result"]["value"]["value"] == "4096/1"

    def test_radical_ring(self, run):
        rec = record(run("mom", "--k", "2", "--n", "2",
                         "--beta-sq-rational", "1/2", "--ring", "radical"))
        v = rec["result"]["value"]
        assert v["type"] == "radical"
        assert v["root_index"] == 2
        assert v["value"] == "8/1"
        assert rec["parameters"]["ring"] == "radical(2)"
        validate_schema(rec)

    def test_float_ring_tagged_with_precision(self, run):
        rec = record(run("mom", "--k", "2", "--n", "4", "--beta", "0.3",
                         "--precision", "128"))
        v = rec["result"]["value"]
        assert v["type"] == "float"
        assert v["precision_bits"] == 128
        validate_schema(rec)

    def test_beta_sign_symmetry_byte_identical(self, run):
        mc = ("mc", "--k", "2", "--n", "6", "--trials", "200", "--seed", "3")
        # A negative beta in any float notation is a value, not a flag.
        cases = [(("mom", "--k", "2", "--n", "5"), "0.7"), (mc, "0.3"),
                 (("mom", "--k", "2", "--n", "1"), "1e-3"), (mc, "3e-1"),
                 (("asym", "--k", "2"), "3e-1")]
        for args, beta in cases:
            a = record(run(*args, "--beta", beta))
            b = record(run(*args, "--beta", "-" + beta))
            # the record echoes beta as given, so compare results only
            assert a["result"] == b["result"], args
        code, _, err = run("sweep", "--k", "2", "--beta-min", "-5e-1",
                           "--beta-max", "5e-1", "--steps", "3")
        assert code == 0, err

    def test_repeat_invocations_byte_identical(self):
        assert_reruns_byte_identical("mom", "--k", "3", "--n", "6", "--beta",
                                     "0.4")

    def test_ring_mismatch_exit_code(self, run):
        code, _, _ = run("mom", "--k", "2", "--n", "1", "--beta", "0.3",
                         "--ring", "rational")
        assert code == 3

    @pytest.mark.parametrize("beta, shown", [
        (("--beta-sq-rational", "3/4"), "3/4"), (("--beta", "0.5"), "0.25")])
    def test_ring_mismatch_error_line(self, beta, shown, run):
        # beta^2 as the flag gave it, never a Python repr.
        assert run("mom", "--k", "3", "--n", "3", *beta, "--ring",
                   "rational") == (3, "", "error: rational ring needs "
                                   f"integer beta^2, got {shown}\n")

    def test_invalid_flags_exit_code(self, run):
        # Each message is the one argparse gave before the flag table
        # replaced it, but for the two trial caps, which came after it.
        asym = ("asym", "--k", "2", "--beta", "1")
        finite = "must be a finite number with a finite square, got"
        precision = ("argument --precision: must be an integer >= 64 bits "
                     "(--precision or $BRWMOM_PRECISION), got")
        exact = ("must be at most 256 in magnitude when integral (an "
                 "integral beta is exact), got '1e100'")
        rational = "must be a rational p/m in 0..65536, got"
        depth = "must be an integer in 0..25 (a deeper trial needs over 1 GiB)"
        seed = "argument --seed: must be an integer in 0..18446744073709551615"
        cases = [
            (("mom", "--k", "2"), None,
             "the following arguments are required: --n"),
            (("mom", "--k", "2", "--n", "x", "--beta", "1"), None,
             "argument --n: must be an integer >= 0, got 'x'"),
            (("mom", "--k", "0", "--n", "1", "--beta", "1"), None,
             "argument --k: must be an integer >= 1, got '0'"),
            (("mom", "--k", "2", "--n", "-1", "--beta", "1"), None,
             "argument --n: must be an integer >= 0, got '-1'"),
            (("mc", "--k", "1", "--n", "2", "--beta", "0.3", "--trials",
              "0"), None, "argument --trials: must be an integer >= 1, "
             "got '0'"),
            (("mom", "--k", "2", "--n", "1", "--beta", "1", "--precision",
              "32"), None, f"{precision} '32'"),
            (asym + ("--precision", "32"), None, f"{precision} '32'"),
            (("verify", "--suite", "oracle", "--budget", "-1"), None,
             "argument --budget: must be an integer >= 1, got '-1'"),
            (("verify", "--suite", "mc", "--budget", "1"), None,
             "--budget of --suite mc is a trial count and must be >= 2, "
             "got 1"),
            # Past 2^24 trials, which keep 256 MiB; no trial runs.
            (("mc", "--k", "1", "--n", "0", "--beta", "0.3", "--trials",
              "16777217"), None, "argument --trials: must be at most "
             "16777216 (16 B of memory per trial), got '16777217'"),
            (("verify", "--suite", "mc", "--budget", "16777217"), None,
             "--budget of --suite mc is a trial count and must be at most "
             "16777216, got 16777217"),
            (asym, {"BRWMOM_PRECISION": "32"}, f"{precision} '32'"),
            (asym, {"BRWMOM_PRECISION": "abc"}, f"{precision} 'abc'"),
            (("asym", "--k", "3", "--beta", "nan"), None,
             f"argument --beta: {finite} 'nan'"),
            (("mom", "--k", "2", "--n", "1", "--beta", "inf"), None,
             f"argument --beta: {finite} 'inf'"),
            (("mom", "--k", "2", "--n", "1", "--beta", "1e400"), None,
             f"argument --beta: {finite} '1e400'"),
            (("mc", "--k", "1", "--n", "2", "--beta=-inf"), None,
             f"argument --beta: {finite} '-inf'"),
            (("mc", "--k", "1", "--n", "2", "--beta", "nan"), None,
             f"argument --beta: {finite} 'nan'"),
            (("mc", "--k", "1", "--n", "30", "--beta", "0.3", "--trials",
              "1"), None, f"argument --n: {depth}, got '30'"),
            (("sweep", "--k", "2", "--beta-min", "nan", "--beta-max", "1",
              "--steps", "3"), None, f"argument --beta-min: {finite} 'nan'"),
            (("sweep", "--k", "2", "--beta-min", "0", "--beta-max", "inf",
              "--steps", "3"), None, f"argument --beta-max: {finite} 'inf'"),
            (("mom", "--k", "2", "--n", "3", "--beta-sq-rational", "1/-3"),
             None, f"argument --beta-sq-rational: {rational} '1/-3'"),
            (("mom", "--k", "2", "--n", "3", "--beta-sq-rational=-1/2"),
             None, f"argument --beta-sq-rational: {rational} '-1/2'"),
            (("asym", "--k", "2", "--beta-sq-rational=-1/2"), None,
             f"argument --beta-sq-rational: {rational} '-1/2'"),
            (("mom", "--k", "2", "--n", "1", "--beta", "5",
              "--beta-sq-rational", "1/2"), None,
             "argument --beta-sq-rational: not allowed with argument --beta"),
            (("asym", "--k", "2", "--beta-sq-rational", "1/2", "--beta",
              "0.1"), None,
             "argument --beta: not allowed with argument --beta-sq-rational"),
            (("sweep", "--k", "2", "--beta-min", "0", "--beta-max", "1",
              "--steps", "1"), None,
             "argument --steps: must be an integer >= 2, got '1'"),
            # beta^2 overflows a double.
            (("mc", "--k", "1", "--n", "2", "--beta", "1e200", "--trials",
              "3", "--force"), None, f"argument --beta: {finite} '1e200'"),
            (("sweep", "--k", "2", "--beta-min", "0", "--beta-max", "1e200",
              "--steps", "2"), None, f"argument --beta-max: {finite} '1e200'"),
            (("mom", "--k", "2", "--n", "1", "--beta", "1e200"), None,
             f"argument --beta: {finite} '1e200'"),
            (("asym", "--k", "2", "--beta", "1e200"), None,
             f"argument --beta: {finite} '1e200'"),
            # An exact beta^2 too large to build.
            (("mom", "--k", "2", "--n", "1", "--beta", "1e100"), None,
             f"argument --beta: {exact}"),
            (("asym", "--k", "2", "--beta", "1e100"), None,
             f"argument --beta: {exact}"),
            (("poly", "--k", "2", "--beta", "100000000"), None,
             "argument --beta: must be an integer in 1..256, got '100000000'"),
            (("mom", "--k", "2", "--n", "1", "--beta-sq-rational",
              "65537"), None, f"argument --beta-sq-rational: {rational} "
             "'65537'"),
            (("mc", "--k", "1", "--n", "26", "--beta", "0.3", "--trials",
              "1"), None, f"argument --n: {depth}, got '26'"),
            # A Philox key word holds 0..2^64 - 1.
            (("mc", "--k", "1", "--n", "3", "--beta", "0.3", "--trials", "5",
              "--seed", "-1"), None, f"{seed}, got '-1'"),
            (("mc", "--k", "1", "--n", "3", "--beta", "0.3", "--trials", "5",
              "--seed", str(2 ** 64)), None,
             f"{seed}, got '18446744073709551616'"),
        ]
        for args, env, message in cases:
            code, _, err = run(*args, env=env)
            assert code == 2, (args, env, err)
            assert err == f"error: {message}\n", (args, env)

    @pytest.mark.parametrize("argv", [
        ["mom", "--k", "1", "--n", "1", "--beta", "-256"],
        ["mom", "--k", "1", "--n", "1", "--beta-sq-rational", "65536"],
        ["poly", "--k", "1", "--beta", "256"],
        ["sweep", "--k", "1", "--beta-min", "0", "--beta-max", "300",
         "--steps", "2"]])
    def test_exact_beta_bound_accepted(self, argv, run):
        # The largest exact beta^2 runs; sweep squares its beta as a
        # float, so the bound does not apply to it.
        assert run(*argv)[0] == 0

    @pytest.mark.parametrize("text, echo, ring", [
        ("1/2", "1/2", "radical(2)"), ("4", "4/1", "rational"),
        ("0", "0/1", "rational"), (" 1/3", "1/3", "radical(3)")])
    def test_beta_sq_rational_accepted(self, text, echo, ring, run):
        params = record(run("mom", "--k", "1", "--n", "1",
                            f"--beta-sq-rational={text}"))["parameters"]
        assert (params["beta_sq"], params["ring"]) == (echo, ring)

    @pytest.mark.parametrize("text", ["1/", "1/0", "1/-3", "-1/2", "1.5",
                                      "1/2/3"])
    def test_beta_sq_rational_rejected(self, text, run):
        code, out, err = run("mom", "--k", "1", "--n", "1",
                             f"--beta-sq-rational={text}")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
    @pytest.mark.parametrize("args, flag", [
        (("mom", "--k", "2", "--n", "1"), "--beta"),
        (("asym", "--k", "2"), "--beta"),
        (("mc", "--k", "1", "--n", "2"), "--beta"),
        (("sweep", "--k", "2", "--beta-max", "1", "--steps", "3"),
         "--beta-min")])
    def test_negative_non_finite_beta_is_a_value(self, args, flag, value,
                                                 run):
        # Read as a flag, "-inf" gets "expected one argument" instead of
        # the validator's message, which "--beta=-inf" gets.
        code, out, err = run(*args, flag, value)
        assert run(*args, f"{flag}={value}") == (code, out, err)
        assert code == 2
        assert "must be a finite number" in err

    def test_radical_coeffs_padded_to_root_index(self):
        # A Radical stores trimmed coefficients; the record keeps m.
        payload = cli.encode_value(Radical(3, (5,)), 256)
        assert payload["coeffs"] == ["5/1", "0/1", "0/1"]
        payload = cli.encode_value(Radical(2, []), 256)
        assert payload["coeffs"] == ["0/1", "0/1"]
        assert payload["value"] == "0/1"

    def test_benchmark_jobs_parse(self):
        # A validator that refuses a benchmark input fails here, not as
        # failed jobs in the benchmark.
        for workload in workloads.WORKLOADS:
            for job in workloads.all_variants(workload):
                if isinstance(job, list):
                    assert cli.parse_args(job).command == job[0]

    def test_mc_depth_cap_is_inclusive(self):
        # Parsed only: a trial at the cap needs about 520 MiB.
        args = cli.parse_args(
            ["mc", "--k", "1", "--n", str(cli.MC_MAX_DEPTH), "--beta", "0.3"])
        assert args.n == cli.MC_MAX_DEPTH

    def test_mc_trials_cap_is_inclusive(self):
        # Parsed only: 2^24 trials keep 256 MiB at 16 B each.
        assert cli.MC_MAX_TRIALS == 2 ** 24
        args = cli.parse_args(["mc", "--k", "1", "--n", "0", "--beta", "0.3",
                               "--trials", str(cli.MC_MAX_TRIALS)])
        assert args.trials == cli.MC_MAX_TRIALS

    def test_verify_mc_budget_cap_is_inclusive(self, monkeypatch, run):
        # The suite is replaced by a recorder, so no trial runs.
        budgets = []
        monkeypatch.setattr(cli, "_verify_mc",
                            lambda trials, precision: budgets.append(trials)
                            or [])
        assert run("verify", "--suite", "mc", "--budget",
                   str(cli.MC_MAX_TRIALS))[0] == 0
        assert budgets == [cli.MC_MAX_TRIALS]

    def test_rational_beyond_int_digit_limit(self, run):
        # 2^16000 has 4817 digits, more than str(int) allows by default
        # on Python >= 3.11
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        rec = record(run("mom", "--k", "1", "--n", "1000", "--beta", "4"))
        num, den = rec["result"]["value"]["value"].split("/")
        assert den == "1"
        assert Fraction(Decimal(num)) == 2 ** 16000
        assert get_limit() == limit

    @example(cli.DECIMAL_LEAF_BITS, 0, "random", 1)
    @example(cli.DECIMAL_LEAF_BITS + 1, 0, "ones", -1)
    @example(300_000, 0, "power", 1)
    @given(st.integers(1, 300_000), st.integers(0, 2 ** 32),
           st.sampled_from(["random", "ones", "power"]),
           st.sampled_from([1, -1]))
    @settings(max_examples=40, deadline=None)
    def test_decimal_printer_equals_decimal(self, bits, seed, shape, sign):
        # Random, all-ones and power-of-two ints, so splits meet zero and
        # full halves; leaves switch at DECIMAL_LEAF_BITS.
        n = {"random": random.Random(seed).getrandbits(bits) | 1 << bits - 1,
             "ones": (1 << bits) - 1, "power": 1 << bits - 1}[shape] * sign
        got = str(cli._decimal(n))
        assert got == str(Decimal(n))
        if abs(n) < 10 ** 4299:
            assert got == str(n)
        # _fraction_str prints with str() up to the bound, _decimal above.
        assert cli._fraction_str(Fraction(n)) == f"{got}/1"
        assert cli._fraction_str(Fraction(sign, abs(n))) == (
            f"{sign}/{got.lstrip('-')}")


MOM = ["mom", "--k", "2", "--n", "3"]
MC = ["mc", "--k", "1", "--n", "2", "--beta", "0.3"]


class TestParser:
    """``cli.parse_args`` reads a command line as argparse would."""

    @pytest.mark.parametrize("argv, env, fields", [
        (["mom", "--k=3", "--n", "2", "--beta", "1"], None, {"k": 3}),
        (MOM + ["--beta", "0.5", "--prec", "128"], None, {"precision": 128}),
        (MOM + ["--beta", "-1e-3"], None, {"beta": -1e-3}),
        (["asym", "--k", "2", "--beta=-0.3"], None, {"beta": -0.3}),
        (MOM + ["--beta", "1", "--k", "4", "--n=5", "--k", "6"], None,
         {"k": 6, "n": 5}),
        (MOM + ["--beta-s", "1/2"], None,
         {"beta": None, "beta_sq_rational": Fraction(1, 2)}),
        (MC + ["--force"], None, {"force": True}),
        (MC, None, {"command": "mc", "k": 1, "n": 2, "beta": 0.3,
                    "trials": 10000, "seed": 0, "force": False,
                    "precision": 256}),
        (MC, "100", {"precision": 100}),
        (MC + ["--precision", "80"], "abc", {"precision": 80}),
        (MOM + ["--beta", "1"], None, {"ring": "auto", "precision": 256,
                                       "beta_sq_rational": None}),
        (["poly", "--k", "2", "--beta", "3"], None,
         {"beta": 3, "format": "json"}),
        (["sweep", "--k", "2", "--beta-min", "-.5", "--beta-max", "1",
          "--steps", "3"], None, {"beta_min": -0.5, "out": None}),
        (["verify", "--suite", "rmt"], None, {"budget": None}),
    ])
    def test_accepted_forms(self, argv, env, fields, monkeypatch):
        if env is None:
            monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
        else:
            monkeypatch.setenv(cli.ENV_PRECISION, env)
        args = vars(cli.parse_args(argv))
        assert {name: args[name] for name in fields} == fields

    @pytest.mark.parametrize("argv, message", [
        (["mom", "--b", "1"],
         "ambiguous option: --b could match --beta, --beta-sq-rational"),
        (MOM + ["--be=1"],
         "ambiguous option: --be=1 could match --beta, --beta-sq-rational"),
        (["sweep", "--k", "2", "--beta", "1"],
         "ambiguous option: --beta could match --beta-min, --beta-max"),
        (MC + ["--force=x"], "argument --force: ignored explicit argument 'x'"),
        (["-hx"], "argument -h/--help: ignored explicit argument 'x'"),
        (["mom", "-h=x"], "argument -h/--help: ignored explicit argument 'x'"),
        (["--foo", *MOM, "--beta", "1"], "unrecognized arguments: --foo"),
        ([], "the following arguments are required: command"),
        (["--"], "the following arguments are required: command"),
        (["--", "mom"], "argument command: invalid choice: '--' (choose "
         "from 'mom', 'poly', 'asym', 'sweep', 'verify', 'mc')"),
        (MOM + ["--beta", "1", "extra", "--", "--k"],
         "unrecognized arguments: extra -- --k"),
        (["mom", "--k"], "argument --k: expected one argument"),
        (["mom", "--k", "-x"], "argument --k: expected one argument"),
        (["mom", "--k", "--", "1"], "argument --k: expected one argument"),
        (MOM, "one of the arguments --beta --beta-sq-rational is required"),
        (MOM + ["--beta", "1", "--ring", "x"], "argument --ring: invalid "
         "choice: 'x' (choose from 'auto', 'rational', 'radical', 'float')"),
    ])
    def test_errors(self, argv, message, run):
        # argparse's messages, recorded from the parser it replaced.
        assert run(*argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"],
                                      ["mom", "-h"], ["mc", "--help"],
                                      ["sweep", "--k", "2", "-h"]])
    def test_help(self, argv, run):
        code, out, err = run(*argv)
        assert code == 0 and err == ""
        listed = [argv[0]] if argv[0] in cli.COMMANDS else list(cli.COMMANDS)
        sections = out.split("\n\n")[1:]
        assert len(sections) == len(listed)
        for command, section in zip(listed, sections):
            head, *lines = section.splitlines()
            assert head == f"{command}: {cli.COMMANDS[command][0]}"
            assert [line.split()[0] for line in lines] == [
                flag for flag, *_ in cli.COMMANDS[command][1]]


def test_fraction_str_under_least_int_digit_limit():
    # Python lets the str(int) limit go down to 640 digits; ints of
    # DECIMAL_LEAF_BITS bits print with str() within it, larger ones
    # through Decimal.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("no int-to-str digit limit before Python 3.11")
    limit = sys.get_int_max_str_digits()
    set_limit(640)
    try:
        for bits in (cli.DECIMAL_LEAF_BITS, 2200, 4096, 10_000):
            n = (1 << bits) - 1
            assert cli._fraction_str(Fraction(1, n)) == f"1/{Decimal(n)}"
    finally:
        set_limit(limit)


class TestSharedParser:
    ARGV = ["mom", "--k", "2", "--n", "4", "--beta", "0.3"]

    def test_precision_env_read_per_call(self, monkeypatch, run):
        def bits():
            return record(run(*self.ARGV))["parameters"]["precision"]

        monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
        assert bits() == 256
        monkeypatch.setenv(cli.ENV_PRECISION, "100")
        assert bits() == 100
        monkeypatch.setenv(cli.ENV_PRECISION, "32")
        code, _, err = run(*self.ARGV)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err == spawn("-m", "brwmom", *self.ARGV,
                            env={cli.ENV_PRECISION: "32"}).stderr
        monkeypatch.delenv(cli.ENV_PRECISION)
        assert bits() == 256

    def test_handler_looked_up_per_call(self, monkeypatch, run):
        # perfbench/tracer.py replaces the cmd_* functions after import.
        assert run(*self.ARGV)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_mom",
                            lambda args: seen.append(args.k) or 7)
        assert run(*self.ARGV)[0] == 7
        assert seen == [2]


# Runs the package as ``python -m brwmom`` does; as the interpreter exits,
# an atexit hook prints how many objects are frozen as the last stderr line.
AS_MAIN = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(),
                              file=sys.stderr))
runpy.run_module("brwmom", run_name="__main__", alter_sys=True)
"""
IMPORT_PATH = "import brwmom; print(brwmom.__file__)"


class TestEntryPoint:
    """A process freezes the heap at exit, so the collections of
    interpreter shutdown skip it; ``cli.main`` leaves the collector
    alone."""

    @pytest.mark.parametrize("argv, code", [
        (["poly", "--k", "2", "--beta", "1"], 0),
        (["mom", "--k", "0", "--n", "1", "--beta", "1"], 2),
        (["mom", "--k", "2", "--n", "1", "--beta", "0.3", "--ring",
          "rational"], 3),
        (["mc", "--k", "3", "--n", "4", "--beta", "0.8", "--trials", "100",
          "--seed", "1"], 5),
    ])
    def test_package_run_freezes_and_keeps_main_output(self, argv, code,
                                                       run):
        cp = spawn("-c", AS_MAIN, *argv)
        *err, last = cp.stderr.splitlines(keepends=True)
        label, count = last.split()
        assert label == "frozen" and int(count) > 0
        assert (cp.returncode, cp.stdout, "".join(err)) == run(*argv)
        assert cp.returncode == code

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("argv", [
        # 0.3 KB fails at run()'s flush, 47 KB inside main's write.
        ["mom", "--k", "3", "--n", "3", "--beta", "0.5"],
        ["mom", "--k", "10", "--n", "400", "--beta", "2"]])
    def test_unwritable_stdout_exits_4_with_one_line(self, argv,
                                                      unbuffered):
        # No traceback and no "Exception ignored" at the interpreter's
        # last flush, buffered or not; the heap is still frozen.
        with open("/dev/full", "w") as full:
            cp = spawn("-c", AS_MAIN, *argv, stdout=full,
                       env={"PYTHONUNBUFFERED": unbuffered})
        *err, last = cp.stderr.splitlines()
        assert cp.returncode == cli.EXIT_UNWRITABLE == 4
        assert err == ["error: cannot write stdout: "
                       "[Errno 28] No space left on device"]
        label, count = last.split()
        assert label == "frozen" and int(count) > 0

    def test_closed_stdout_with_out_file_exits_0(self, tmp_path):
        # Started with stdout closed, the interpreter sets sys.stdout to
        # None; a command that writes only its --out file still succeeds.
        out = tmp_path / "sweep.csv"
        cp = spawn("-c", AS_MAIN, "sweep", "--k", "2", "--beta-min", "0.5",
                   "--beta-max", "1.5", "--steps", "8", "--out", str(out),
                   preexec_fn=lambda: os.close(1))
        assert cp.returncode == 0, cp.stderr
        label, count = cp.stderr.split()
        assert label == "frozen" and int(count) > 0
        assert len(out.read_text().splitlines()) == 9

    @pytest.mark.parametrize("argv", [
        ["mom", "--k", "3", "--n", "3", "--beta", "0.5"],
        ["sweep", "--k", "2", "--beta-min", "0.1", "--beta-max", "0.5",
         "--steps", "3"]])
    def test_write_to_closed_stdout_exits_4(self, argv):
        # Started with stdout closed, a command that prints exits 4 with
        # its one error line, as on a full stdout, and no traceback.
        cp = spawn("-m", "brwmom", *argv, preexec_fn=lambda: os.close(1))
        assert cp.returncode == cli.EXIT_UNWRITABLE == 4
        assert cp.stderr == "error: cannot write stdout: not writable\n"

    @pytest.mark.parametrize("stderr", ["closed", "/dev/full"])
    def test_error_on_unwritable_stderr_keeps_its_code(self, stderr):
        # The error line has nowhere to go; the exit code is still the
        # documented one, not 1 from an escaped AttributeError or OSError.
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "w") as full:
            cp = spawn("-m", "brwmom", "mom", "--k", "0", "--n", "3",
                       "--beta", "0.5",
                       stderr=None if stderr == "closed" else full,
                       preexec_fn=(lambda: os.close(2)) if stderr == "closed"
                       else None)
        assert cp.returncode == 2
        assert cp.stdout == ""

    def test_child_runs_src_without_pythonpath(self, monkeypatch, run):
        # Neither an install nor PYTHONPATH: the child imports brwmom from
        # the src/ this process imported it from.
        monkeypatch.delenv("PYTHONPATH", raising=False)
        argv = ("poly", "--k", "2", "--beta", "1")
        cp = spawn("-m", "brwmom", *argv)
        assert (cp.returncode, cp.stdout) == run(*argv)[:2]
        assert cp.returncode == 0
        path = spawn("-c", IMPORT_PATH).stdout.strip()
        assert Path(path).resolve().is_relative_to(ROOT / "src")

    def test_child_keeps_callers_pythonpath_after_src(self, tmp_path):
        # tools/linecov.py traces the suite's children through the
        # sitecustomize.py it puts on PYTHONPATH; a brwmom there does not
        # shadow this checkout's.
        (tmp_path / "sitecustomize.py").write_text("print('site marker')\n")
        (tmp_path / "brwmom").mkdir()
        (tmp_path / "brwmom" / "__init__.py").touch()
        cp = spawn("-c", IMPORT_PATH, env={"PYTHONPATH": str(tmp_path)})
        marker, path = cp.stdout.splitlines()
        assert marker == "site marker"
        assert Path(path).resolve().is_relative_to(ROOT / "src")

    def test_main_leaves_collector_alone(self, capsys):
        frozen = gc.get_freeze_count()
        assert cli.main(["poly", "--k", "2", "--beta", "1"]) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen
        capsys.readouterr()

    def test_console_script_is_the_entry_point(self):
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert re.search(r'^brwmom = "brwmom\.cli:run"$', pyproject, re.M)


class TestPolyCommand:
    def test_csv_rows(self, run):
        code, out, _ = run("poly", "--k", "2", "--beta", "1", "--format",
                           "csv")
        assert code == 0
        assert out.splitlines() == ["degree,coefficient", "3,3/2", "2,-1/2"]

    def test_first_moment_row(self, run):
        _, out, _ = run("poly", "--k", "1", "--beta", "2", "--format", "csv")
        assert out.splitlines() == ["degree,coefficient", "4,1/1"]

    def test_round_trip_against_mom(self, run):
        rec = record(run("poly", "--k", "3", "--beta", "1"))
        total = sum(Fraction(c) * Fraction(2) ** (5 * d)
                    for d, c in rec["result"]["rows"])
        assert total == mom_dp(3, 5, 1)
        validate_schema(rec)


class TestAsymCommand:
    def test_supercritical_exact(self, run):
        rec = record(run("asym", "--k", "2", "--beta", "1"))
        assert rec["result"]["regime"] == "super-critical"
        assert rec["result"]["coefficient"]["value"] == "3/2"
        assert rec["result"]["exponent"] == {"beta_sq_coeff": 4,
                                             "constant": -1}
        validate_schema(rec)

    def test_exact_supercritical_record_is_pinned(self, run):
        # The record's sha-256, recorded from the Fraction-based Radical
        # arithmetic: each value has one normal form, so it keeps every byte.
        code, out, _ = run("asym", "--k", "8", "--beta-sq-rational", "9/25")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "36baea63453214f3d9be70c53974c9ec"
            "27c5983e1118af976b9566ae4b684ad0")

    def test_critical_snap_from_float_beta(self, run):
        rec = record(run("asym", "--k", "2", "--beta", "0.7071067811865476"))
        assert rec["result"]["regime"] == "critical"
        assert rec["result"]["n_power"] == 1
        assert rec["result"]["coefficient"]["value"].startswith("0.5")

    def test_no_snap_near_lower_order_pole(self, run):
        # beta^2 = 0.2 + 1e-10 sits near the pole 1/5 of order 5, not at
        # order 6's transition 1/6: the regime is decided without a snap,
        # and the coefficient is the float one at the given beta^2, not
        # the Q(2^(1/5)) one at 1/5.
        import mpmath

        from brwmom import ExpPair, mom_symbolic
        beta = 0.4472135956117614
        rec = record(run("asym", "--k", "6", "--beta", repr(beta)))
        assert rec["result"]["regime"] == "super-critical"
        coeff = rec["result"]["coefficient"]
        assert coeff["type"] == "float"
        assert coeff["value"].startswith("41.62200168340447348")
        with mpmath.mp.workprec(512):
            t = mpmath.mpf(2) ** mpmath.mpf(beta * beta)
            want = truediv(
                *mom_symbolic(6).terms[ExpPair(36, -5)].evaluate_parts(t))
            got = mpmath.mpf(coeff["value"])
            assert abs(got - want) <= want * mpmath.mpf(2) ** -240

    @pytest.mark.parametrize("beta, tag", [("1", "critical"),
                                           ("1.5", "super-critical")])
    def test_order_one_regime(self, beta, tag, run):
        rec = record(run("asym", "--k", "1", "--beta", beta))
        assert rec["result"]["regime"] == tag

    def test_subcritical_method(self, run):
        rec = record(run("asym", "--k", "3", "--beta", "0.3"))
        assert rec["result"]["regime"] == "sub-critical"
        assert rec["result"]["method"] == "recursion"

    def test_float_payload_keeps_full_precision(self, run):
        import mpmath
        rec = record(run("asym", "--k", "3", "--beta", "0.5773502691896258"))
        got = rec["result"]["coefficient"]["value"]
        with mpmath.mp.workprec(256):
            want = mpmath.nstr(
                3 / (mpmath.mpf(2) ** (mpmath.mpf(7) / 3) - 4), 60)
        # the serialized string must agree well beyond double precision
        assert got[:55] == want[:55]


class TestSweepCommand:
    def test_csv_to_file(self, tmp_path, run):
        out = tmp_path / "sweep.csv"
        code, _, err = run("sweep", "--k", "2", "--beta-min", "0.1",
                           "--beta-max", "1.5", "--steps", "8", "--out",
                           str(out))
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,regime,coefficient,method"
        assert len(lines) == 9
        for row in lines[1:]:
            beta, regime, coeff, method = row.split(",")
            assert float(coeff) > 0

    def test_order_one_regimes(self, run):
        code, out, _ = run("sweep", "--k", "1", "--beta-min", "0.5",
                           "--beta-max", "1.5", "--steps", "3")
        assert code == 0
        assert out.splitlines() == [
            "beta,regime,coefficient,method",
            "0.5,sub-critical,1.0,exact",
            "1.0,critical,1.0,exact",
            "1.5,super-critical,1.0,exact"]

    def test_unwritable_file_exit_code(self, run):
        code, _, _ = run("sweep", "--k", "2", "--beta-min", "0.1",
                         "--beta-max", "1.0", "--steps", "3", "--out",
                         "/nonexistent/x.csv")
        assert code == 4

    def test_bad_range_exit_code(self, run):
        assert run("sweep", "--k", "2", "--beta-min", "1.0", "--beta-max",
                   "0.5", "--steps", "3")[0] == 2


class TestMcCommand:
    def test_beta_zero_exact(self, run):
        rec = record(run("mc", "--k", "2", "--n", "6", "--beta", "0",
                         "--trials", "200", "--seed", "9"))
        assert rec["result"]["estimate"] == 1.0
        assert rec["result"]["stderr"] == 0.0
        assert rec["result"]["z_score"] == 0.0
        validate_schema(rec)

    def test_heavy_tail_refusal(self, run):
        assert run("mc", "--k", "3", "--n", "4", "--beta", "0.8",
                   "--trials", "100", "--seed", "1")[0] == 5

    def test_force_overrides_refusal(self, run):
        code, out, _ = run("mc", "--k", "3", "--n", "4", "--beta", "0.8",
                           "--trials", "100", "--seed", "1", "--force")
        assert code == 0
        assert json.loads(out)["result"]["heavy_tail"] is True

    def test_non_finite_doubles_are_null(self, run):
        def reject(token):
            raise AssertionError(f"non-JSON token {token}")

        cases = [
            # One trial: stderr 0, so the z-score is infinite.
            (("mc", "--k", "1", "--n", "3", "--beta", "0.3", "--trials",
              "1"), ["z_score"]),
            # Samples up to ~7e174 are finite, and so is their stderr;
            # the exact value ~4e3218 is not a double, nor is the z-score,
            # ~-1.2e3045.
            (("mc", "--k", "10", "--n", "12", "--beta", "3", "--trials",
              "20", "--force"), ["z_score"]),
            # The exact value ~8e310 is not a double, but the z-score,
            # ~-5.9e288, is: it is computed in mpf.
            (("mc", "--k", "8", "--n", "1", "--beta", "4.05", "--trials",
              "20", "--force"), []),
        ]
        for args, nulls in cases:
            code, out, err = run(*args)
            assert code == 0 and err == "", (args, err)
            rec = json.loads(out, parse_constant=reject)
            for field in ("estimate", "stderr", "z_score"):
                value = rec["result"][field]
                assert (value is None) == (field in nulls), (args, field)
            validate_schema(rec)

    def test_emit_refuses_non_json_numbers(self):
        with pytest.raises(ValueError):
            cli.emit("mc", {}, {"estimate": float("nan")}, "montecarlo")

    def test_seeded_reruns_byte_identical(self):
        args = ("mc", "--k", "1", "--n", "5", "--beta", "0.3", "--trials",
                "500", "--seed", "42")
        assert_reruns_byte_identical(*args)


class TestVerifyCommand:
    def test_oracle_suite(self, run):
        code, out, _ = run("verify", "--suite", "oracle", "--budget", "12")
        assert code == 0, out
        rec = json.loads(out)
        assert rec["result"]["pass"] is True
        assert all(c["pass"] for c in rec["result"]["checks"])

    def test_closed_form_suite_and_alias(self, run):
        code, out, _ = run("verify", "--suite", "closedform")
        assert code == 0, out
        # the former alias "appendix" is an invalid choice
        code, out, err = run("verify", "--suite", "appendix")
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_rmt_suite(self, run):
        code, out, _ = run("verify", "--suite", "rmt", "--budget", "2000")
        assert code == 0, out

    def test_rmt_budget_bounds_every_matrix_size(self, run):
        rec = record(run("verify", "--suite", "rmt", "--budget", "5"))
        sizes = [int(re.search(r" N<?=(\d+)", c["name"]).group(1))
                 for c in rec["result"]["checks"]]
        # The telescoping check and the gamma checks at N = 1.
        assert len(sizes) == 5 and max(sizes) == 5, sizes

    def test_small_budget_used_as_given(self, run):
        rec = record(run("verify", "--suite", "rmt", "--budget", "50"))
        assert rec["parameters"]["budget"] == 50
        assert rec["result"]["checks"][0]["name"] == "telescoping N<=50"

    def test_mc_suite(self, run):
        code, out, _ = run("verify", "--suite", "mc", "--budget", "4000")
        assert code == 0, out

    @pytest.mark.parametrize("trials, passes", [(2, [True, False]),
                                                (200, [True, True])])
    def test_mc_suite_reads_mc(self, trials, passes, run):
        # Each check is the mc run at its (k, n, beta) and seed 42; at 2
        # trials the k = 2 estimate lies 4.6 standard errors off.
        code, out, _ = run("verify", "--suite", "mc", "--budget", str(trials))
        checks = json.loads(out)["result"]["checks"]
        assert code == (0 if all(passes) else cli.EXIT_VERIFY_FAILED)
        assert [c["pass"] for c in checks] == passes
        for k, check in zip((1, 2), checks):
            mc = record(run("mc", "--k", str(k), "--n", "6", "--beta", "0.3",
                            "--trials", str(trials), "--seed", "42"))["result"]
            assert check["lhs"] == repr(mc["estimate"])
            assert check["rhs"] == repr(float(mc["exact"]["value"]))
            assert check["pass"] == (abs(mc["z_score"]) <= 3)

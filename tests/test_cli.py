import importlib.util
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brwmom import Radical, cli, mom_dp

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "src" / "brwmom" / "schema" / "output_record.schema.json"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "brwmom", *args]
    return subprocess.run(cmd, capture_output=True, text=True,
                          env=None if env is None else {**os.environ, **env})


def record(cp: subprocess.CompletedProcess) -> dict:
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout)


def validate_schema(payload: dict) -> None:
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(payload, schema)


class TestSchema:
    def test_malformed_records_fail(self):
        jsonschema = pytest.importorskip("jsonschema")
        good = record(run_cli("asym", "--k", "3", "--beta", "0.3"))
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
    def test_exact_rational(self):
        rec = record(run_cli("mom", "--k", "2", "--n", "1", "--beta", "1",
                             "--ring", "rational"))
        assert rec["result"]["value"]["value"] == "10/1"
        assert rec["provenance"] == "engine"
        validate_schema(rec)

    def test_first_moment_beta_two(self):
        rec = record(run_cli("mom", "--k", "1", "--n", "3", "--beta", "2"))
        assert rec["result"]["value"]["value"] == "4096/1"

    def test_radical_ring(self):
        rec = record(run_cli("mom", "--k", "2", "--n", "2",
                             "--beta-sq-rational", "1/2", "--ring", "radical"))
        v = rec["result"]["value"]
        assert v["type"] == "radical"
        assert v["root_index"] == 2
        assert v["value"] == "8/1"
        assert rec["parameters"]["ring"] == "radical(2)"
        validate_schema(rec)

    def test_float_ring_tagged_with_precision(self):
        rec = record(run_cli("mom", "--k", "2", "--n", "4", "--beta", "0.3",
                             "--precision", "128"))
        v = rec["result"]["value"]
        assert v["type"] == "float"
        assert v["precision_bits"] == 128
        validate_schema(rec)

    def test_beta_sign_symmetry_byte_identical(self):
        mc = ("mc", "--k", "2", "--n", "6", "--trials", "200", "--seed", "3")
        # A negative beta in any float notation is a value, not a flag.
        cases = [(("mom", "--k", "2", "--n", "5"), "0.7"), (mc, "0.3"),
                 (("mom", "--k", "2", "--n", "1"), "1e-3"), (mc, "3e-1"),
                 (("asym", "--k", "2"), "3e-1")]
        for args, beta in cases:
            a = record(run_cli(*args, "--beta", beta))
            b = record(run_cli(*args, "--beta", "-" + beta))
            # the record echoes beta as given, so compare results only
            assert a["result"] == b["result"], args
        cp = run_cli("sweep", "--k", "2", "--beta-min", "-5e-1",
                     "--beta-max", "5e-1", "--steps", "3")
        assert cp.returncode == 0, cp.stderr

    def test_repeat_invocations_byte_identical(self):
        a = run_cli("mom", "--k", "3", "--n", "6", "--beta", "0.4")
        b = run_cli("mom", "--k", "3", "--n", "6", "--beta", "0.4")
        assert a.stdout == b.stdout

    def test_ring_mismatch_exit_code(self):
        cp = run_cli("mom", "--k", "2", "--n", "1", "--beta", "0.3",
                     "--ring", "rational")
        assert cp.returncode == 3

    def test_invalid_flags_exit_code(self):
        asym = ("asym", "--k", "2", "--beta", "1")
        cases = [
            (("mom", "--k", "2"), None),
            (("mom", "--k", "2", "--n", "x", "--beta", "1"), None),
            (("mom", "--k", "0", "--n", "1", "--beta", "1"), None),
            (("mom", "--k", "2", "--n", "-1", "--beta", "1"), None),
            (("mc", "--k", "1", "--n", "2", "--beta", "0.3", "--trials",
              "0"), None),
            (("mom", "--k", "2", "--n", "1", "--beta", "1", "--precision",
              "32"), None),
            (asym + ("--precision", "32"), None),
            (("verify", "--suite", "oracle", "--budget", "-1"), None),
            (("verify", "--suite", "mc", "--budget", "1"), None),
            (asym, {"BRWMOM_PRECISION": "32"}),
            (asym, {"BRWMOM_PRECISION": "abc"}),
            (("asym", "--k", "3", "--beta", "nan"), None),
            (("mom", "--k", "2", "--n", "1", "--beta", "inf"), None),
            (("mom", "--k", "2", "--n", "1", "--beta", "1e400"), None),
            (("mc", "--k", "1", "--n", "2", "--beta=-inf"), None),
            (("mc", "--k", "1", "--n", "2", "--beta", "nan"), None),
            (("mc", "--k", "1", "--n", "30", "--beta", "0.3", "--trials",
              "1"), None),
            (("sweep", "--k", "2", "--beta-min", "nan", "--beta-max", "1",
              "--steps", "3"), None),
            (("sweep", "--k", "2", "--beta-min", "0", "--beta-max", "inf",
              "--steps", "3"), None),
            (("mom", "--k", "2", "--n", "3", "--beta-sq-rational", "1/-3"),
             None),
            (("mom", "--k", "2", "--n", "3", "--beta-sq-rational=-1/2"),
             None),
            (("asym", "--k", "2", "--beta-sq-rational=-1/2"), None),
            (("mom", "--k", "2", "--n", "1", "--beta", "5",
              "--beta-sq-rational", "1/2"), None),
            (("asym", "--k", "2", "--beta-sq-rational", "1/2", "--beta",
              "0.1"), None),
            (("sweep", "--k", "2", "--beta-min", "0", "--beta-max", "1",
              "--steps", "1"), None),
            # beta^2 overflows a double.
            (("mc", "--k", "1", "--n", "2", "--beta", "1e200", "--trials",
              "3", "--force"), None),
            (("sweep", "--k", "2", "--beta-min", "0", "--beta-max", "1e200",
              "--steps", "2"), None),
            (("mom", "--k", "2", "--n", "1", "--beta", "1e200"), None),
            (("asym", "--k", "2", "--beta", "1e200"), None),
            # An exact beta^2 too large to build.
            (("mom", "--k", "2", "--n", "1", "--beta", "1e100"), None),
            (("asym", "--k", "2", "--beta", "1e100"), None),
            (("poly", "--k", "2", "--beta", "100000000"), None),
            (("mom", "--k", "2", "--n", "1", "--beta-sq-rational",
              "65537"), None),
            (("mc", "--k", "1", "--n", "26", "--beta", "0.3", "--trials",
              "1"), None),
            # A Philox key word holds 0..2^64 - 1.
            (("mc", "--k", "1", "--n", "3", "--beta", "0.3", "--trials", "5",
              "--seed", "-1"), None),
            (("mc", "--k", "1", "--n", "3", "--beta", "0.3", "--trials", "5",
              "--seed", str(2 ** 64)), None),
        ]
        for args, env in cases:
            cp = run_cli(*args, env=env)
            assert cp.returncode == 2, (args, env, cp.stderr)
            assert cp.stderr.startswith("error: "), (args, env, cp.stderr)
            assert cp.stderr.count("\n") == 1, (args, env, cp.stderr)

    @pytest.mark.parametrize("argv", [
        ["mom", "--k", "1", "--n", "1", "--beta", "-256"],
        ["mom", "--k", "1", "--n", "1", "--beta-sq-rational", "65536"],
        ["poly", "--k", "1", "--beta", "256"],
        ["sweep", "--k", "1", "--beta-min", "0", "--beta-max", "300",
         "--steps", "2"]])
    def test_exact_beta_bound_accepted(self, argv, capsys):
        # The largest exact beta^2 runs; sweep squares its beta as a
        # float, so the bound does not apply to it.
        assert cli.main(argv) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("text, echo, ring", [
        ("1/2", "1/2", "radical(2)"), ("4", "4/1", "rational"),
        ("0", "0/1", "rational"), (" 1/3", "1/3", "radical(3)")])
    def test_beta_sq_rational_accepted(self, text, echo, ring, capsys):
        argv = ["mom", "--k", "1", "--n", "1", f"--beta-sq-rational={text}"]
        assert cli.main(argv) == 0
        params = json.loads(capsys.readouterr().out)["parameters"]
        assert (params["beta_sq"], params["ring"]) == (echo, ring)

    @pytest.mark.parametrize("text", ["1/", "1/0", "1/-3", "-1/2", "1.5",
                                      "1/2/3"])
    def test_beta_sq_rational_rejected(self, text, capsys):
        argv = ["mom", "--k", "1", "--n", "1", f"--beta-sq-rational={text}"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
    @pytest.mark.parametrize("args, flag", [
        (("mom", "--k", "2", "--n", "1"), "--beta"),
        (("asym", "--k", "2"), "--beta"),
        (("mc", "--k", "1", "--n", "2"), "--beta"),
        (("sweep", "--k", "2", "--beta-max", "1", "--steps", "3"),
         "--beta-min")])
    def test_negative_non_finite_beta_is_a_value(self, args, flag, value,
                                                 capsys):
        # Read as a flag, "-inf" gets "expected one argument" instead of
        # the validator's message, which "--beta=-inf" gets.
        errors = []
        for argv in ([*args, flag, value], [*args, f"{flag}={value}"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "must be a finite number" in errors[0]

    def test_radical_coeffs_padded_to_root_index(self):
        # A Radical stores trimmed coefficients; the record keeps m.
        payload = cli.encode_value(Radical.rational(3, 5), 256)
        assert payload["coeffs"] == ["5/1", "0/1", "0/1"]
        payload = cli.encode_value(Radical(2, []), 256)
        assert payload["coeffs"] == ["0/1", "0/1"]
        assert payload["value"] == "0/1"

    def test_benchmark_jobs_parse(self):
        # A validator that refuses a benchmark input fails here, not as
        # failed jobs in the benchmark.
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        parser = cli.build_parser()
        for workload in workloads.WORKLOADS:
            for job in workloads.all_variants(workload):
                if isinstance(job, list):
                    parser.parse_args(job)

    def test_mc_depth_cap_is_inclusive(self):
        # Parsed only: a trial at the cap needs about 520 MiB.
        args = cli.build_parser().parse_args(
            ["mc", "--k", "1", "--n", str(cli.MC_MAX_DEPTH), "--beta", "0.3"])
        assert args.n == cli.MC_MAX_DEPTH

    def test_rational_beyond_int_digit_limit(self, capsys):
        # 2^16000 has 4817 digits, more than str(int) allows by default
        # on Python >= 3.11
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        assert cli.main(["mom", "--k", "1", "--n", "1000", "--beta", "4"]) == 0
        value = json.loads(capsys.readouterr().out)["result"]["value"]["value"]
        num, den = value.split("/")
        assert den == "1"
        assert Fraction(Decimal(num)) == 2 ** 16000
        assert get_limit() == limit

    @example(4096, 0, "random", 1)
    @example(4097, 0, "ones", -1)
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


class TestSharedParser:
    ARGV = ["mom", "--k", "2", "--n", "4", "--beta", "0.3"]

    def test_built_once_per_process(self, monkeypatch, capsys):
        assert cli.main(self.ARGV) == 0

        def refuse():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert cli.main(self.ARGV) == 0
        capsys.readouterr()

    def test_precision_env_read_per_call(self, monkeypatch, capsys):
        def bits():
            assert cli.main(self.ARGV) == 0
            return json.loads(capsys.readouterr().out)["parameters"][
                "precision"]

        monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
        assert bits() == 256
        monkeypatch.setenv(cli.ENV_PRECISION, "100")
        assert bits() == 100
        monkeypatch.setenv(cli.ENV_PRECISION, "32")
        with pytest.raises(SystemExit) as exc:
            cli.main(self.ARGV)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err == run_cli(*self.ARGV, env={cli.ENV_PRECISION: "32"}
                              ).stderr
        monkeypatch.delenv(cli.ENV_PRECISION)
        assert bits() == 256

    def test_handler_looked_up_per_call(self, monkeypatch, capsys):
        # perfbench/tracer.py replaces the cmd_* functions after import.
        assert cli.main(self.ARGV) == 0
        capsys.readouterr()
        seen = []
        monkeypatch.setattr(cli, "cmd_mom",
                            lambda args: seen.append(args.k) or 7)
        assert cli.main(self.ARGV) == 7
        assert seen == [2]


class TestPolyCommand:
    def test_csv_rows(self):
        cp = run_cli("poly", "--k", "2", "--beta", "1", "--format", "csv")
        assert cp.returncode == 0
        assert cp.stdout.splitlines() == ["degree,coefficient", "3,3/2",
                                          "2,-1/2"]

    def test_first_moment_row(self):
        cp = run_cli("poly", "--k", "1", "--beta", "2", "--format", "csv")
        assert cp.stdout.splitlines() == ["degree,coefficient", "4,1/1"]

    def test_round_trip_against_mom(self):
        rec = record(run_cli("poly", "--k", "3", "--beta", "1"))
        total = sum(Fraction(c) * Fraction(2) ** (5 * d)
                    for d, c in rec["result"]["rows"])
        assert total == mom_dp(3, 5, 1)
        validate_schema(rec)


class TestAsymCommand:
    def test_supercritical_exact(self):
        rec = record(run_cli("asym", "--k", "2", "--beta", "1"))
        assert rec["result"]["regime"] == "super-critical"
        assert rec["result"]["coefficient"]["value"] == "3/2"
        assert rec["result"]["exponent"] == {"beta_sq_coeff": 4,
                                             "constant": -1}
        validate_schema(rec)

    def test_critical_snap_from_float_beta(self):
        rec = record(run_cli("asym", "--k", "2", "--beta",
                             "0.7071067811865476"))
        assert rec["result"]["regime"] == "critical"
        assert rec["result"]["n_power"] == 1
        assert rec["result"]["coefficient"]["value"].startswith("0.5")

    def test_no_snap_near_lower_order_pole(self):
        # beta^2 = 0.2 + 1e-10 sits near the pole 1/5 of order 5, not at
        # order 6's transition 1/6: the regime is decided without a snap,
        # and the coefficient is the float one at the given beta^2, not
        # the Q(2^(1/5)) one at 1/5.
        import mpmath

        from brwmom import ExpPair, mom_symbolic
        beta = 0.4472135956117614
        rec = record(run_cli("asym", "--k", "6", "--beta", repr(beta)))
        assert rec["result"]["regime"] == "super-critical"
        coeff = rec["result"]["coefficient"]
        assert coeff["type"] == "float"
        assert coeff["value"].startswith("41.62200168340447348")
        with mpmath.mp.workprec(512):
            t = mpmath.mpf(2) ** mpmath.mpf(beta * beta)
            want = mom_symbolic(6).terms[ExpPair(36, -5)].evaluate(t)
            got = mpmath.mpf(coeff["value"])
            assert abs(got - want) <= want * mpmath.mpf(2) ** -240

    def test_subcritical_method(self):
        rec = record(run_cli("asym", "--k", "3", "--beta", "0.3"))
        assert rec["result"]["regime"] == "sub-critical"
        assert rec["result"]["method"] == "recursion"

    def test_float_payload_keeps_full_precision(self):
        import mpmath
        rec = record(run_cli("asym", "--k", "3", "--beta",
                             "0.5773502691896258"))
        got = rec["result"]["coefficient"]["value"]
        with mpmath.mp.workprec(256):
            want = mpmath.nstr(
                3 / (mpmath.mpf(2) ** (mpmath.mpf(7) / 3) - 4), 60)
        # the serialized string must agree well beyond double precision
        assert got[:55] == want[:55]


class TestSweepCommand:
    def test_csv_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cp = run_cli("sweep", "--k", "2", "--beta-min", "0.1", "--beta-max",
                     "1.5", "--steps", "8", "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,regime,coefficient,method"
        assert len(lines) == 9
        for row in lines[1:]:
            beta, regime, coeff, method = row.split(",")
            assert float(coeff) > 0

    def test_unwritable_file_exit_code(self):
        cp = run_cli("sweep", "--k", "2", "--beta-min", "0.1", "--beta-max",
                     "1.0", "--steps", "3", "--out", "/nonexistent/x.csv")
        assert cp.returncode == 4

    def test_bad_range_exit_code(self):
        cp = run_cli("sweep", "--k", "2", "--beta-min", "1.0", "--beta-max",
                     "0.5", "--steps", "3")
        assert cp.returncode == 2


class TestMcCommand:
    def test_beta_zero_exact(self):
        rec = record(run_cli("mc", "--k", "2", "--n", "6", "--beta", "0",
                             "--trials", "200", "--seed", "9"))
        assert rec["result"]["estimate"] == 1.0
        assert rec["result"]["stderr"] == 0.0
        assert rec["result"]["z_score"] == 0.0
        validate_schema(rec)

    def test_heavy_tail_refusal(self):
        cp = run_cli("mc", "--k", "3", "--n", "4", "--beta", "0.8",
                     "--trials", "100", "--seed", "1")
        assert cp.returncode == 5

    def test_force_overrides_refusal(self):
        cp = run_cli("mc", "--k", "3", "--n", "4", "--beta", "0.8",
                     "--trials", "100", "--seed", "1", "--force")
        assert cp.returncode == 0
        assert json.loads(cp.stdout)["result"]["heavy_tail"] is True

    def test_non_finite_doubles_are_null(self):
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
            cp = run_cli(*args)
            assert cp.returncode == 0 and cp.stderr == "", (args, cp.stderr)
            rec = json.loads(cp.stdout, parse_constant=reject)
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
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestVerifyCommand:
    def test_oracle_suite(self):
        cp = run_cli("verify", "--suite", "oracle", "--budget", "12")
        assert cp.returncode == 0, cp.stdout
        rec = json.loads(cp.stdout)
        assert rec["result"]["pass"] is True
        assert all(c["pass"] for c in rec["result"]["checks"])

    def test_closed_form_suite_and_alias(self):
        cp = run_cli("verify", "--suite", "closedform")
        assert cp.returncode == 0, cp.stdout
        # the former alias "appendix" is an invalid choice
        cp2 = run_cli("verify", "--suite", "appendix")
        assert cp2.returncode == 2
        assert cp2.stdout == ""
        assert cp2.stderr.startswith("error:")
        assert cp2.stderr.count("\n") == 1

    def test_rmt_suite(self):
        cp = run_cli("verify", "--suite", "rmt", "--budget", "2000")
        assert cp.returncode == 0, cp.stdout

    def test_small_budget_used_as_given(self):
        rec = record(run_cli("verify", "--suite", "rmt", "--budget", "50"))
        assert rec["parameters"]["budget"] == 50
        assert rec["result"]["checks"][0]["name"] == "telescoping N<=50"

    def test_mc_suite(self):
        cp = run_cli("verify", "--suite", "mc", "--budget", "4000")
        assert cp.returncode == 0, cp.stdout

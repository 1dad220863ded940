"""Command-line interface.

Subcommands expose every computation with machine-readable output: JSON
records on stdout by default, CSV where tabular.  Exact rationals are
serialized as "numerator/denominator" strings and never as floats;
floating-point payloads carry their precision in bits.

Exit codes: 0 success, 1 failed verification, 2 invalid flags (one
``error:`` line on stderr), 3 ring/beta mismatch, 4 unwritable output
file, 5 heavy-tail refusal.  Each flag value is checked by one
``_checked`` argparse type, and ``emit`` prints every JSON record.

Each handler imports the modules it calls in its own body, so a fresh
process loads only its route's: mpmath for float and radical output,
``asymptotics``, ``closed_forms``, ``oracle`` and ``rmt`` for their
commands and suites, and numpy and scipy (through ``montecarlo``) for
``mc`` and ``verify --suite mc`` alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import cache

from . import engine
from .rings import (DEFAULT_PRECISION, MIN_PRECISION, Radical,
                    RingMismatchError, resolve_context, to_mpf)

ENV_PRECISION = "BRWMOM_PRECISION"

EXIT_VERIFY_FAILED = 1
EXIT_RING_MISMATCH = 3
EXIT_UNWRITABLE = 4
EXIT_HEAVY_TAIL = 5

# Deepest tree ``mc`` simulates.  One trial's peak memory is ~1.07
# doubles per edge and doubles per level: 34 MiB at n = 21 (tracemalloc),
# so ~545 MiB at 25 and over 1 GiB at 26.
MC_MAX_DEPTH = 25

# Largest |beta| of an exact beta^2.  The exact rings build
# 2^(p*beta^2 + q): at beta = 256 a fresh command takes 0.2-0.4 s at
# k = 2 but ~38 s for asym or poly at k = 4, where each doubling of beta
# costs ~8-14 times more; printing is sub-quadratic.  beta = 1e100 runs
# without end.  Bounding the work (k^2 beta^2) instead is ROADMAP item 10.
MAX_EXACT_BETA = 2 ** 8

# How close k*beta^2 must be to 1 before a float beta is treated as
# exactly critical for order k.
CRITICAL_SNAP_TOL = 1e-9


def _checked(convert, ok, what: str):
    """argparse type: ``convert(text)`` when ``ok`` holds for it, else one
    ``must be <what>`` error, also when ``convert`` raises."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (TypeError, ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


def _int_in(low: int, high: float = math.inf, hint: str = ""):
    """argparse type: an integer in [low, high]."""
    bound = f"in {low}..{high}" if high < math.inf else f">= {low}"
    return _checked(int, lambda v: low <= v <= high,
                    f"an integer {bound}{hint}")


_float_beta = _checked(float, lambda v: math.isfinite(v * v),
                       "a finite number with a finite square")
_beta = _checked(_float_beta,
                 lambda v: not v.is_integer() or abs(v) <= MAX_EXACT_BETA,
                 f"at most {MAX_EXACT_BETA} in magnitude when integral "
                 "(an integral beta is exact)")
_beta_sq_rational = _checked(lambda t: Fraction(*map(int, t.split("/"))),
                             lambda v: 0 <= v <= MAX_EXACT_BETA ** 2,
                             f"a rational p/m in 0..{MAX_EXACT_BETA ** 2}")


# Ints of at most this many bits convert with Decimal(n) directly.
DECIMAL_LEAF_BITS = 4096


def _decimal(n: int) -> Decimal:
    """Decimal(n) in sub-quadratic time, where Decimal(n) itself grows x4
    per doubling of the bits: n = hi 2^h + lo, split down to leaves of at
    most DECIMAL_LEAF_BITS bits, each 2^h formed once.  Exact: Inexact is
    trapped.  (CPython 3.12's str(int) splits in the same way.)"""
    if n.bit_length() <= DECIMAL_LEAF_BITS:
        return Decimal(n)
    powers = {}

    def split(m, bits):
        if bits <= DECIMAL_LEAF_BITS:
            return Decimal(m)
        h = bits >> 1
        if h not in powers:
            powers[h] = Decimal(2) ** h
        return (split(m >> h, bits - h) * powers[h]
                + split(m & ((1 << h) - 1), h))

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True
        value = split(abs(n), n.bit_length())
        return -value if n < 0 else value


def _fraction_str(f: Fraction) -> str:
    # Decimal formats integers of any size; str(int) refuses more than
    # sys.get_int_max_str_digits() digits on Python >= 3.11.
    return f"{_decimal(f.numerator)}/{_decimal(f.denominator)}"


def _float_str(x, precision: int) -> str:
    # Conversion must happen at the payload's precision: mpf() rounds to
    # the ambient context.
    import mpmath
    digits = max(int(precision * 0.30103), 17)
    with mpmath.mp.workprec(precision):
        return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=True)


def encode_value(value, precision: int) -> dict:
    """JSON encoding of a ring value, exact forms kept exact."""
    if isinstance(value, (int, Fraction)):
        return {"type": "rational", "value": _fraction_str(Fraction(value))}
    if isinstance(value, Radical):
        payload = {
            "type": "radical",
            "root_index": value.m,
            "coeffs": [_fraction_str(c) for c in value.coeffs
                       + (Fraction(0),) * (value.m - len(value.coeffs))],
        }
        if value.is_rational():
            payload["value"] = _fraction_str(value.to_fraction())
        else:
            payload["approx"] = _float_str(value.to_mpf(precision), precision)
        return payload
    return {"type": "float", "value": _float_str(value, precision),
            "precision_bits": precision}


def emit(command: str, parameters: dict, result: dict,
         provenance: str) -> None:
    """Print one JSON output record."""
    record = {"command": command, "parameters": parameters,
              "result": result, "provenance": provenance}
    # allow_nan=False: a NaN or infinity raises instead of printing a
    # token that is not JSON.
    sys.stdout.write(json.dumps(record, sort_keys=True, allow_nan=False)
                     + "\n")


def _finite_or_null(x: float):
    """A double for a JSON record: itself when finite, else None (null)."""
    return x if math.isfinite(x) else None


def parse_beta_args(args) -> tuple:
    """(beta_sq, echo) from --beta or --beta-sq-rational.

    An integral --beta keeps beta^2 exact; --beta-sq-rational p/m yields
    an exact Fraction (activating exact rings); otherwise beta^2 is the
    float square, so the two signs of beta agree identically.
    """
    bs = getattr(args, "beta_sq_rational", None)
    if bs is not None:
        return bs, {"beta_sq": _fraction_str(bs)}
    beta = args.beta
    if beta.is_integer():
        b = int(beta)
        return b * b, {"beta": b}
    return beta * beta, {"beta": beta}


def snap_to_critical(beta_sq, k: int):
    """Fraction(1, k) for a float beta^2 within snapping distance of
    order k's transition 1/k, where the snap decides the regime, else
    beta_sq."""
    if (not isinstance(beta_sq, (int, Fraction))
            and abs(k * beta_sq - 1.0) < CRITICAL_SNAP_TOL):
        return Fraction(1, k)
    return beta_sq


def cmd_mom(args) -> int:
    beta_sq, echo = parse_beta_args(args)
    ctx = resolve_context(beta_sq, args.ring, args.precision)
    value = engine.MomentTable.build(args.k, args.n, ctx).value(args.k, args.n)
    params = {"k": args.k, "n": args.n, "ring": ctx.tag,
              "precision": args.precision, **echo}
    emit("mom", params, {"value": encode_value(value, args.precision)},
         "engine")
    return 0


def cmd_poly(args) -> int:
    poly = engine.mom_polynomial(args.k, args.beta)
    rows = [(d, _fraction_str(c)) for d, c in poly.rows()]
    if args.format == "csv":
        sys.stdout.write("degree,coefficient\n")
        for d, c in rows:
            sys.stdout.write(f"{d},{c}\n")
        return 0
    params = {"k": args.k, "beta": args.beta}
    result = {"degree": poly.degree, "rows": [[d, c] for d, c in rows]}
    emit("poly", params, result, "engine")
    return 0


def cmd_asym(args) -> int:
    from . import asymptotics
    beta_sq, echo = parse_beta_args(args)
    beta_sq = snap_to_critical(beta_sq, args.k)
    term = asymptotics.leading_term(args.k, beta_sq,
                                    precision=args.precision)
    params = {"k": args.k, "precision": args.precision, **echo}
    result = {
        "regime": term.regime.tag,
        "exponent": {"beta_sq_coeff": term.regime.growth.p,
                     "constant": term.regime.growth.q},
        "n_power": term.regime.n_power,
        "coefficient": encode_value(term.coefficient, args.precision),
        "method": term.method,
    }
    emit("asym", params, result, "engine")
    return 0


def cmd_sweep(args) -> int:
    if not args.beta_min < args.beta_max:
        print("error: need beta-min < beta-max", file=sys.stderr)
        return 2
    import mpmath

    from . import asymptotics
    lines = ["beta,regime,coefficient,method"]
    step = (args.beta_max - args.beta_min) / (args.steps - 1)
    for i in range(args.steps):
        beta = args.beta_min + i * step
        beta_sq = snap_to_critical(beta * beta, args.k)
        term = asymptotics.leading_term(args.k, beta_sq,
                                        precision=args.precision)
        coeff = to_mpf(term.coefficient, args.precision)
        lines.append(f"{beta!r},{term.regime.tag},{mpmath.nstr(coeff, 17)},"
                     f"{term.method}")
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
    else:
        sys.stdout.write(text)
    return 0


def cmd_mc(args) -> int:
    beta_sq, _ = parse_beta_args(args)
    if args.k * beta_sq > 1 and not args.force:
        print("error: k*beta^2 > 1; the estimator is heavy-tailed "
              "(pass --force to run anyway)", file=sys.stderr)
        return EXIT_HEAVY_TAIL
    import mpmath

    from . import montecarlo
    # Z depends on beta only through beta^2 in law, but a trial's draws
    # are scaled by 2*beta: simulate one sign so that both agree.
    config = montecarlo.SimConfig(n=args.n, beta=abs(args.beta),
                                  trials=args.trials, seed=args.seed)
    est = montecarlo.estimate_mom(config, args.k)
    exact = engine.mom_dp(args.k, args.n, beta_sq, precision=args.precision)
    # In mpf at a double's 53 bits: each step rounds as double arithmetic
    # would, so a z-score within the double range is that double, but an
    # exact value beyond the range does not overflow to inf.
    with mpmath.workprec(53):
        exact_53 = +to_mpf(exact, args.precision)
        if est.stderr == 0:
            z = 0.0 if est.mean == exact_53 else math.inf
        else:
            z = float((est.mean - exact_53) / est.stderr)
    params = {"k": args.k, "n": args.n, "beta": args.beta,
              "trials": args.trials, "seed": args.seed,
              "precision": args.precision}
    result = {
        "estimate": _finite_or_null(est.mean),
        "stderr": _finite_or_null(est.stderr),
        "exact": encode_value(exact, args.precision),
        "z_score": _finite_or_null(z),
        "heavy_tail": est.heavy_tail,
    }
    emit("mc", params, result, "montecarlo")
    return 0


def _check(name: str, lhs, rhs, tol) -> dict:
    lhs_f, rhs_f = float(lhs), float(rhs)
    if tol == 0:
        ok = lhs == rhs
    else:
        scale = max(abs(rhs_f), 1e-300)
        ok = abs(lhs_f - rhs_f) / scale <= tol
    return {"name": name, "lhs": repr(lhs_f), "rhs": repr(rhs_f),
            "tolerance": tol, "pass": bool(ok)}


def _verify_oracle(budget: int, precision: int) -> list:
    from . import oracle
    budget = budget or oracle.DEFAULT_ENUMERATION_BUDGET
    checks = []
    for k in (1, 2, 3):
        for n in range(0, 5):
            if k * n > budget:
                continue
            for beta in (1, 2):
                lhs = engine.mom_dp(k, n, beta * beta)
                rhs = oracle.mom_bruteforce(k, n, beta * beta, budget=budget)
                checks.append(_check(f"dp=bruteforce k={k} n={n} beta={beta}",
                                     lhs, rhs, 0))
            lhs = engine.mom_dp(k, n, 0.3 ** 2, precision=precision)
            rhs = oracle.mom_bruteforce(k, n, 0.3 ** 2, budget=budget,
                                        precision=precision)
            checks.append(_check(f"dp~bruteforce k={k} n={n} beta=0.3",
                                 lhs, rhs, 1e-10))
    return checks


def _verify_mc(trials: int, precision: int) -> list:
    from . import montecarlo
    checks = []
    for k, n, beta in ((1, 6, 0.3), (2, 6, 0.3)):
        config = montecarlo.SimConfig(n=n, beta=beta, trials=trials, seed=42)
        est = montecarlo.estimate_mom(config, k)
        exact = float(to_mpf(engine.mom_dp(k, n, beta * beta,
                                           precision=precision), precision))
        z = abs(est.mean - exact) / est.stderr
        checks.append({"name": f"mc z-score k={k} n={n} beta={beta}",
                       "lhs": repr(est.mean), "rhs": repr(exact),
                       "tolerance": "3 sigma", "pass": bool(z <= 3.0)})
    return checks


def _verify_closed_forms(precision: int) -> list:
    # No grid point has k*beta^2 = 1; the other regimes have forms to k = 5.
    from . import asymptotics, closed_forms
    checks = []
    for k in (2, 3, 4, 5):
        for beta in (0.25, 0.45, 0.8, 1.0):
            term = asymptotics.leading_term(k, beta * beta, precision)
            ref = closed_forms.leading_coefficient_closed_form(
                k, beta * beta, term.regime.tag, precision)
            checks.append(_check(
                f"closed form k={k} beta={beta} {term.regime.tag}",
                to_mpf(term.coefficient, precision), ref, 1e-12))
    sigma3 = asymptotics.critical_coefficient(3, precision)
    ref3 = closed_forms.leading_coefficient_closed_form(
        3, None, closed_forms.CRITICAL, precision)
    checks.append(_check("critical coefficient k=3", sigma3, ref3, 1e-12))
    return checks


def _verify_rmt(n_max: int, precision: int) -> list:
    from . import rmt
    checks = []
    ok = all(rmt.unitary_mom_k1_integer(N, 1) == N + 1
             for N in range(1, n_max + 1))
    checks.append({"name": f"telescoping N<={n_max}", "lhs": "N+1",
                   "rhs": "product", "tolerance": 0, "pass": bool(ok)})
    for beta in (1, 2, 3, 4):
        for N in (1, 10, 50):
            lhs = rmt.unitary_mom_k1(N, beta, precision)
            rhs = to_mpf(rmt.unitary_mom_k1_integer(N, beta), precision)
            checks.append(_check(f"gamma=integer N={N} beta={beta}",
                                 lhs, rhs, 1e-12))
    return checks


def cmd_verify(args) -> int:
    if args.suite == "mc" and args.budget is not None and args.budget < 2:
        # One trial has no standard error to measure a z-score against.
        print("error: --budget of --suite mc is a trial count and must be "
              f">= 2, got {args.budget}", file=sys.stderr)
        return 2
    budget = args.budget or 0
    suites = {
        "oracle": lambda: _verify_oracle(budget, args.precision),
        "mc": lambda: _verify_mc(budget or 20000, args.precision),
        "closedform": lambda: _verify_closed_forms(args.precision),
        "rmt": lambda: _verify_rmt(budget or 10000, args.precision),
    }
    checks = suites[args.suite]()
    ok = all(c["pass"] for c in checks)
    params = {"suite": args.suite, "budget": budget,
              "precision": args.precision}
    emit("verify", params, {"checks": checks, "pass": ok}, "engine")
    return 0 if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as one ``error:`` line and exit code 2; reads
    ``-1e-3``, ``-1.``, ``-inf`` and ``-nan`` as numbers, which argparse
    takes for flags, so the value's validator reports them.  Built once
    per process, it reads $BRWMOM_PRECISION on each ``parse_args``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)",
                                                   re.I)
        self.precision_flags = []

    def parse_args(self, args=None, namespace=None):
        default = os.environ.get(ENV_PRECISION, str(DEFAULT_PRECISION))
        for flag in self.precision_flags:
            flag.default = default
        return super().parse_args(args, namespace)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    positive, depth = _int_in(1), _int_in(0)
    parser = _Parser(
        prog="brwmom",
        description="Moments of the branching random walk partition "
                    "function: exact, symbolic, and stochastic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_precision(p):
        # The default, a string set by ``_Parser.parse_args``, goes
        # through ``type`` too, so a bad $BRWMOM_PRECISION is rejected
        # like a bad flag.
        parser.precision_flags.append(p.add_argument(
            "--precision",
            type=_int_in(MIN_PRECISION, hint=f" bits (--precision or "
                         f"${ENV_PRECISION})"),
            help=f"float precision in bits, at least {MIN_PRECISION} "
                 f"(default {DEFAULT_PRECISION}, or ${ENV_PRECISION})"))

    def add_beta(p):
        given = p.add_mutually_exclusive_group(required=True)
        given.add_argument("--beta", type=_beta)
        given.add_argument("--beta-sq-rational", type=_beta_sq_rational,
                           metavar="P/M",
                           help="exact beta^2 as a rational, e.g. 1/2")

    p = sub.add_parser("mom", help="moment value at one (k, n, beta)")
    p.add_argument("--k", type=positive, required=True)
    p.add_argument("--n", type=depth, required=True)
    add_beta(p)
    p.add_argument("--ring", choices=["auto", "rational", "radical", "float"],
                   default="auto")
    add_precision(p)

    p = sub.add_parser("poly", help="exact polynomial in 2^n for integer "
                                    "k, beta")
    p.add_argument("--k", type=positive, required=True)
    p.add_argument("--beta", type=_int_in(1, MAX_EXACT_BETA), required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("asym", help="growth regime and leading coefficient")
    p.add_argument("--k", type=positive, required=True)
    add_beta(p)
    add_precision(p)

    p = sub.add_parser("sweep", help="leading coefficient curve over beta")
    p.add_argument("--k", type=positive, required=True)
    p.add_argument("--beta-min", type=_float_beta, required=True)
    p.add_argument("--beta-max", type=_float_beta, required=True)
    p.add_argument("--steps", type=_int_in(2), required=True)
    p.add_argument("--out", default=None)
    add_precision(p)

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("--suite", required=True,
                   choices=["oracle", "mc", "closedform", "rmt"])
    p.add_argument("--budget", type=positive, default=None)
    add_precision(p)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate vs engine")
    p.add_argument("--k", type=positive, required=True)
    p.add_argument("--n", type=_int_in(0, MC_MAX_DEPTH, " (a deeper trial "
                                       "needs over 1 GiB)"), required=True)
    p.add_argument("--beta", type=_beta, required=True)
    p.add_argument("--trials", type=positive, default=10000)
    p.add_argument("--seed", type=_int_in(0, 2 ** 64 - 1), default=0)
    p.add_argument("--force", action="store_true",
                   help="run even in the heavy-tailed regime k*beta^2 > 1")
    add_precision(p)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        # Looked up per call, so a cmd_* replaced after import is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except RingMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RING_MISMATCH


def run() -> int:
    """Process entry point of ``python -m brwmom`` and the ``brwmom`` script.

    Runs ``main()`` and then freezes the heap, also when ``main`` raises,
    so the full collections of interpreter shutdown skip the objects the
    imports left (11-18 ms of a fresh command); atexit handlers, flushes
    and the exit status are unchanged.  ``main`` leaves the collector
    alone, for callers that run many commands in one process.
    """
    try:
        return main()
    finally:
        gc.freeze()

"""Command-line interface.

Subcommands expose every computation with machine-readable output: JSON
records on stdout by default, CSV where tabular.  Exact rationals are
serialized as "numerator/denominator" strings and never as floats;
floating-point payloads carry their precision in bits.

Exit codes: 0 success, 1 failed verification, 2 invalid flags (one
``error:`` line on stderr), 3 ring/beta mismatch, 4 unwritable output
(a ``--out`` file or stdout), 5 heavy-tail refusal.  ``parse_args``
reads a command line from one flag table (``COMMANDS``) as argparse
would, each flag value checked by one ``_checked`` validator; ``emit``
prints every record.

Each handler imports the modules it calls in its own body, so a fresh
process loads only its route's: mpmath for float and radical output,
``asymptotics``, ``closed_forms``, ``oracle`` and ``rmt`` for their
commands and suites, and numpy and scipy (through ``montecarlo``) for
``mc`` and ``verify --suite mc`` alone.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext
from fractions import Fraction
from types import SimpleNamespace

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
# Most trials: estimate_mom keeps 16 B each (tracemalloc), 256 MiB in all.
MC_MAX_TRIALS = 2 ** 24

# Largest |beta| of an exact beta^2.  The exact rings build
# 2^(p*beta^2 + q): at beta = 256 a fresh command takes 0.2-0.4 s at
# k = 2 but ~38 s for asym or poly at k = 4, where each doubling of beta
# costs ~8-14 times more; printing is sub-quadratic.  beta = 1e100 runs
# without end.  Bounding the work (k^2 beta^2) instead is ROADMAP item 10.
MAX_EXACT_BETA = 2 ** 8

# How close k*beta^2 must be to 1 before a float beta is treated as
# exactly critical for order k.
CRITICAL_SNAP_TOL = 1e-9


class _BadValue(Exception):
    """A flag value that its validator refuses; not a ValueError, so an
    outer ``_checked`` passes an inner one's message on."""


def _checked(convert, ok, what: str):
    """Flag validator: ``convert(text)`` when ``ok`` holds for it, else one
    ``must be <what>`` error, also when ``convert`` raises."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (TypeError, ValueError, ZeroDivisionError):
            pass
        raise _BadValue(f"must be {what}, got {text!r}")
    return parse


def _int_in(low: int, high: float = math.inf, hint: str = ""):
    """Flag validator: an integer in [low, high]."""
    bound = f"in {low}..{high}" if high < math.inf else f">= {low}"
    return _checked(int, lambda v: low <= v <= high,
                    f"an integer {bound}{hint}")


_float_beta = _checked(float, lambda v: math.isfinite(v * v),
                       "a finite number with a finite square")
_beta = _checked(_float_beta,
                 lambda v: not v.is_integer() or abs(v) <= MAX_EXACT_BETA,
                 f"at most {MAX_EXACT_BETA} in magnitude when integral "
                 "(an integral beta is exact)")
_trials = _checked(_int_in(1), lambda v: v <= MC_MAX_TRIALS,
                   f"at most {MC_MAX_TRIALS} (16 B of memory per trial)")
_beta_sq_rational = _checked(lambda t: Fraction(*map(int, t.split("/"))),
                             lambda v: 0 <= v <= MAX_EXACT_BETA ** 2,
                             f"a rational p/m in 0..{MAX_EXACT_BETA ** 2}")


# Ints of at most this many bits print with str(n), which equals
# str(Decimal(n)), and are the leaves of ``_decimal``'s splits.  They have
# at most 617 digits: str(int) accepts that under any limit Python allows
# (sys.set_int_max_str_digits and $PYTHONINTMAXSTRDIGITS, at least 640).
DECIMAL_LEAF_BITS = 2048


def _decimal(n: int) -> Decimal:
    """Decimal(n) in sub-quadratic time, where Decimal(n) itself grows x4
    per doubling of the bits: n = hi 2^h + lo, split down to leaves of at
    most DECIMAL_LEAF_BITS bits, each 2^h formed once.  Exact: Inexact is
    trapped.  (CPython 3.12's str(int) splits in the same way.)"""
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
    return "/".join([str(n) if n.bit_length() <= DECIMAL_LEAF_BITS
                     else str(_decimal(n)) for n in f.as_integer_ratio()])


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
            payload["approx"] = _float_str(to_mpf(value, precision), precision)
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
        return _error(2, "need beta-min < beta-max")
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
            return _error(EXIT_UNWRITABLE, f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


def _mc_compare(k: int, n: int, beta: float, beta_sq, trials: int,
                seed: int, precision: int) -> tuple:
    """One Monte Carlo estimate of E[Z_n^k] against ``engine.mom_dp``:
    (estimate, exact value, that value as a double, z-score)."""
    import mpmath

    from . import montecarlo
    # Z depends on beta only through beta^2 in law, but a trial's draws
    # are scaled by 2*beta: simulate one sign so that both agree.
    config = montecarlo.SimConfig(n=n, beta=abs(beta), trials=trials,
                                  seed=seed)
    est = montecarlo.estimate_mom(config, k)
    exact = engine.mom_dp(k, n, beta_sq, precision=precision)
    # In mpf at a double's 53 bits: each step rounds as double arithmetic
    # would, so a z-score within the double range is that double, but an
    # exact value beyond the range does not overflow to inf.
    with mpmath.workprec(53):
        exact_53 = +to_mpf(exact, precision)
        if est.stderr == 0:
            z = 0.0 if est.mean == exact_53 else math.inf
        else:
            z = float((est.mean - exact_53) / est.stderr)
    return est, exact, float(exact_53), z


def cmd_mc(args) -> int:
    beta_sq, _ = parse_beta_args(args)
    if args.k * beta_sq > 1 and not args.force:
        return _error(EXIT_HEAVY_TAIL, "k*beta^2 > 1; the estimator is "
                      "heavy-tailed (pass --force to run anyway)")
    est, exact, _, z = _mc_compare(args.k, args.n, args.beta, beta_sq,
                                   args.trials, args.seed, args.precision)
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
    checks = []
    for k, n, beta in ((1, 6, 0.3), (2, 6, 0.3)):
        est, _, exact, z = _mc_compare(k, n, beta, beta * beta, trials, 42,
                                       precision)
        checks.append({"name": f"mc z-score k={k} n={n} beta={beta}",
                       "lhs": repr(est.mean), "rhs": repr(exact),
                       "tolerance": "3 sigma", "pass": abs(z) <= 3.0})
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
        for N in [N for N in (1, 10, 50) if N <= n_max]:
            lhs = rmt.unitary_mom_k1(N, beta, precision)
            rhs = to_mpf(rmt.unitary_mom_k1_integer(N, beta), precision)
            checks.append(_check(f"gamma=integer N={N} beta={beta}",
                                 lhs, rhs, 1e-12))
    return checks


def cmd_verify(args) -> int:
    budget = args.budget or 0
    if args.suite == "mc" and not 2 <= (budget or 2) <= MC_MAX_TRIALS:
        # One trial has no standard error; the cap is mc's --trials cap.
        bound = ">= 2" if budget < 2 else f"at most {MC_MAX_TRIALS}"
        return _error(2, "--budget of --suite mc is a trial count and must "
                      f"be {bound}, got {budget}")
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


_K = ("--k", _int_in(1), ...)
_PRECISION = ("--precision", _int_in(MIN_PRECISION, hint=" bits (--precision "
                                     f"or ${ENV_PRECISION})"),
              lambda: os.environ.get(ENV_PRECISION, str(DEFAULT_PRECISION)))
_PAIR = ("--beta", "--beta-sq-rational")
_EXACT_BETA = ((_PAIR[0], _beta, None), (_PAIR[1], _beta_sq_rational, None))
# Each command's help line and flags (flag, validator, default).  A tuple
# validator lists the choices and None marks a switch; a default of ...
# marks a required flag, and a callable one is called when the flag is
# absent.  A command with --beta-sq-rational needs exactly one of _PAIR.
COMMANDS = {
    "mom": ("moment value at one (k, n, beta)", (
        _K, ("--n", _int_in(0), ...), *_EXACT_BETA,
        ("--ring", ("auto", "rational", "radical", "float"), "auto"),
        _PRECISION)),
    "poly": ("exact polynomial in 2^n for integer k, beta", (
        _K, ("--beta", _int_in(1, MAX_EXACT_BETA), ...),
        ("--format", ("json", "csv"), "json"))),
    "asym": ("growth regime and leading coefficient",
             (_K, *_EXACT_BETA, _PRECISION)),
    "sweep": ("leading coefficient curve over beta", (
        _K, ("--beta-min", _float_beta, ...), ("--beta-max", _float_beta, ...),
        ("--steps", _int_in(2), ...), ("--out", str, None), _PRECISION)),
    "verify": ("run a cross-check suite", (
        ("--suite", ("oracle", "mc", "closedform", "rmt"), ...),
        ("--budget", _int_in(1), None), _PRECISION)),
    "mc": ("Monte Carlo moment estimate vs engine, refused when "
           "k*beta^2 > 1 unless --force", (
        _K, ("--n", _int_in(0, MC_MAX_DEPTH, " (a deeper trial needs over "
                            "1 GiB)"), ...), ("--beta", _beta, ...),
        ("--trials", _trials, 10000),
        ("--seed", _int_in(0, 2 ** 64 - 1), 0), ("--force", None, False),
        _PRECISION)),
}
_HELP = ("-h/--help", None, None)
_TOP = {"-h": _HELP, "--help": _HELP}
_OPTIONS = {name: {**_TOP, **{flag[0]: flag for flag in flags}}
            for name, (_, flags) in COMMANDS.items()}


def _error(code: int, message: str) -> int:
    """Writes a failed command's one ``error:`` line, if stderr takes it
    (it is None when closed, and raises when full); returns ``code``."""
    try:
        sys.stderr.write(f"error: {message}\n")
    except (AttributeError, OSError):
        pass
    return code


def _fail(message: str):
    raise SystemExit(_error(2, message))


def _classify(options: dict, token: str):
    """How argparse reads ``token``: None for a value, else (flag, or None
    when unknown, and its =value or None).  -h is the one single-dash
    flag: -hVALUE is -h given VALUE, and -hh is -h -h."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return options[token], None
    name, eq, explicit = token.partition("=")
    if token[1] == "-":
        found = ([name] if name in options
                 else [option for option in options if option.startswith(name)])
        explicit = explicit if eq else None
    else:
        found = ["-h"] * (token[1] == "h")
        explicit = token[3:] if token[2:3] == "=" else token[2:]
        explicit = explicit.lstrip("h") or None if explicit else explicit
    if len(found) > 1:
        _fail(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return options[found[0]], explicit
    negative = re.match(r"-(\.?\d|inf|nan)", token, re.I)
    return None if negative or " " in token else (None, None)


def _value(name: str, convert, text: str):
    if isinstance(convert, tuple) and text not in convert:
        _fail(f"argument {name}: invalid choice: {text!r} (choose from "
              f"{', '.join(map(repr, convert))})")
    try:
        return text if isinstance(convert, tuple) else convert(text)
    except _BadValue as exc:
        _fail(f"argument {name}: {exc}")


def _switch(name: str, text, command) -> None:
    """Fails when a switch is given a value; prints help for -h/--help."""
    if text is not None:
        _fail(f"argument {name}: ignored explicit argument {text!r}")
    if name == _HELP[0]:
        lines = ["usage: brwmom COMMAND [FLAG VALUE | FLAG=VALUE]...; a flag "
                 "may be shortened to a unique prefix.", "--precision is "
                 f"in bits, at least {MIN_PRECISION}, by default "
                 f"${ENV_PRECISION} or {DEFAULT_PRECISION}.  --beta-sq-"
                 "rational is an exact beta^2 p/m, given in place of --beta."]
        for cmd in [command] if command else COMMANDS:
            lines += ["", f"{cmd}: {COMMANDS[cmd][0]}"]
            for flag, convert, default in COMMANDS[cmd][1]:
                value = (" {%s}" % ",".join(convert)
                         if isinstance(convert, tuple)
                         else " " + flag[2:].upper() if convert else "")
                lines.append(f"  {flag}{value}"
                             + " (required)" * (default is ...))
        sys.stdout.write("\n".join(lines) + "\n")
        raise SystemExit(0)


def parse_args(argv=None) -> SimpleNamespace:
    """The namespace of one command line, parsed as argparse would: a
    flag repeated keeps its last value, a token that starts with -inf,
    -nan, -<digit> or -.<digit> is a value, '--' ends the flags, and each
    error is argparse's ``error:`` line, with exit status 2.  One case
    differs: --flag=-- checks the value '--', where argparse gave []."""
    argv = sys.argv[1:] if argv is None else list(argv)
    extras, i = [], 0
    while i < len(argv) and argv[i] != "--" and (
            kind := _classify(_TOP, argv[i])):
        if kind[0]:
            _switch(_HELP[0], kind[1], None)
        extras.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        _fail("the following arguments are required: command")
    command, tokens = _value("command", tuple(COMMANDS), argv[i]), argv[i + 1:]
    flags, options = COMMANDS[command][1], _OPTIONS[command]
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    # () marks the '--', after which every token is a value.
    kinds = [_classify(options, token) for token in tokens[:cut]]
    kinds += [()] + [None] * len(tokens)
    args = SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): default for flag, _, default in flags})
    seen, i = set(), 0
    while i < len(tokens):
        kind, i = kinds[i], i + 1
        if not kind or not kind[0]:
            extras.append(tokens[i - 1])
            continue
        (name, convert, _), text = kind
        if convert is None:
            _switch(name, text, command)
        elif text is None:
            if i == len(tokens) or kinds[i] is not None:
                _fail(f"argument {name}: expected one argument")
            text, i = tokens[i], i + 1
        value = True if convert is None else _value(name, convert, text)
        rival = _PAIR[name == _PAIR[0]] if name in _PAIR else None
        if rival in seen:
            _fail(f"argument {name}: not allowed with argument {rival}")
        seen.add(name)
        setattr(args, name[2:].replace("-", "_"), value)
    for flag, convert, default in flags:
        if callable(default) and flag not in seen:
            setattr(args, flag[2:].replace("-", "_"),
                    _value(flag, convert, default()))
    missing = [flag for flag, _, default in flags
               if default is ... and flag not in seen]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    if _PAIR[1] in options and not seen.intersection(_PAIR):
        _fail(f"one of the arguments {' '.join(_PAIR)} is required")
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        # Looked up per call, so a cmd_* replaced after import is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except RingMismatchError as exc:
        return _error(EXIT_RING_MISMATCH, str(exc))


def run() -> int:
    """Process entry point of ``python -m brwmom`` and the ``brwmom`` script.

    Runs ``main()`` and flushes stdout; an ``OSError`` from writing
    stdout (``> /dev/full``, a closed pipe, or a stdout closed at start,
    read as the null device opened for reading) exits ``EXIT_UNWRITABLE``
    with one ``error:`` line, and stdout is pointed at the null device so
    that the interpreter's last flush has nowhere to fail.  Then it
    freezes the heap, also when ``main`` raises, so the full collections
    of interpreter shutdown skip the objects the imports left (11-18 ms
    of a fresh command); atexit handlers and flushes are unchanged.
    ``main`` leaves the collector and stdout alone, for callers that run
    many commands in one process.
    """
    try:
        if sys.stdout is None:  # started with stdout closed
            sys.stdout = open(os.devnull)
        status = main()
        sys.stdout.flush()
        return status
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _error(EXIT_UNWRITABLE, f"cannot write stdout: {exc}")
    finally:
        gc.freeze()

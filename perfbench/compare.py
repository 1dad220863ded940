"""Compare a job's output with its stored reference.

Rules:

* exact payloads must be equal: rationals, radical coefficients, poly
  rows, regime, method, degree, exponents, verify check names and
  ``pass``, and every other string, integer or boolean;
* a float payload (``{"type": "float", ...}``) must agree to within
  2^-(p-16) relative, p being the reference's ``precision_bits``; the
  ``approx`` of a radical payload is held to the same rule at the
  record's ``precision`` parameter;
* bare doubles (JSON numbers, verify ``lhs``/``rhs``, CSV coefficients)
  must agree to within 2^-(53-16) relative;
* the Monte Carlo ``estimate`` and ``stderr`` must agree to within 1e-9
  relative, and ``z_score``, which divides by ``stderr``, to within 1e-6
  absolute per unit of its size;
* keys the output adds to a record are allowed; a key the reference has
  and the output lacks is a failure.

``compare`` returns None on a match and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

DOUBLE_BITS = 53
MC_REL_TOL = Fraction(1, 10 ** 9)
Z_TOL = Fraction(1, 10 ** 6)


def _number(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError):
        return None


def _close(ref, out, rel_tol) -> bool:
    a, b = _number(ref), _number(out)
    if a is None or b is None:
        return ref == out
    return abs(a - b) <= rel_tol * abs(a)


def _bits_tol(bits: int) -> Fraction:
    return Fraction(1, 2 ** max(bits - 16, 1))


def _compare(ref, out, path: str, precision: int):
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return f"{path}: expected an object"
        for key in ref:
            if key not in out:
                return f"{path}.{key}: missing"
        if ref.get("type") == "float":
            if ref.get("precision_bits") != out.get("precision_bits"):
                return f"{path}.precision_bits differs"
            tol = _bits_tol(ref["precision_bits"])
            if not _close(ref["value"], out["value"], tol):
                return f"{path}.value: {out['value']} != {ref['value']}"
            return None
        for key, value in ref.items():
            sub = f"{path}.{key}"
            if key in ("estimate", "stderr"):
                ok = _close(repr(value), repr(out[key]), MC_REL_TOL)
            elif key == "z_score":
                a, b = _number(repr(value)), _number(repr(out[key]))
                ok = (repr(value) == repr(out[key]) if a is None or b is None
                      else abs(a - b) <= Z_TOL * max(1, abs(a)))
            elif key == "approx":
                ok = _close(value, out[key], _bits_tol(precision))
            elif key in ("lhs", "rhs"):
                ok = _close(value, out[key], _bits_tol(DOUBLE_BITS))
            else:
                reason = _compare(value, out[key], sub, precision)
                if reason:
                    return reason
                continue
            if not ok:
                return f"{sub}: {out[key]!r} != {value!r}"
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (r, o) in enumerate(zip(ref, out)):
            reason = _compare(r, o, f"{path}[{i}]", precision)
            if reason:
                return reason
        return None
    if isinstance(ref, float) and not isinstance(out, bool) and isinstance(
            out, (int, float)):
        ok = _close(repr(ref), repr(out), _bits_tol(DOUBLE_BITS))
    else:
        ok = type(ref) is type(out) and ref == out
    return None if ok else f"{path}: {out!r} != {ref!r}"


def _compare_csv(ref: str, out: str):
    ref_rows = [line.split(",") for line in ref.splitlines()]
    out_rows = [line.split(",") for line in out.splitlines()]
    if len(ref_rows) != len(out_rows) or not ref_rows:
        return f"csv: {len(out_rows)} lines != {len(ref_rows)}"
    if ref_rows[0] != out_rows[0]:
        return f"csv header {out_rows[0]} != {ref_rows[0]}"
    for i, (r, o) in enumerate(zip(ref_rows[1:], out_rows[1:]), 1):
        if len(r) != len(o):
            return f"csv line {i}: {len(o)} cells != {len(r)}"
        for col, a, b in zip(ref_rows[0], r, o):
            # Sweep coefficients are printed to 17 digits; every other
            # cell (degree, exact coefficient, beta, regime, method) is
            # exact.
            tol = _bits_tol(DOUBLE_BITS) if col == "coefficient" and (
                "/" not in a) else 0
            if not _close(a, b, tol):
                return f"csv line {i} {col}: {b} != {a}"
    return None


def compare(ref: dict, rc, stdout: str):
    """None if (rc, stdout) matches the reference, else the reason."""
    if rc != ref["rc"]:
        return f"exit code {rc} != {ref['rc']}"
    expected = ref["stdout"]
    if expected.startswith("{"):
        try:
            out = json.loads(stdout)
        except ValueError:
            return "output is not one JSON record"
        record = json.loads(expected)
        precision = record.get("parameters", {}).get("precision", 256)
        return _compare(record, out, "$", precision)
    return _compare_csv(expected, stdout)

"""Moments of the branching random walk partition function.

Computation routes for the k-th moment of
Z_n = 2^(-n) * sum over leaves of exp(2*beta*X_n(leaf)):

* ``mom_dp``: a pole-free dynamic program over any coefficient ring.  At
  the root the k paths either share a child or split j / k-j between the
  two children, leaving independent subtrees one level shallower:
    M_k(d) = 2^(k^2 beta^2 + 1 - k) M_k(d-1) + sum_{0<j<k} C(k, j)
             2^((k^2 + 2j(j-k)) beta^2 - k) M_j(d-1) M_{k-j}(d-1).
  The subtrees are exchangeable, so the splits j and k-j have the same
  weight and the sum runs over the unordered splits 0 < j <= k/2, the
  weight doubled for j < k/2: about k^2 n / 2 ring products for the
  whole table.  It never divides, so every beta (critical points
  included) is in range.  ``MomentTable`` runs it scaled, in the ring's
  table form (``rings``): on 2^((1 - beta^2) kn) M_k(n) in the exact
  rings and on 2^(kn) M_k(n) in mpf, unscaled exactly on a read.  The
  loop runs on the interpreter's int operators, with no call per product
  in the exact forms: one int per entry at integer and half-integer
  beta^2 (``_int_rows``), h slot ints at h > 1 (``_slot_rows``), and an
  int pair rounded by ``rings._round_pair`` in mpf (``_pair_rows``).

* ``mom_symbolic``: the same recurrence solved in closed form,
  M_k(n) = sum over bases b = 2^(p beta^2 + q) of P_b(n) b^n, by
  ``_closed_forms`` over Q(t), t = 2^(beta^2).  Valid for generic beta;
  the critical denominators survive as poles of the coefficients.  No
  other route loads ``symbolic``, which it imports in its own body.

* ``mom_polynomial``: for integer k and beta, the closed form in the
  rationals, an exact polynomial in 2^n of degree k^2*beta^2 - k + 1,
  returned as the NamedTuple ``MomPolynomial``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, NamedTuple

from .rings import (DEFAULT_PRECISION, ExpPair, FloatContext, RingContext,
                    _padd, _pair_weight, _pmul, _round_pair, _table_shift,
                    _trim, resolve_context)


class PoleAtCriticalBeta(ArithmeticError):
    """A symbolic coefficient denominator vanishes at this beta; use the
    termwise dynamic program instead."""


@lru_cache(maxsize=128)
def recurrence_terms(j: int):
    """(s, ((i, c_i, e_i), ...)), ring-free, of order j's depth recurrence
    M_j(d) = 2^s M_j(d-1) + sum_{0<i<=j/2} c_i 2^(e_i) M_i(d-1) M_{j-i}(d-1)
    (module docstring), each exponent an ``ExpPair``.  The split i stands
    for itself and j - i, so c_i is twice their binomial unless 2i = j.
    Cached, so tuples: no caller can change a cached value."""
    return ExpPair(j * j, 1 - j), tuple(
        (i, (2 - (2 * i == j)) * comb(j, i),
         ExpPair(j * j + 2 * i * (i - j), -j))
        for i in range(1, j // 2 + 1))


@lru_cache(maxsize=128)
def _int_weights(j: int, g: int):
    """(step, ((i, w_i), ...)): order j's table multipliers c 2^s as ints
    in the exact table form at h = 1, 2 beta^2 = g.  Cached for 128 pairs
    (j, g); one pair's weights sum to row j's entry at depth 1."""
    step, terms = recurrence_terms(j)
    return 1 << _table_shift(step, j, g, 1)[0], tuple(
        (i, c << _table_shift(e, j, g, 1)[0]) for i, c, e in terms)


@lru_cache(maxsize=128)
def _pair_weights(j: int, beta_sq: tuple, prec: int):
    """(step, ((i, man_i, exp_i), ...)): order j's table multipliers in
    mpf's table form (``rings._pair_weight``) for the raw mpf beta^2 at
    ``prec`` bits, one mpf_pow each.  One build computes each order's
    weights once; the cache serves the next float table at the same
    beta^2 and precision in the process (``verify --suite oracle``'s 15
    tables, a caller of ``cli.main`` or ``mom_dp`` running many jobs).
    Cached for 128 keys, so at most 128 (1 + j/2) int pairs of at most
    ``prec`` bits each are kept."""
    step, terms = recurrence_terms(j)
    return _pair_weight(1, step, j, beta_sq, prec), tuple(
        (i, *_pair_weight(c, e, j, beta_sq, prec)) for i, c, e in terms)


def recurrence_coefficients(j: int, ring: RingContext):
    """(step, [(i, w_i)]): ``recurrence_terms`` evaluated in ``ring``.
    Call it under ``ring.workprec()``."""
    step, terms = recurrence_terms(j)
    return ring.two_pow(*step), [(i, c * ring.two_pow(*e))
                                 for i, c, e in terms]


class MomentTable:
    """Bottom-up table of moment values: a row per order j, by depth d.

    Depth 0 is 1; each row then takes one step of the depth recurrence
    per depth (order 1 has no split term: (2^(beta^2))^d).  The rows hold
    a scaled M_j(d), each ring's normalisation (``rings``), with no gcd:
    N_j(d) = 2^(jd) M_j(d) in mpf, the one scaling exact in binary
    (coefficients: the exact 2^j times the rounded step and w_i, as
    two_pow(j*j, 1) rounds otherwise), and R_j(d) = 2^((1 - beta^2) jd)
    M_j(d) in the exact rings (coefficients times 2^j 2^(-j beta^2),
    integral in 2^(2 beta^2) by the parity lemma).  ``build`` picks the
    operator loop of the ring's table form once: ``_int_rows`` at h = 1,
    ``_slot_rows`` at h > 1, ``_pair_rows`` in mpf.  ``value`` undoes the
    scaling exactly; the table form carries its own precision, so in mpf
    each value is the unscaled recurrence's to the bit.
    """

    def __init__(self, ring: RingContext, rows: list) -> None:
        self._ring, self._rows = ring, rows

    @classmethod
    def build(cls, k_max: int, n_max: int, ring: RingContext) -> "MomentTable":
        if k_max < 1:
            raise ValueError("moment order must be positive")
        if n_max < 0:
            raise ValueError("depth must be nonnegative")
        if ring.beta_sq < 0:
            raise ValueError("beta^2 must be nonnegative")
        if isinstance(ring, FloatContext):
            rows = _pair_rows(k_max, n_max, ring.beta_sq._mpf_, ring.precision)
        elif ring.h == 1:
            rows = _int_rows(k_max, n_max, ring.g)
        else:
            rows = _slot_rows(k_max, n_max, ring.g, ring.h)
        return cls(ring, rows)

    def value(self, j: int, depth: int):
        if j < 1 or depth < 0:  # a negative index would wrap silently
            raise IndexError(f"no entry ({j}, {depth}) in the table")
        return self._ring.from_table(self._rows[j][depth], j * depth)


def _int_rows(k_max: int, n_max: int, g: int) -> list:
    """``MomentTable``'s rows at h = 1, one int per entry, by the depth
    loop on the interpreter's own operators."""
    rows = [None]
    for j in range(1, k_max + 1):
        step, weights = _int_weights(j, g)
        splits = [(rows[i], rows[j - i], w) for i, w in weights]
        row = [1]
        for d in range(n_max):
            total = step * row[d]
            for a, b, w in splits:
                total += w * a[d] * b[d]
            row.append(total)
        rows.append(row)
    return rows


def _slot_rows(k_max: int, n_max: int, g: int, h: int) -> list:
    """``MomentTable``'s rows at h > 1, h ints per entry (slot i holds
    the coefficient of 2^(i/h)).  A multiplier c 2^s 2^(r/h) is the int
    c 2^s and an offset of r slots, so each depth step adds every
    product unfolded into 3h - 2 slots and folds by 2^(h/h) = 2 once."""
    rows, top = [None], range(3 * h - 3, h - 1, -1)
    for j in range(1, k_max + 1):
        step, terms = recurrence_terms(j)
        s, r = _table_shift(step, j, g, h)
        splits = []
        for i, c, e in terms:
            ws, wr = _table_shift(e, j, g, h)
            splits.append((rows[i], rows[j - i], wr, c << ws))
        row = [[1] + [0] * (h - 1)]
        for d in range(n_max):
            acc = [0] * (3 * h - 2)
            for t, x in enumerate(row[d], r):
                acc[t] = x << s
            for a, b, wr, w in splits:
                b = b[d]
                for i, x in enumerate(a[d], wr):
                    if x:
                        x *= w
                        for t, y in enumerate(b, i):
                            acc[t] += x * y
            for t in top:
                acc[t - h] += 2 * acc[t]
            row.append(acc[:h])
        rows.append(row)
    return rows


def _pair_rows(k_max: int, n_max: int, beta_sq: tuple, prec: int) -> list:
    """``MomentTable``'s rows in mpf, int pairs (man, exp), by the depth
    loop on ints: each product and sum formed exactly and rounded once by
    ``_round_pair``, in the unscaled recurrence's order, so each entry is
    that recurrence's in mpf to the bit."""
    rows = [None]
    for j in range(1, k_max + 1):
        (sm, se), weights = _pair_weights(j, beta_sq, prec)
        splits = [(rows[i], rows[j - i], wm, we) for i, wm, we in weights]
        row = [(1, 0)]
        for d in range(n_max):
            xm, xe = row[d]
            tm, te = _round_pair(sm * xm, se + xe, prec)
            for a, b, wm, we in splits:
                (am, ae), (bm, be) = a[d], b[d]
                x, ex = _round_pair(wm * am, we + ae, prec)
                x, ex = _round_pair(x * bm, ex + be, prec)
                if te < ex:
                    tm, te, x, ex = x, ex, tm, te
                # x 2^ex below 1/32 ulp of the rounded total rounds away:
                # the sum is the total, and no int grows with the gap.
                gap = te - ex
                if gap <= prec + 4 + x.bit_length() - tm.bit_length():
                    tm, te = _round_pair((tm << gap) + x, ex, prec)
            row.append((tm, te))
        rows.append(row)
    return rows


def mom_dp(k: int, n: int, beta_sq, precision: int = DEFAULT_PRECISION):
    """Moment of order k at depth n, in the ring selected for beta^2.

    Returns a Fraction for integer beta^2, a Radical for exact rational
    beta^2 = a/m, and an mpf otherwise.
    """
    ctx = resolve_context(beta_sq, "auto", precision)
    return MomentTable.build(k, n, ctx).value(k, n)


def _particular(b, s, p) -> list:
    """Q with b Q(d+1) - s Q(d) = p(d), lowest degree first, solved from
    the top coefficient down.  At a resonance b = s, Q is one degree
    higher and its constant term, which is free, is left as None."""
    resonant = b == s
    q = [None] * (len(p) + resonant)
    for m in reversed(range(len(p))):
        total = p[m]
        for r in range(m + 1 + resonant, len(q)):
            total = total - comb(r, m) * b * q[r]
        q[m + resonant] = total / (s * (m + 1) if resonant else b - s)
    return q


def _closed_forms(k: int, ring) -> list:
    """Orders 1..k of the moment: ``forms[j]`` maps each base
    b = 2^(p beta^2 + q) of M_j, a ring element, to (ExpPair(p, q),
    (c_0, c_1, ...)), where M_j(n) = sum of (c_0 + c_1 n + ...) b^n.  The
    products of lower orders force order j's depth recurrence; a forcing
    base equal to the step s_j (a resonance, as the critical n 2^n) gains
    a power of n, and s_j^n takes the rest of M_j(0) = 1.  In mpf, near a
    pole, b - s_j is tiny: the terms grow and cancel, at a cost in bits."""
    forms, powers = [None], {}
    with ring.workprec():
        for j in range(1, k + 1):
            step, weights = recurrence_coefficients(j, ring)
            forcing = {step: (ExpPair(j * j, 1 - j), ())}
            for i, w in weights:
                for e1, p1 in forms[i].values():
                    p1 = tuple(w * x for x in p1)
                    for e2, p2 in forms[j - i].values():
                        e = e1.plus(e2)
                        if e not in powers:
                            powers[e] = ring.two_pow(e.p, e.q)
                        b = powers[e]
                        e, acc = forcing.get(b, (e, ()))
                        forcing[b] = (e, _padd(acc, _pmul(p1, p2)))
            form = {b: (e, _particular(b, step, p))
                    for b, (e, p) in forcing.items()}
            constant = ring.one
            for b, (_, q) in form.items():
                if q and b != step:
                    constant = constant - q[0]
            form[step][1][0] = constant
            forms.append({b: (e, _trim(q)) for b, (e, q) in form.items()
                          if any(q)})
    return forms


@lru_cache(maxsize=None)
def mom_symbolic(k: int) -> "GenPoly":
    """Closed form of the k-th moment as a GenPoly over Q(t): no product
    of lower orders has a step's power of t, so no coefficient has a
    power of n, and the critical denominators remain as poles.  It is
    solved with factored denominators and no gcd per operation, and each
    coefficient is reduced to a ``RatFun`` once, core by core: one gcd of
    its numerator with each core's power, none with the whole
    denominator."""
    from .symbolic import GenPoly, SymbolicContext
    if k < 1:
        raise ValueError("moment order must be positive")
    form = _closed_forms(k, SymbolicContext())[k]
    return GenPoly({e: c.to_ratfun() for e, (c,) in form.values()})


def evaluate_genpoly(g: "GenPoly", beta_sq, n: int,
                     precision: int = DEFAULT_PRECISION):
    """Value of a GenPoly at a concrete beta^2 and depth n.

    Evaluated in the ring ``resolve_context`` picks for beta^2: exact
    (Fraction or Radical) for rational beta^2, mpf at the requested
    precision otherwise.  Raises PoleAtCriticalBeta when a coefficient
    denominator vanishes at t = 2^(beta^2), as the ring's ``vanishes``
    judges it: exactly in the exact rings, conservatively in floats.
    """
    ctx = resolve_context(beta_sq, "auto", precision)
    with ctx.workprec():
        t = ctx.two_pow(1, 0)
        total = ctx.zero
        for e, c in g.items():
            num, den = c.evaluate_parts(t)
            if ctx.vanishes(den):
                raise PoleAtCriticalBeta(
                    "coefficient denominator vanishes at beta^2 = "
                    f"{beta_sq} in ring {ctx.tag}")
            total = total + num / den * ctx.two_pow(e.p * n, e.q * n)
        return total


class MomPolynomial(NamedTuple):
    """Exact polynomial in X = 2^n equal to the moment for integer k, beta."""

    k: int
    beta: int
    coefficients: Dict[int, Fraction]

    @property
    def degree(self) -> int:
        return max(self.coefficients)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[self.degree]

    def rows(self):
        """(degree, coefficient) pairs, highest degree first."""
        return sorted(self.coefficients.items(), reverse=True)


def mom_polynomial(k: int, beta: int) -> MomPolynomial:
    """Exact coefficients of the moment as a polynomial in 2^n: the
    closed form in the rationals, each exponent an integer degree.  At
    integer beta >= 1 no term resonates, so none has a power of n."""
    if k < 1 or beta < 1:
        raise ValueError("k and beta must be positive integers")
    beta_sq = beta * beta
    expected_degree = k * k * beta_sq - k + 1
    form = _closed_forms(k, resolve_context(beta_sq, "rational"))[k]
    coeffs = {e.value_at(beta_sq): c for e, c in form.values()}
    for degree, c in coeffs.items():
        if degree < 0 or len(c) > 1:
            raise ArithmeticError(f"term n^{len(c) - 1} 2^({degree} n) is "
                                  "not a term of a polynomial in 2^n")
    poly = MomPolynomial(k, beta, {d: c[0] for d, c in coeffs.items()})
    if poly.degree != expected_degree:
        raise ArithmeticError(
            f"degree {poly.degree} != expected {expected_degree}")
    if poly.leading_coefficient <= 0:
        raise ArithmeticError("leading coefficient must be positive")
    return poly

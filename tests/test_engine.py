import hashlib
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import truediv

import mpmath
import pytest
from mpmath import mp

from brwmom import (ExpPair, GenPoly, MomentTable, PoleAtCriticalBeta,
                    Radical, RatFun, critical_coefficient,
                    evaluate_genpoly, geometric_sum, mom_dp, mom_polynomial,
                    mom_symbolic, resolve_context, supercritical_coefficient)
from brwmom import engine
from brwmom.engine import (_closed_forms, recurrence_coefficients,
                           recurrence_terms)
from brwmom.rings import FloatContext, RadicalContext, to_mpf
from brwmom.symbolic import SymbolicContext


def rf(num, den=(1,)):
    return RatFun([Fraction(c) for c in num], [Fraction(c) for c in den])


def second_moment_reference_exact(n, beta_sq):
    """Worked closed form of the second moment for integer beta^2:
    2^(2bn-1) (2^((2b-1)n) - 1)/(2^(2b-1) - 1) + 2^((4b-1)n)."""
    b = beta_sq
    geom = (Fraction(2) ** ((2 * b - 1) * n) - 1) / \
        (Fraction(2) ** (2 * b - 1) - 1)
    return Fraction(2) ** (2 * b * n - 1) * geom + \
        Fraction(2) ** ((4 * b - 1) * n)


def second_moment_reference_float(n, beta_sq, precision=256):
    with mp.workprec(precision):
        b = mpmath.mpf(beta_sq)
        two = mpmath.mpf(2)
        geom = (two ** ((2 * b - 1) * n) - 1) / (two ** (2 * b - 1) - 1)
        return two ** (2 * b * n - 1) * geom + two ** ((4 * b - 1) * n)


class TestMomDp:
    def test_first_moment(self):
        assert mom_dp(1, 3, 4) == 4096

    def test_second_moment_depth_one(self):
        assert mom_dp(2, 1, 1) == 10

    def test_beta_zero(self):
        assert mom_dp(3, 7, 0) == 1

    def test_depth_zero(self):
        assert mom_dp(5, 0, 0.49) == 1

    def test_critical_exact_value(self):
        assert mom_dp(2, 2, Fraction(1, 2)) == Radical(2, (8,))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            mom_dp(0, 3, 1)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_second_moment_closed_form_exact(self, beta):
        for n in range(0, 18):
            assert mom_dp(2, n, beta * beta) == \
                second_moment_reference_exact(n, beta * beta)

    @pytest.mark.parametrize("beta", [0.3, 0.9, 1.3])
    def test_second_moment_closed_form_float(self, beta):
        for n in (1, 5, 17):
            got = mom_dp(2, n, beta * beta)
            want = second_moment_reference_float(n, beta * beta)
            assert abs(got - want) / want < mpmath.mpf(1e-12)

    def test_critical_family(self):
        table = MomentTable.build(2, 24, resolve_context(Fraction(1, 2)))
        for n in range(25):
            expect = Fraction(n + 2) * Fraction(2) ** (n - 1)
            assert table.value(2, n) == Radical(2, (expect,))


def lambda_sum_table(k_max, n_max, ring):
    """Entries of the moment table by the literal lam-sum: every depth
    re-walks the last common level lam with its diagonal term, O(k^2 n^2)
    ring products.  Test-only reference for the depth recurrence."""
    ent = {}
    with ring.workprec():
        one = ring.one
        for j in range(1, k_max + 1):
            ent[(j, 0)] = one
        growth = ring.two_pow(1, 0)
        acc = one
        for d in range(1, n_max + 1):
            acc = acc * growth
            ent[(1, d)] = acc
        for j in range(2, k_max + 1):
            pref = ring.two_pow(j * j, -j)
            step = ring.two_pow(j * j, 1 - j)
            weights = [(i, comb(j, i) * ring.two_pow(2 * i * (i - j), 0))
                       for i in range(1, j)]
            for d in range(1, n_max + 1):
                total = ring.zero
                lam_factor = one
                for lam in range(d):
                    sub = d - lam - 1
                    inner = ring.zero
                    for i, w in weights:
                        inner = inner + w * ent[(i, sub)] * ent[(j - i, sub)]
                    total = total + lam_factor * inner
                    lam_factor = lam_factor * step
                diagonal = ring.two_pow(j * j * d, (1 - j) * d)
                ent[(j, d)] = pref * total + diagonal
    return ent


def two_power(ring, e):
    """2^(p beta^2 + q) in the ring's own arithmetic: a Fraction or a
    ``Radical`` from ``two_pow``, or in mpf ``mpf(2) ** (p beta^2 + q)``
    (mpmath's operators, not the ring's libmp calls that the table's
    weights share).  Call it under ``ring.workprec()``."""
    if isinstance(ring, FloatContext):
        return mpmath.mpf(2) ** (e.p * ring.beta_sq + e.q)
    return ring.two_pow(*e)


def unscaled_table(k_max, n_max, ring):
    """Entries of the moment table by the depth recurrence on M_j(d)
    itself, in the ring's own arithmetic with ``two_power``'s weights, as
    ``MomentTable.build`` ran it before it scaled row j and ran on ints.
    Test-only reference for every table form: it calls none of the
    table's loops, weights, rounding or shifts."""
    ent = {}
    with ring.workprec():
        for j in range(1, k_max + 1):
            s, terms = recurrence_terms(j)
            step = two_power(ring, s)
            weights = [(i, c * two_power(ring, e)) for i, c, e in terms]
            ent[(j, 0)] = ring.one
            for d in range(n_max):
                total = step * ent[(j, d)]
                for i, w in weights:
                    total = total + w * ent[(i, d)] * ent[(j - i, d)]
                ent[(j, d + 1)] = total
    return ent


def assert_table_equals_reference(k, n, ring):
    """``MomentTable.build``'s every value is ``unscaled_table``'s, bit
    for bit: equal ring elements, and in mpf equal raw values."""
    table = MomentTable.build(k, n, ring)
    for key, want in unscaled_table(k, n, ring).items():
        got = table.value(*key)
        assert getattr(got, "_mpf_", got) == getattr(want, "_mpf_", want), \
            (k, n, key)
    return table


EXACT_BETA_SQ = [0, 1, 2, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]


class TestMomentTable:
    def test_base_rows(self):
        table = MomentTable.build(3, 6, resolve_context(2))
        for j in (1, 2, 3):
            assert table.value(j, 0) == 1
        for d in range(7):
            assert table.value(1, d) == Fraction(2) ** (2 * d)

    def test_entries_at_least_one(self):
        table = MomentTable.build(4, 10, resolve_context(0.55, precision=128))
        for j in range(1, 5):
            for d in range(11):
                assert table.value(j, d) >= 1

    def test_jensen_bound(self):
        # k-th moment dominates the k-th power of the first moment
        for beta_sq in (0.09, 0.49, 1.21):
            table = MomentTable.build(5, 20, resolve_context(beta_sq))
            with mp.workprec(256):
                for k in range(1, 6):
                    for n in (1, 5, 10, 20):
                        lower = mpmath.mpf(2) ** (mpmath.mpf(beta_sq) * n * k)
                        assert table.value(k, n) >= lower * (1 - mpmath.mpf(1e-30))

    @pytest.mark.parametrize("beta_sq", EXACT_BETA_SQ)
    def test_recurrence_equals_lambda_sum_exactly(self, beta_sq):
        ctx = resolve_context(beta_sq)
        for k, n in ((6, 30), (6, 0), (1, 30)):
            table = MomentTable.build(k, n, ctx)
            want = lambda_sum_table(k, n, ctx)
            assert {key: table.value(*key) for key in want} == want

    @pytest.mark.parametrize("precision", [128, 256])
    def test_recurrence_matches_lambda_sum_in_floats(self, precision):
        tol = mpmath.mpf(2) ** (16 - precision)
        for beta_sq in EXACT_BETA_SQ + [0.09, 0.55]:
            ctx = resolve_context(beta_sq, "float", precision)
            table = MomentTable.build(6, 30, ctx)
            want = lambda_sum_table(6, 30, ctx)
            with mp.workprec(precision):
                for key, w in want.items():
                    got = table.value(*key)
                    assert abs(got - w) <= tol * abs(w), (beta_sq, key)

    def test_multiplications_linear_in_depth(self, monkeypatch):
        # the lam-sum costs ~4x the products at twice the depth.  This
        # counts ``_int_rows``' own products: each weight is an int that
        # counts a product it heads, and so is that product.
        muls = []

        class Counted(int):
            def __mul__(self, other):
                muls.append(1)
                return Counted(int(self) * other)

            def __rlshift__(self, other):  # the step weight 1 << s
                return Counted(other << int(self))

        def counted(j, g, h):
            (s, r), weights = exact_weights(j, g, h)
            return (Counted(s), r), tuple((i, Counted(w), r)
                                          for i, w, r in weights)
        exact_weights = engine._exact_weights
        monkeypatch.setattr(engine, "_exact_weights", counted)
        counts, ctx = [], resolve_context(1)
        for n in (20, 40):
            muls.clear()
            table = MomentTable.build(6, n, ctx)
            counts.append(len(muls))
            assert table.value(6, n) == unscaled_table(6, n, ctx)[(6, n)]
        assert counts[1] <= 2.2 * counts[0], counts
        # Per depth step order j takes one product for its step, and two
        # for each unordered split i | j - i, 0 < i <= j/2.
        per_step = sum(1 + 2 * (j // 2) for j in range(1, 7))
        assert counts == [20 * per_step, 40 * per_step] == [480, 960]

    # The "callable loop" of the next three tests is ``unscaled_table``:
    # the recurrence on the ring values' own operators.
    GRID = ((10, 60), (10, 0), (1, 60), (7, 13))

    @pytest.mark.parametrize("beta_sq", [0, 1, 2, 4, Fraction(1, 2),
                                         Fraction(3, 2)])
    def test_int_loop_equals_callable_loop(self, beta_sq):
        ring = resolve_context(beta_sq)
        assert (2 * ring.beta_sq).as_integer_ratio()[1] == 1
        for k, n in self.GRID:
            table = assert_table_equals_reference(k, n, ring)
        assert all(type(x) is int for row in table._rows[1:] for x in row)

    @pytest.mark.parametrize("beta_sq", ["1/3", "1/4", "3/8", "2/3", "7/25",
                                         "9/25", "2/5", "3/7", "5/6", "1/12"])
    def test_slot_loop_equals_callable_loop(self, beta_sq):
        # h = 3, 2, 4, 3, 25, 25, 5, 7, 3 and 6 slots per entry.
        ring = resolve_context(Fraction(beta_sq))
        h = (2 * ring.beta_sq).as_integer_ratio()[1]
        assert h > 1
        for k, n in self.GRID:
            table = assert_table_equals_reference(k, n, ring)
        assert all(type(x) is list and len(x) == h
                   for row in table._rows[1:] for x in row)

    @pytest.mark.parametrize("precision", [64, 256, 1024])
    @pytest.mark.parametrize("beta_sq", [0.0, 0.35 ** 2, 0.45 ** 2,
                                         0.55 ** 2, 1 / 3, 0.09, 0.55, 1.21])
    def test_pair_loop_equals_callable_loop(self, beta_sq, precision):
        # At 0.09 and 64 bits, order 9's step formed as two_pow(81, 1)
        # rounds away from two_pow(81, -8) * 2^9, and this fails.
        ring = resolve_context(beta_sq, "float", precision)
        for k, n in self.GRID:
            table = assert_table_equals_reference(k, n, ring)
        assert all(type(x) is tuple and x[0] > 0 and x[0].bit_length()
                   <= precision for row in table._rows[1:] for x in row)

    def test_pair_add_far_below_stays_small(self, monkeypatch):
        # At beta^2 = 100.3 and 64 bits each split term falls at least
        # 2 i (j - i) beta^2 - log2 c > 190 bits below its step term, past
        # prec + 4: every sum is the step term, the mpf reference's to the
        # bit, and no int is as wide as the gap, only the at most 128 bits
        # of a product of two 64-bit mantissas.
        widths, round_pair = [], engine._round_pair
        monkeypatch.setattr(engine, "_round_pair", lambda man, exp, prec:
                            widths.append(man.bit_length())
                            or round_pair(man, exp, prec))
        assert_table_equals_reference(6, 20, resolve_context(100.3, "float",
                                                             64))
        assert len(widths) == 20 * sum(1 + 2 * (j // 2) for j in range(1, 7))
        assert 64 < max(widths) <= 128

    def test_pair_weights_are_keyed_by_precision(self, monkeypatch):
        # The raw beta^2 of a double is the same mpf at 256 and 1024 bits,
        # so only the precision in the key tells their weights apart:
        # 256, 1024, then 256 again (a cache hit), each against the mpf
        # reference.  A fresh cache, so that the hits are this test's.
        monkeypatch.setattr(engine, "_pair_weights", lru_cache(maxsize=128)(
            engine._pair_weights.__wrapped__))
        for precision in (256, 1024, 256):
            ring = resolve_context(0.45 ** 2, "float", precision)
            assert_table_equals_reference(8, 20, ring)
        raw = ring.beta_sq._mpf_
        assert raw == resolve_context(0.45 ** 2, "float", 1024).beta_sq._mpf_
        assert engine._pair_weights.cache_info().hits == 8
        assert (engine._pair_weights(8, raw, 256)
                != engine._pair_weights(8, raw, 1024))

    @pytest.mark.parametrize("ambient", [20, 53, 3000])
    def test_float_table_ignores_ambient_precision(self, ambient):
        # The table form carries its own precision, so the build enters no
        # precision context: built and read under any ambient mp.prec, each
        # entry is the one built and read at the ring's precision.
        def entries(ctx, prec):
            with mp.workprec(prec):
                table = MomentTable.build(8, 40, ctx)
                return [table.value(j, d)._mpf_
                        for j in range(1, 9) for d in range(41)]

        for precision in (64, 256, 1024):
            for beta_sq in (0.09, 0.3, 0.49, 0.55, 1.21):
                ctx = resolve_context(beta_sq, "float", precision)
                assert entries(ctx, ambient) == entries(ctx, precision), \
                    (precision, beta_sq)

    @pytest.mark.parametrize("beta_sq", [Fraction(b) for b in (
        "5/2", "2/7", "9/25", "3/2", "1/4", "3/8", "5/6", "1/12", 0, 1, 2)])
    def test_radical_rows_equal_radical_arithmetic(self, beta_sq,
                                                   monkeypatch):
        # a > m, root indices 1 to 25 and table slots h = 1 to 25, against
        # Radical arithmetic; the build itself must take no Radical product.
        ctx = resolve_context(beta_sq, "radical")
        for k, n in ((8, 30), (8, 0), (1, 30)):
            want = unscaled_table(k, n, ctx)
            calls = []
            for name in ("__mul__", "__rmul__"):
                inner = getattr(Radical, name)
                monkeypatch.setattr(Radical, name, lambda s, o, f=inner:
                                    calls.append(1) or f(s, o))
            table = MomentTable.build(k, n, ctx)
            monkeypatch.undo()
            assert calls == [], (k, n)
            assert {key: table.value(*key) for key in want} == want, (k, n)

    @pytest.mark.parametrize("kind, beta_sq, bits", [
        *(("rational", b, 0) for b in ("0", "1", "2", "4")),
        *(("radical", b, 0) for b in ("1/2", "1/3", "5/2", "9/25")),
        *(("float", b, bits) for b in ("0.09", "1.21") for bits in (64, 256))])
    def test_table_multipliers_equal_recurrence_coefficients(self, kind,
                                                             beta_sq, bits):
        # The loops' weights and ``recurrence_coefficients`` evaluate the
        # same ring-free terms; each weight must equal its coefficient
        # times 2^j in mpf, and times 2^j 2^(-j beta^2) in the exact rings,
        # in the table form, and the splits must come in the same order.
        beta_sq = float(beta_sq) if kind == "float" else Fraction(beta_sq)
        ring = resolve_context(beta_sq, kind, bits or 256)
        g, h = (2 * beta_sq).as_integer_ratio()

        def table_form(value, j):
            if isinstance(ring, FloatContext):
                _, man, exp, _ = value._mpf_
                return man, exp + j
            value = value * 2 ** j * ring.two_pow(-j, 0)
            cs = value.coeffs if isinstance(value, Radical) else (value,)
            cs += (0,) * (ring.m - len(cs))
            assert all(c.denominator == 1 for c in cs)
            # Z[2^(1/h)] sits in Q(2^(1/m)) on the slots i m/h.
            step = ring.m // h
            assert not any(c for i, c in enumerate(cs) if i % step)
            slots = [int(c) for c in cs[::step]]
            return slots[0] if h == 1 else slots

        for j in range(1, 13):
            with ring.workprec():
                step, weights = recurrence_coefficients(j, ring)
            s, terms = recurrence_terms(j)
            if kind == "float":  # the pair loop's weights
                s, pairs = engine._pair_weights(j, ring.beta_sq._mpf_, bits)
                got = [(i, (m, e)) for i, m, e in ((0, *s), *pairs)]
            else:  # the int and slot loops': the int w at slot offset r
                (shift, r), ints = engine._exact_weights(j, g, h)
                got = []
                for i, w, r in ((0, 1 << shift, r), *ints):
                    slots = [0] * h
                    slots[r] = w
                    got.append((i, slots[0] if h == 1 else slots))
            assert [i for i, _, _ in terms] == [i for i, _ in weights]
            assert got == [(i, table_form(w, j))
                           for i, w in [(0, step), *weights]], j

    def test_cached_terms_are_shared_and_immutable(self):
        # Cached per process, so every caller gets the same value:
        # tuples all the way down, which no caller can change; and each
        # weight cache is bounded.
        raw = resolve_context(0.3, "float", 1024).beta_sq._mpf_
        for j in range(1, 13):
            for cached, again in ((recurrence_terms(j), recurrence_terms(j)),
                                  (engine._exact_weights(j, 2, 1),
                                   engine._exact_weights(j, 2, 1)),
                                  (engine._pair_weights(j, raw, 1024),
                                   engine._pair_weights(j, raw, 1024))):
                assert cached is again
                hash(cached)
                with pytest.raises(TypeError):
                    cached[1][0] = None
        for cache in (engine._exact_weights, engine._pair_weights):
            assert 0 < cache.cache_info().maxsize <= 128

    def test_value_types(self):
        # The table runs on ints; none may leave it.
        assert type(mom_dp(2, 3, 1)) is Fraction
        assert type(mom_dp(2, 3, 0)) is Fraction
        for beta_sq in (0, 1, 4):
            table = MomentTable.build(3, 2, resolve_context(beta_sq))
            assert all(type(table.value(j, 0)) is Fraction
                       for j in (1, 2, 3))
        x = mom_dp(3, 5, Fraction(1, 3))
        assert x.coeffs and all(type(c) is Fraction for c in x.coeffs)
        assert x * x.inverse() == 1
        table = MomentTable.build(2, 1, resolve_context(Fraction(1, 2)))
        assert type(table.value(2, 0).coeffs[0]) is Fraction
        for precision in (64, 300):
            v = mom_dp(2, 5, 0.49, precision)
            assert isinstance(v, mpmath.mpf)
            assert v._mpf_[3] <= precision
        assert v._mpf_[3] > 256

    @pytest.mark.parametrize("beta_sq, ring, slots", [
        ("1/2", "auto", 1), ("3/2", "auto", 1), ("2", "auto", 1),
        ("1", "radical", 1), ("1/4", "auto", 2), ("3/8", "auto", 4),
        ("1/3", "auto", 3)])
    def test_exact_entries_take_h_slots(self, beta_sq, ring, slots):
        # Entries are in Z[2^(1/h)], 2 beta^2 = g/h: one int at h = 1,
        # else h ints.  Entries on m slots would read the same values,
        # only slower, so this pins the form.
        table = MomentTable.build(4, 6, resolve_context(Fraction(beta_sq),
                                                        ring))
        for row in table._rows[1:]:
            for x in row:
                if slots == 1:
                    assert type(x) is int
                else:
                    assert type(x) is list and len(x) == slots
                    assert all(type(v) is int for v in x)

    @pytest.mark.parametrize("shift", [1, -1, -2])
    @pytest.mark.parametrize("beta_sq", [1, Fraction(1, 2), Fraction(1, 3)])
    def test_exponent_off_the_parity_lattice_raises(self, beta_sq, shift,
                                                    monkeypatch):
        # An odd power of t, or one below t^j, has no exact multiplier
        # in Z[2^(2 beta^2)]; it must raise, never floor: in the int loop
        # (h = 1) and the slot loop (1/3, h = 3).
        terms = engine.recurrence_terms

        def shifted(j):
            step, splits = terms(j)
            return step, [(i, c, ExpPair(e.p + shift, e.q))
                          for i, c, e in splits]
        monkeypatch.setattr(engine, "recurrence_terms", shifted)
        # The exact loops' weights are cached per (j, g, h): a fresh cache
        # for the patch, so no weight of the true terms is served from it.
        monkeypatch.setattr(engine, "_exact_weights", lru_cache(
            maxsize=None)(engine._exact_weights.__wrapped__))
        with pytest.raises(ArithmeticError):
            MomentTable.build(3, 4, resolve_context(beta_sq))

    @pytest.mark.parametrize("beta_sq", [1, Fraction(1, 2), 0.25])
    def test_value_outside_table_raises(self, beta_sq):
        table = MomentTable.build(2, 3, resolve_context(beta_sq))
        for j, depth in ((2, -1), (0, 1), (3, 1), (2, 4)):
            with pytest.raises(LookupError):
                table.value(j, depth)

    @pytest.mark.parametrize("beta_sq", [-1, Fraction(-1, 2), -0.25])
    def test_refuses_negative_beta_sq(self, beta_sq):
        # The scaled table is integral only for beta^2 >= 0.
        with pytest.raises(ValueError, match="beta\\^2 must be nonneg"):
            MomentTable.build(2, 3, resolve_context(beta_sq))


@lru_cache(maxsize=None)
def lambda_sum_symbolic(k):
    """The k-th moment over Q(t) by structural induction on the lam-sum:
    each product of lower-order closed forms is pushed through the sum
    over the last common level lam by ``geometric_sum``.  Test-only
    reference for the closed form of the depth recurrence."""
    ctx = SymbolicContext()
    if k == 1:
        return GenPoly({ExpPair(1, 0): ctx.one})
    diag = ExpPair(k * k, 1 - k)
    total = {diag: ctx.one}
    pref = ctx.two_pow(k * k, -k)
    for j in range(1, k):
        weight = pref * RatFun((comb(k, j),), (0,) * (2 * j * (k - j)) + (1,))
        product = lambda_sum_symbolic(j) * lambda_sum_symbolic(k - j)
        for e, c in product.items():
            # sum over lam of 2^(diag*lam) * 2^(e*(n-lam-1))
            #   = 2^(-e) * (geometric sum with step diag-e) * 2^(e*n)
            shift = ctx.two_pow(-e.p, -e.q) * c * weight
            shifted = geometric_sum(ExpPair(diag.p - e.p, diag.q - e.q)) * \
                GenPoly({e: shift})
            for e2, c2 in shifted.terms.items():
                total[e2] = total[e2] + c2 if e2 in total else c2
    return GenPoly(total)


def closed_form_value(form, ring, n):
    """Sum over the terms of a closed form of P(n) * base^n, in ``ring``."""
    total = ring.zero
    for e, coeffs in form.values():
        poly = sum((c * n ** d for d, c in enumerate(coeffs)), ring.zero)
        total = total + poly * ring.two_pow(e.p * n, e.q * n)
    return total


CLOSED_FORM_BETA_SQ = [1, 4, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                       Fraction(1, 5), Fraction(2, 3), Fraction(1, 8)]


class TestClosedForms:
    @pytest.mark.parametrize("beta_sq", CLOSED_FORM_BETA_SQ)
    def test_equals_dp_exactly(self, beta_sq):
        # beta^2 = 1/m is critical for order m: its forms carry n^d 2^n
        # terms (resonances), checked here like every other term.
        ring = resolve_context(beta_sq)
        forms = _closed_forms(8, ring)
        table = MomentTable.build(8, 9, ring)
        for j in range(1, 9):
            for n in range(10):
                assert closed_form_value(forms[j], ring, n) == \
                    table.value(j, n), (beta_sq, j, n)

    def test_critical_term_is_exact(self):
        # k = 3 at beta^2 = 1/3: the n 2^n coefficient in Q(2^(1/3))
        ring = resolve_context(Fraction(1, 3))
        _, coeffs = _closed_forms(3, ring)[3][ring.two_pow(0, 1)]
        assert len(coeffs) == 2
        assert coeffs[1] == Radical(3, [Fraction(3, 4)] * 3)

    def test_critical_coefficients_match_recursion(self):
        # Two derivations: the exact resonant term of the closed form and
        # the mpf recursion on the step and pair weights.
        tol = mpmath.mpf(2) ** -240
        for k in range(2, 9):
            ring = resolve_context(Fraction(1, k))
            form = _closed_forms(k, ring)[k]
            # nothing grows faster than the critical n 2^n
            assert max(e.value_at(ring.beta_sq) for e, _ in form.values()) \
                == 1
            _, coeffs = form[ring.two_pow(0, 1)]
            assert len(coeffs) == 2
            want = critical_coefficient(k, 256)
            with mp.workprec(256):
                got = to_mpf(coeffs[1], 256)
                assert abs(got - want) <= tol * want, k

    @pytest.mark.parametrize("beta_sq", [2, Fraction(1, 3), 0.3])
    def test_one_power_per_forcing_exponent(self, beta_sq, monkeypatch):
        # The products of lower-order terms repeat their exponents; each
        # distinct ExpPair's power is evaluated once per solve.  The
        # recurrence coefficients come from a second, uncounted ring.
        ring, plain = resolve_context(beta_sq), resolve_context(beta_sq)
        monkeypatch.setattr(engine, "recurrence_coefficients",
                            lambda j, _: recurrence_coefficients(j, plain))
        keys, inner = [], ring.two_pow
        monkeypatch.setattr(ring, "two_pow", lambda p, q:
                            keys.append(ExpPair(p, q)) or inner(p, q))
        _closed_forms(6, ring)
        assert keys and len(keys) == len(set(keys))

    def test_float_ring_matches_symbolic(self):
        # Away from a pole every base of the mpf closed form carries the
        # Q(t) coefficient of its exponent, evaluated at t = 2^(beta^2).
        for k, beta_sq in ((3, 0.3), (4, 0.41), (5, 1.7)):
            ring = resolve_context(beta_sq, "float", 256)
            form = _closed_forms(k, ring)[k]
            terms = mom_symbolic(k).terms
            assert {e for e, _ in form.values()} == set(terms)
            with mp.workprec(256):
                t = ring.two_pow(1, 0)
                for e, (c,) in form.values():
                    want = truediv(*terms[e].evaluate_parts(t))
                    assert abs(c - want) <= abs(want) * mpmath.mpf(2) ** -240, \
                        (k, beta_sq, e)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_symbolic_equals_lambda_sum(self, k):
        assert mom_symbolic(k) == lambda_sum_symbolic(k)

    @pytest.mark.slow
    def test_symbolic_equals_lambda_sum_order_six(self):
        assert mom_symbolic(6) == lambda_sum_symbolic(6)

    def test_no_route_calls_symbolic(self, run):
        # Every ring solves the closed form itself; the Q(t) form is a
        # library function and a test reference only.
        mom_symbolic.cache_clear()
        mom_polynomial(5, 2)
        supercritical_coefficient(5, Fraction(1, 2))
        supercritical_coefficient(5, 0.81)
        for argv in (["asym", "--k", "5", "--beta", "0.9"],
                     ["asym", "--k", "6", "--beta", "0.4472135956117614"],
                     ["sweep", "--k", "5", "--beta-min", "0.1",
                      "--beta-max", "1.2", "--steps", "12"],
                     ["verify", "--suite", "closedform"]):
            assert run(*argv)[0] == 0, argv
        assert mom_symbolic.cache_info().misses == 0


# sha-256 of repr(mom_symbolic(k)), recorded from the Fraction-based Q(t)
# arithmetic.  RatFun's form is a normal form, so any correct gcd and
# division keep every byte.
MOM_SYMBOLIC_SHA256 = {
    1: "e4655e8a48a99096b433ae8d195abe506b60b91ba3312cd024de20030ed58c9a",
    2: "ae96042ee290def425b9c2311b2a1e60cc28bdedac5b8a234919ab8dcdb72989",
    3: "4f71b6b94d1ebc7d0e833d2d8639547130797b1cf858d068381efdd1da49a034",
    4: "addb439cb30dd478d8ea147f5e0577d72d32a03dbbe3eb1a126f1fbc21674c49",
    5: "8eb50fc7af891d83011b30b1af8c1ab165b3e1305627b07253bd0cf3267a5c32",
    6: "7fed9013c34e46a3fc20f56f7a8d6a8f74b17070aa3aa53e9da8021d3690dd35",
    7: "fbfd9f0b0c1346769d5300c1a6f74e0dd2911993a0157f11cf507bf20389f76c",
}


class TestMomSymbolic:
    def test_first_moment_single_term(self):
        g = mom_symbolic(1)
        assert g.terms == {ExpPair(1, 0): SymbolicContext.one}

    def test_second_moment_terms(self):
        g = mom_symbolic(2)
        assert g.terms[ExpPair(4, -1)] == rf([-1, 0, 1], [-2, 0, 1])
        assert g.terms[ExpPair(2, 0)] == rf([-1], [-2, 0, 1])
        assert len(g) == 2

    def test_third_moment_terms(self):
        # worked k=3 closed form: coefficients of 2^((9b-2)n), 2^((5b-1)n),
        # and 2^(3bn)
        g = mom_symbolic(3)
        one = SymbolicContext.one
        lead = one + rf([-6, 0, 0, 0, 0, 0, 3]) / (
            rf([-2, 0, 0, 0, 1]) * rf([-4, 0, 0, 0, 0, 0, 1]))
        mid = rf([3], [1]) * -(rf([-1, 0, 1])) / (
            rf([-2, 0, 0, 0, 1]) * rf([-2, 0, 1]))
        low = rf([0, 0, 3]) / (rf([-4, 0, 0, 0, 0, 0, 1]) * rf([-2, 0, 1]))
        assert g.terms[ExpPair(9, -2)] == lead
        assert g.terms[ExpPair(5, -1)] == mid
        assert g.terms[ExpPair(3, 0)] == low

    def test_depth_zero_normalization(self):
        # every moment equals 1 at depth 0, so the coefficients sum to 1
        for k in (2, 3, 4, 5):
            terms = mom_symbolic(k).terms.values()
            assert sum(terms, RatFun(())) == SymbolicContext.one

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_dp_exactly_at_integer_beta(self, k):
        for n in range(8):
            assert evaluate_genpoly(mom_symbolic(k), 1, n) == mom_dp(k, n, 1)

    def test_matches_dp_at_float_beta(self):
        for k in (2, 3, 4, 5):
            for bs in (0.1, 0.3, 0.9, 1.7):
                for n in (0, 1, 5, 12):
                    sv = evaluate_genpoly(mom_symbolic(k), bs, n)
                    dv = mom_dp(k, n, bs)
                    assert abs(sv - dv) / dv < mpmath.mpf(1e-10), (k, bs, n)

    def test_cross_check_k3_beta1_depth2(self):
        assert evaluate_genpoly(mom_symbolic(3), 1, 2) == mom_dp(3, 2, 1)

    @pytest.mark.parametrize("k,beta_sq", [
        (6, Fraction(1, 5)), (6, Fraction(2, 5)), (6, Fraction(1, 2)),
        *(pytest.param(7, b, marks=pytest.mark.slow)
          for b in (Fraction(1, 6), Fraction(2, 5), Fraction(1, 2)))])
    def test_dominant_coefficient_matches_radical_route(self, k, beta_sq):
        # The float route's coefficient, reduced over Q(t), at the exact
        # t = 2^(beta^2) against the closed form solved in Q(2^(1/m)).
        # At a pole of a lower order (beta^2 = 1/5 for order 5) a core
        # that the reduction failed to cancel raises ZeroDivisionError.
        coeff = mom_symbolic(k).terms[ExpPair(k * k, 1 - k)]
        t = RadicalContext(beta_sq).two_pow(1, 0)
        assert truediv(*coeff.evaluate_parts(t)) == \
            supercritical_coefficient(k, beta_sq)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_repr_is_pinned(self, k):
        digest = hashlib.sha256(repr(mom_symbolic(k)).encode()).hexdigest()
        assert digest == MOM_SYMBOLIC_SHA256[k]


class TestEvaluateGenpoly:
    def test_depth_zero_is_one(self):
        for k in (1, 2, 3, 4):
            assert evaluate_genpoly(mom_symbolic(k), 1, 0) == 1
            assert evaluate_genpoly(mom_symbolic(k), Fraction(2, 3), 0) == \
                Radical(3, (1,))
            v = evaluate_genpoly(mom_symbolic(k), 0.41, 0)
            assert abs(v - 1) < mpmath.mpf(1e-60)

    def test_pole_at_critical_rational(self):
        with pytest.raises(PoleAtCriticalBeta):
            evaluate_genpoly(mom_symbolic(2), Fraction(1, 2), 4)

    def test_pole_at_critical_float(self):
        with pytest.raises(PoleAtCriticalBeta):
            evaluate_genpoly(mom_symbolic(2), 0.5, 4)

    def test_exact_radical_value_off_pole(self):
        # beta^2 = 1/3 is generic for k=2: exact value in Q(2^(1/3))
        v = evaluate_genpoly(mom_symbolic(2), Fraction(1, 3), 2)
        d = mom_dp(2, 2, Fraction(1, 3))
        assert v == d


def with_power_of_n(form, base):
    e, coeffs = form[base]
    return {**form, base: (e, coeffs + (Fraction(1),))}


def without_base(form, base):
    return {b: term for b, term in form.items() if b != base}


def negated(form, base):
    e, (c,) = form[base]
    return {**form, base: (e, (-c,))}


class TestMomPolynomial:
    def test_second_moment_coefficients(self):
        poly = mom_polynomial(2, 1)
        assert poly.rows() == [(3, Fraction(3, 2)), (2, Fraction(-1, 2))]

    def test_first_moment_is_pure_power(self):
        poly = mom_polynomial(1, 3)
        assert poly.rows() == [(9, Fraction(1))]

    def test_matches_dp_on_grid(self):
        poly = mom_polynomial(3, 1)
        for n in range(8):
            value = sum(c * 2 ** (d * n) for d, c in poly.coefficients.items())
            assert value == mom_dp(3, n, 1)

    @pytest.mark.parametrize("k,beta", [(1, 1), (1, 2), (2, 1), (2, 2),
                                        (3, 1), (4, 1), (3, 2)])
    def test_degree_law_and_positivity(self, k, beta):
        poly = mom_polynomial(k, beta)
        assert poly.degree == k * k * beta * beta - k + 1
        assert poly.leading_coefficient > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            mom_polynomial(2, 0)

    # Each perturbs the order-k form at its dominant base
    # 2^(k^2 beta^2 + 1 - k); at k = 3, beta = 1 the next base is 2^4.
    @pytest.mark.parametrize("perturb, message", [
        (with_power_of_n,
         r"term n\^1 2\^\(7 n\) is not a term of a polynomial in 2\^n"),
        (without_base, "degree 4 != expected 7"),
        (negated, "leading coefficient must be positive"),
    ], ids=["power-of-n", "dominant-base-removed", "leading-negated"])
    def test_self_checks_can_fail(self, monkeypatch, perturb, message):
        def perturbed(k, ring):
            forms = _closed_forms(k, ring)
            top = ring.two_pow(k * k, 1 - k)
            return forms[:k] + [perturb(forms[k], top)]

        monkeypatch.setattr(engine, "_closed_forms", perturbed)
        with pytest.raises(ArithmeticError, match=message):
            mom_polynomial(3, 1)


class TestBetaSignSymmetry:
    def test_dp_depends_only_on_beta_squared(self):
        # the API takes beta^2; squaring either sign lands identically
        assert mom_dp(2, 5, 0.7 * 0.7) == mom_dp(2, 5, (-0.7) * (-0.7))
        assert mom_dp(3, 4, 1.2 * 1.2) == mom_dp(3, 4, (-1.2) * (-1.2))

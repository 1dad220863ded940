from fractions import Fraction
from itertools import product

import pytest

from brwmom import EnumerationBudgetError, Radical, mom_bruteforce, mom_dp
from brwmom.rings import resolve_context


def last_common_level(a: int, b: int, depth: int) -> int:
    """Length of the common prefix of two n-bit leaf labels: the tree
    level of the deepest node having both leaves as descendants, so a leaf
    shares all ``depth`` levels with itself.  The oracle computes it
    inline; this checked copy is the tests' reference."""
    for label in (a, b):
        if not 0 <= label < 1 << depth:
            raise ValueError(f"label {label} out of range for depth {depth}")
    return depth - (a ^ b).bit_length()


def per_tuple_bruteforce(k, n, ctx):
    """The oracle as it was before its powers were shared: a fresh
    two_pow for every tuple, kept only as the reference for the sum."""
    with ctx.workprec():
        total = ctx.zero
        for labels in product(range(1 << n), repeat=k):
            shared = 0
            for i in range(k):
                for j in range(i + 1, k):
                    shared += last_common_level(labels[i], labels[j], n)
            total = total + ctx.two_pow(k * n + 2 * shared, 0)
        return total * ctx.two_pow(0, -k * n)


class TestLastCommonLevel:
    def test_differ_in_last_bit(self):
        assert last_common_level(0b010, 0b011, 3) == 2

    def test_split_at_root(self):
        assert last_common_level(0b000, 0b111, 3) == 0

    def test_identical_leaves(self):
        assert last_common_level(9, 9, 4) == 4

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            last_common_level(8, 0, 3)


class TestBruteForce:
    def test_two_leaf_hand_count(self):
        # depth 1, k=2: tuples (0,0),(1,1) give 2^4 each, (0,1),(1,0) 2^2
        assert mom_bruteforce(2, 1, 1) == Fraction(2 * 16 + 2 * 4, 4)

    def test_first_moment_pure_growth(self):
        for n in range(4):
            assert mom_bruteforce(1, n, 4) == Fraction(2) ** (4 * n)

    def test_beta_zero(self):
        assert mom_bruteforce(3, 2, 0) == 1

    def test_radical_ring(self):
        v = mom_bruteforce(2, 2, Fraction(1, 2))
        assert v == Radical(2, (8,))

    def test_budget_enforced(self):
        with pytest.raises(EnumerationBudgetError):
            mom_bruteforce(3, 6, 1)
        mom_bruteforce(3, 6, 1, budget=18)  # raised budget allows it

    def test_exchangeability(self):
        # tuple order cannot matter: sum over a permuted enumeration agrees
        n, k, beta_sq = 2, 3, 1
        total = Fraction(0)
        for labels in product(range(1 << n), repeat=k):
            perm = tuple(labels[i] for i in (2, 0, 1))
            shared = sum(last_common_level(perm[i], perm[j], n)
                         for i in range(k) for j in range(i + 1, k))
            total += Fraction(2) ** (beta_sq * (k * n + 2 * shared))
        assert total / Fraction(2) ** (k * n) == mom_bruteforce(k, n, beta_sq)

    def test_diagonal_tuples_sum_to_diagonal_term(self):
        # all-equal tuples alone contribute 2^((k^2 b - k + 1) n)
        k, n, b = 3, 2, 1
        diag = sum(Fraction(2) ** (b * (k * n + 2 * 3 * n))
                   for _ in range(1 << n)) / Fraction(2) ** (k * n)
        assert diag == Fraction(2) ** ((k * k * b - k + 1) * n)

    @pytest.mark.parametrize("beta_sq", [2, Fraction(1, 2), 0.3])
    def test_one_power_per_shared_count(self, beta_sq, monkeypatch):
        # S runs over 0..k(k-1)n/2, so k = 3, n = 4 has 13 powers of the
        # tuples and one for the average, against 4096 tuples.
        k, n = 3, 4
        want = per_tuple_bruteforce(k, n, resolve_context(beta_sq))
        context_type, calls = type(resolve_context(beta_sq)), []
        inner = context_type.two_pow
        monkeypatch.setattr(context_type, "two_pow", lambda s, p, q:
                            calls.append((p, q)) or inner(s, p, q))
        got = mom_bruteforce(k, n, beta_sq)
        assert len(calls) <= 3 * n + 2
        if isinstance(beta_sq, float):
            assert got._mpf_ == want._mpf_
        else:
            assert got == want


class TestOracleAgainstEngine:
    @pytest.mark.parametrize("beta", [1, 2])
    def test_exact_agreement(self, beta):
        for k in (1, 2, 3):
            for n in range(5):
                assert mom_dp(k, n, beta * beta) == \
                    mom_bruteforce(k, n, beta * beta)

    @pytest.mark.parametrize("beta_sq", [0.09, 0.64])
    def test_float_agreement(self, beta_sq):
        for k in (1, 2, 3):
            for n in range(5):
                dp = mom_dp(k, n, beta_sq)
                bf = mom_bruteforce(k, n, beta_sq)
                assert abs(dp - bf) / bf < 1e-10

    def test_higher_order_small_depth(self):
        for k in (4, 5):
            for n in (1, 2, 3):
                if k * n > 16:
                    continue
                assert mom_dp(k, n, 1) == mom_bruteforce(k, n, 1)

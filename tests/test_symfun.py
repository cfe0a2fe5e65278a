import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import pytest

import meanstream as ms
from meanstream.errors import DomainError, MissingGamma
from meanstream.symfun import subset_sum_closure
from inputs import SEED, random_vector


def brute_gamma(xs, exponents):
    """Distinct-index multi-power sum by direct enumeration."""
    total = 0
    for idx in permutations(range(len(xs)), len(exponents)):
        term = 1
        for i, p in zip(idx, exponents):
            term *= xs[i] ** p
        total += term
    return total


def make_table(xs, exponents):
    return ms.power_sums(xs, sorted(subset_sum_closure(exponents)))


class TestPowerSums:
    def test_hand_values(self):
        t = ms.power_sums([1, 2, 3], [1, 2])
        assert t.gamma(1) == 6
        assert t.gamma(2) == 14

    def test_single_element(self):
        t = ms.power_sums([5.0], [3])
        assert t.gamma(3) == 125.0

    def test_zero_exponent_counts(self):
        assert ms.power_sums([1, 2, 3], [0]).gamma(0) == 3.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ms.power_sums([1.0, -2.0], [1])
        with pytest.raises(DomainError):
            ms.power_sums([], [1])


class TestSubsetSumClosure:
    def test_matches_enumeration(self):
        for exps in ((1, 1, 1, 1), (Fraction(1, 2), Fraction(1, 3), 2),
                     (0.5, 0.25, 0.5, 3.0), (-1, 2, -1)):
            want = {sum(c) for k in range(1, len(exps) + 1)
                    for c in combinations(exps, k)}
            assert subset_sum_closure(exps) == want

    def test_limit(self):
        assert subset_sum_closure((1,) * 12) == set(range(1, 13))
        with pytest.raises(ValueError):
            subset_sum_closure((1,) * 13)


class TestGammaMulti:
    def test_pair_example(self):
        table = make_table([1, 2, 3], (1, 1))
        assert ms.gamma_multi(ms.ExponentMultiset((1, 1)), table) == 22.0

    def test_mixed_pair_example(self):
        table = make_table([1, 2], (1, 2))
        assert ms.gamma_multi(ms.ExponentMultiset((1, 2)), table) == 6.0

    def test_singleton_base_case(self):
        table = make_table([2, 5], (3,))
        assert ms.gamma_multi(ms.ExponentMultiset((3,)), table) == 8 + 125

    def test_missing_gamma(self):
        table = ms.power_sums([1, 2], [1])
        with pytest.raises(MissingGamma):
            ms.gamma_multi(ms.ExponentMultiset((1, 1)), table)

    def test_exponent_order_irrelevant(self):
        xs = [1.5, 2.0, 3.0, 4.5]
        for perm in permutations((1, 2, 3)):
            table = make_table(xs, perm)
            value = ms.gamma_multi(ms.ExponentMultiset(perm), table)
            assert value == pytest.approx(brute_gamma(xs, [1, 2, 3]), rel=1e-12)

    def test_expansion_budget(self):
        # each memoized expansion looks up one power sum; the expansions stay
        # within the 3^s subset-sum closure bound
        class CountingDict(dict):
            lookups = 0

            def __getitem__(self, q):
                CountingDict.lookups += 1
                return super().__getitem__(q)

        for s in (2, 3, 4):
            exps = tuple(range(1, s + 1))
            table = make_table([1, 2, 3, 4, 5], exps)
            counted = ms.GammaTable(CountingDict(table.values), table.n)
            CountingDict.lookups = 0
            got = ms.gamma_multi(ms.ExponentMultiset(exps), counted)
            assert got == ms.gamma_multi(ms.ExponentMultiset(exps), table)
            assert 0 < CountingDict.lookups <= 3 ** s


class TestSigma:
    def test_e2_example(self):
        table = make_table([1, 2, 3], (1, 1))
        assert ms.sigma_from_power(2, 1, table) == 11.0

    def test_e3_example(self):
        table = make_table([1, 2, 3], (1, 1, 1))
        assert ms.sigma_from_power(3, 1, table) == 6.0

    def test_s1_is_gamma(self):
        table = ms.power_sums([2.0, 3.0], [0.5])
        assert ms.sigma_from_power(1, 0.5, table) == table.gamma(0.5)

    def test_zero_below_element_count(self):
        table = make_table([4.0], (1, 1))
        assert ms.sigma_from_power(2, 1, table) == 0.0


class TestOracleEquivalence:
    def test_integer_inputs_exact(self):
        # every n <= 8; exhaustive value multisets for small n, seeded sample
        # beyond; integer arithmetic must agree exactly with brute force
        rng = random.Random(SEED)
        exponent_sets = [
            es for size in range(1, 5)
            for es in combinations_with_replacement((1, 2, 3), size)
        ]
        for n in range(1, 9):
            if n <= 3:
                vectors = list(combinations_with_replacement(range(1, 7), n))
            else:
                vectors = [[rng.randint(1, 6) for _ in range(n)] for _ in range(12)]
            for xs in vectors:
                xs = [int(v) for v in xs]
                for exps in exponent_sets:
                    table = make_table(xs, exps)
                    got = ms.gamma_multi(ms.ExponentMultiset(exps), table)
                    assert got == float(brute_gamma(xs, exps))

    def test_real_exponents(self):
        rng = random.Random(42)
        exps = (Fraction(1, 2), Fraction(1, 3), 2)
        for _ in range(25):
            xs = random_vector(rng, 2, 8, 0.5, 6.0)
            for size in (2, 3):
                sub = exps[:size]
                table = make_table(xs, sub)
                got = ms.gamma_multi(ms.ExponentMultiset(sub), table)
                want = brute_gamma(xs, [float(e) for e in sub])
                assert got == pytest.approx(want, rel=1e-10)

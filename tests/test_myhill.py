import pytest

import meanstream as ms
from meanstream import myhill
from meanstream.errors import BudgetExceeded, InsufficientData

ALPHABET = [0.0, 1.0, 2.0]


def arithmetic():
    return ms.quasi_arithmetic("identity")


def refuse(iterable, r):
    """A stand-in for myhill.combinations_with_replacement: a count checked
    only after enumerating would fail here at once, not exhaust memory."""
    raise AssertionError(f"enumerated words of length {r}")


class TestEnumerateClasses:
    def test_arithmetic_counts_are_2n_plus_1(self):
        profile = ms.enumerate_classes(arithmetic(), ALPHABET, 8)
        assert profile.counts == [2 * n + 1 for n in range(1, 9)]

    def test_median_exceeds_linear_from_3(self):
        profile = ms.enumerate_classes(ms.median_mean("lower"), ALPHABET, 8)
        for n, count in zip(range(1, 9), profile.counts):
            if n >= 3:
                assert count > 2 * n + 1

    def test_singleton_alphabet(self):
        profile = ms.enumerate_classes(arithmetic(), [1.0], 6)
        assert profile.counts == [1] * 6

    def test_refinement_monotone_in_probes(self):
        few = ms.default_probes(ALPHABET, 1, two_sided=False)
        many = ms.default_probes(ALPHABET, 2)
        small = ms.enumerate_classes(ms.median_mean("lower"), ALPHABET, 6,
                                     probes=few)
        large = ms.enumerate_classes(ms.median_mean("lower"), ALPHABET, 6,
                                     probes=many)
        for a, b in zip(small.counts, large.counts):
            assert b >= a

    def test_halving_tolerance_never_decreases_counts(self):
        coarse = ms.enumerate_classes(arithmetic(), ALPHABET, 6,
                                      atol=1e-6, rtol=1e-6)
        fine = ms.enumerate_classes(arithmetic(), ALPHABET, 6,
                                    atol=5e-7, rtol=5e-7)
        for a, b in zip(coarse.counts, fine.counts):
            assert b >= a

    def test_alphabet_outside_domain(self):
        with pytest.raises(ValueError):
            ms.enumerate_classes(ms.power_mean(1.0), [0.0, 1.0], 4)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(myhill, "EVALUATION_BUDGET", 10)
        with pytest.raises(BudgetExceeded):
            ms.enumerate_classes(arithmetic(), ALPHABET, 4)

    def test_budget_is_checked_before_the_first_evaluation(self, monkeypatch):
        # witness: 1,286 words x 6,188 = 7,957,768 evaluations of lengths
        # 1-8 ran before the budget refused length 9
        alphabet = [1.0, 2.0, 3.0, 4.0, 5.0]
        probes = ms.default_probes(alphabet, 6)
        calls = []
        counted = ms.FunctionMean(lambda xs: calls.append(xs) or max(xs),
                                  ms.DomainInterval.positive(), "counted")
        monkeypatch.setattr(myhill, "combinations_with_replacement", refuse)
        with pytest.raises(BudgetExceeded,
                           match="^would exceed 10000000 evaluations$"):
            ms.enumerate_classes(counted, alphabet, 10, probes=probes)
        assert calls == []


    def test_budget_counts_every_evaluation(self, monkeypatch):
        # 3 + 6 + 10 + 15 words of lengths 1-4, each with 34 probes
        monkeypatch.setattr(myhill, "EVALUATION_BUDGET", 34 * 35)
        ms.enumerate_classes(arithmetic(), ALPHABET, 4)
        monkeypatch.setattr(myhill, "EVALUATION_BUDGET", 34 * 35 - 1)
        with pytest.raises(BudgetExceeded):
            ms.enumerate_classes(arithmetic(), ALPHABET, 4)


class TestDefaultProbes:
    def test_budget_counts_every_probe(self, monkeypatch):
        monkeypatch.setattr(myhill, "EVALUATION_BUDGET", 34)
        assert len(ms.default_probes(ALPHABET, 2)) == 34
        monkeypatch.setattr(myhill, "EVALUATION_BUDGET", 33)
        with pytest.raises(BudgetExceeded, match="^34 probes would exceed"):
            ms.default_probes(ALPHABET, 2)

    def test_repeated_letters_count_once(self, monkeypatch):
        # witness: the budget counted C(2 + 3, 3) - 1 = 9 probes over
        # 1, 1, 2 and built [1.0] twice and [1.0, 1.0] three times
        monkeypatch.setattr(myhill, "EVALUATION_BUDGET", 5)
        assert ms.default_probes([2.0, 1.0, 1.0], 1) == [
            [1.0], [2.0], [1.0, 1.0], [1.0, 2.0], [2.0, 2.0]]

    def test_negative_length(self):
        # witness: -1 returned no probes, as 0 does
        with pytest.raises(ValueError,
                           match="^max_probe_len must be non-negative, got -1$"):
            ms.default_probes(ALPHABET, -1)

    def test_count_over_the_budget_builds_no_probe(self, monkeypatch):
        # witness: 5 letters and length 40 built C(85, 5) - 1 probes
        monkeypatch.setattr(myhill, "combinations_with_replacement", refuse)
        with pytest.raises(BudgetExceeded, match="^32801516 probes would "
                                                 "exceed 10000000 evaluations$"):
            ms.default_probes([1.0, 2.0, 3.0, 4.0, 5.0], 40)


class TestStateCountBound:
    def test_myhill_count_never_exceeds_state_count(self):
        for d in (arithmetic(), ms.gini(2.0, 1.0)):
            alphabet = ALPHABET if d.domain.contains(0.0) else [1.0, 2.0, 3.0]
            profile = ms.enumerate_classes(d, alphabet, 6)
            states = ms.state_counts(d, alphabet, 6)
            for classes, reachable in zip(profile.counts, states):
                assert classes <= reachable


class TestGrowthReport:
    def test_arithmetic_bounded_linear(self):
        profile = ms.enumerate_classes(arithmetic(), ALPHABET, 8)
        assert ms.growth_report(profile)["classification"] == "bounded-linear"

    def test_median_superlinear(self):
        profile = ms.enumerate_classes(ms.median_mean("lower"), ALPHABET, 8)
        assert ms.growth_report(profile)["classification"] == "superlinear"

    def test_singleton_bounded_linear(self):
        profile = ms.enumerate_classes(arithmetic(), [1.0], 6)
        assert ms.growth_report(profile)["classification"] == "bounded-linear"

    def test_count_at_the_threshold_is_bounded_linear(self):
        # the fit on (1, 64), (2, 116) predicts 220 at length 4, and 264 is
        # not more than 1.2 x 220; witness: np.polyfit predicted
        # 219.99999999999994 and called it superlinear
        profile = ms.ClassProfile("w", [1.0], 4, [], [64, 116, 141, 264],
                                  1e-12, 1e-9)
        report = ms.growth_report(profile)
        assert report["classification"] == "bounded-linear"
        assert report["fit"].endswith("predicts 220.0 at length 4, observed 264")

    def test_insufficient_data(self):
        profile = ms.enumerate_classes(arithmetic(), ALPHABET, 3)
        with pytest.raises(InsufficientData):
            ms.growth_report(profile)

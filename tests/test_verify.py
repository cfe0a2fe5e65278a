import math
import random

import pytest

import meanstream as ms
from meanstream.core import DomainInterval
from meanstream.errors import InvalidDescriptor, TooLarge
from inputs import random_vector

POSITIVE = DomainInterval.positive()


def broken_mean():
    """Arithmetic mean shifted by 10: violates the sandwich inequality."""
    return ms.FunctionMean(lambda xs: sum(xs) / len(xs) + 10.0,
                           POSITIVE, "broken(+10)")


def first_element_mean():
    return ms.FunctionMean(lambda xs: xs[0], POSITIVE, "first_element")


class TestSelfConsistency:
    def test_mean_property_flags_broken(self):
        report = ms.check_mean_property(broken_mean(), trials=50)
        assert not report.holds
        assert report.witness is not None

    def test_mean_property_passes_arithmetic(self):
        report = ms.check_mean_property(ms.power_mean(1.0), trials=100)
        assert report.holds

    def test_reflexivity_flags_broken(self):
        assert not ms.check_reflexivity(broken_mean()).holds
        assert ms.check_reflexivity(ms.median_mean("lower")).holds

    def test_symmetry_flags_order_sensitive(self):
        assert not ms.check_symmetry(first_element_mean()).holds
        assert ms.check_symmetry(ms.gini(2, 1)).holds
        assert ms.check_symmetry(ms.median_mean("lower")).holds


class TestRepetitionInvariance:
    def test_piecewise_witness(self):
        report = ms.check_repetition_invariance(
            ms.piecewise_counterexample(), extra_vectors=[[3.0, 4.0]])
        assert not report.holds
        assert report.witness == [3.0, 4.0]
        assert report.lhs == pytest.approx(3.5)
        assert report.rhs == pytest.approx(25 / 7)

    def test_gini_holds(self):
        assert ms.check_repetition_invariance(ms.gini(2, 1), trials=60).holds

    def test_bajraktarevic_holds(self):
        d = ms.bajraktarevic(ms.pair_power(3, 1))
        assert ms.check_repetition_invariance(d, trials=60).holds

    def test_hamy_witness(self):
        report = ms.check_repetition_invariance(
            ms.hamy(2), extra_vectors=[[4.0, 9.0]], multiplicities=(2,))
        assert not report.holds
        assert report.lhs == pytest.approx(6.0)
        assert report.rhs == pytest.approx(37 / 6)


class TestNegligibleElement:
    def test_cube_over_square_finds_zero(self):
        report = ms.detect_negligible_element(
            ms.cube_over_square(), [0.0, 1.0, -1.0], interval=(-10.0, 10.0))
        assert report.holds
        assert report.detail == "negligible=0.0"

    def test_bajraktarevic_finds_none(self):
        report = ms.detect_negligible_element(
            ms.bajraktarevic(ms.pair_power(2, 1)), [0.5, 1.0, 2.0])
        assert not report.holds
        assert report.detail == "none found"

    def test_out_of_domain_candidate_rejected(self):
        report = ms.detect_negligible_element(ms.power_mean(1.0), [0.0])
        assert not report.holds


class TestHomogeneity:
    def test_gini_holds(self):
        assert ms.check_homogeneity(ms.gini(2, 1)).holds

    def test_power_holds(self):
        assert ms.check_homogeneity(ms.power_mean(3.0)).holds

    def test_qa_exp_violated_with_witness(self):
        report = ms.check_homogeneity(ms.quasi_arithmetic("exp"))
        assert not report.holds
        assert report.witness is not None


class TestConcatenationBetweenness:
    def test_arithmetic_example(self):
        d = ms.power_mean(1.0)
        report = ms.check_concatenation_betweenness(
            d, trials=0, extra_pairs=[([1.0], [3.0])])
        assert report.holds

    def test_gini_holds(self):
        assert ms.check_concatenation_betweenness(ms.gini(2, 1), trials=100).holds

    def test_piecewise_violated(self):
        report = ms.check_concatenation_betweenness(
            ms.piecewise_counterexample(), trials=200,
            extra_pairs=[([3.4], [3.0, 4.0])])
        assert not report.holds
        assert report.witness is not None


class TestG23Inequality:
    def test_trivial_cases(self):
        assert abs(1 + 1) <= (1 + 1) ** 1.5
        report = ms.check_g23_inequality(trials=1000)
        assert report.holds

    def test_all_zero(self):
        xs = [0.0] * 5
        assert abs(sum(x ** 3 for x in xs)) <= sum(x ** 2 for x in xs) ** 1.5


class TestMergeCommutes:
    @pytest.mark.parametrize("d", ms.verify.standard_descriptors(),
                             ids=lambda d: d.name)
    def test_every_standard_descriptor_holds(self, d):
        report = ms.check_merge_commutes(d, trials=100, seed=1)
        assert (report.property, report.subject, report.holds,
                report.witness) == ("merge_commutes", d.name, True, None)

    def test_a_combine_that_does_not_commute_fails_with_a_witness(self):
        # a user-built descriptor: the check compares reals, not blobs
        d = ms.MeanDescriptor(
            "lopsided", {}, DomainInterval.reals(), ms.ComplexityType(1, True),
            lambda r, x: (r[0] + x,), lambda reals, n: reals[0] / n,
            combine=lambda a, b: (a[0] + 2.0 * b[0],))
        report = ms.check_merge_commutes(d, trials=20, seed=1)
        assert not report.holds and report.property == "merge_commutes"
        xs, ys = report.witness
        a, b = (ms.absorb_many(ms.init(d), v) for v in (xs, ys))
        assert ms.merge(a, b).reals != ms.merge(b, a).reals
        assert report.detail.startswith("merge(a, b) gave (['0x")

    def test_run_suite_checks_each_standard_descriptor_last(self):
        reports = ms.run_suite(seed=1, trials=5)
        names = [d.name for d in ms.verify.standard_descriptors()]
        tail = reports[-len(names):]
        assert [(r.property, r.subject) for r in tail] == [
            ("merge_commutes", name) for name in names]
        assert reports[-len(names) - 1].property == "g23_inequality"
        assert all(r.holds for r in tail)


@pytest.mark.parametrize("call", [
    lambda m: ms.check_merge_commutes(m, trials=5, seed=1),
    lambda m: ms.oracle_direct(m, [1.0, 2.0]),
], ids=["check_merge_commutes", "oracle_direct"])
@pytest.mark.parametrize("m", [first_element_mean(), "power"],
                         ids=["FunctionMean", "str"])
def test_a_check_of_states_or_family_refuses_a_non_descriptor(call, m):
    # witness: a FunctionMean raised a bare AttributeError ("... has no
    # attribute '_empty'" and "... 'family'")
    with pytest.raises(InvalidDescriptor, match="takes a MeanDescriptor"):
        call(m)


class TestOracleDirect:
    def test_examples(self):
        assert ms.oracle_direct(ms.gini(2, 1), [3, 4]) == pytest.approx(25 / 7)
        assert ms.oracle_direct(ms.hamy(2), [4, 4, 9, 9]) == pytest.approx(37 / 6)
        assert ms.oracle_direct(ms.power_mean(0), [1, 4]) == pytest.approx(2.0)

    def test_size_limit(self):
        with pytest.raises(TooLarge):
            ms.oracle_direct(ms.hamy(2), list(range(1, 15)))

    def test_streaming_equivalence_sample(self):
        rng = random.Random(11)
        for d in (ms.power_mean(-2.0), ms.gini(3, 3), ms.hamy(3),
                  ms.sympoly(4), ms.biplanar(2, 3, 3, 3),
                  ms.median_mean("upper"), ms.cube_over_square()):
            lo, hi = (0.5, 20.0)
            if d.family == "cube_over_square":
                lo = -10.0
            for _ in range(50):
                xs = random_vector(rng, 1, 12, lo, hi)
                stream = ms.evaluate_stream(d, xs)
                direct = ms.oracle_direct(d, xs)
                assert stream == pytest.approx(direct, rel=1e-9, abs=1e-12)


class TestRunSuite:
    def test_reports_shape(self):
        reports = ms.run_suite(seed=1, trials=30)
        assert all(isinstance(r, ms.PropertyReport) for r in reports)
        by_prop = {(r.property, r.subject): r for r in reports}
        assert by_prop[("g23_inequality", "cube_vs_square_sums")].holds
        # JSON lines round-trip
        import json
        for r in reports:
            assert json.loads(r.to_json())["property"] == r.property

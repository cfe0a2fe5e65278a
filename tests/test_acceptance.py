"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``: the verbose test line is the
pass/fail line for each criterion.  Each test also pins its runtime budget.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import meanstream as ms
from inputs import SEED, random_vector, seeded_vectors


@contextmanager
def runtime_budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds {seconds}s budget"


def test_criterion_01_counterexample_values_and_witness():
    with runtime_budget(1.0):
        d = ms.piecewise_counterexample()
        assert abs(ms.evaluate_stream(d, [3.0, 4.0]) - 3.5) <= 1e-12
        assert abs(ms.evaluate_stream(d, [3.0, 3.0, 4.0, 4.0]) - 25 / 7) <= 1e-12
        report = ms.check_repetition_invariance(d, extra_vectors=[[3.0, 4.0]])
        assert not report.holds
        assert report.witness == [3.0, 4.0]
        assert abs(report.lhs - 3.5) <= 1e-12
        assert abs(report.rhs - 25 / 7) <= 1e-12


def test_criterion_02_negligible_element():
    with runtime_budget(5.0):
        found = ms.detect_negligible_element(
            ms.cube_over_square(), [0.0, 1.0, -1.0], interval=(-10.0, 10.0))
        assert found.holds and found.detail == "negligible=0.0"
        none = ms.detect_negligible_element(
            ms.bajraktarevic(ms.pair_power(2.0, 1.0)), [0.5, 1.0, 2.0])
        assert not none.holds and none.detail == "none found"


def test_criterion_03_streaming_oracle_equivalence():
    descriptors = (
        [ms.power_mean(p) for p in (-2.0, 0.0, 1.0, 3.0)]
        + [ms.quasi_arithmetic(f) for f in
           ("identity", "ln", "exp", "power:2", "power:-1", "affine:2,3")]
        + [ms.gini(2.0, 1.0), ms.gini(3.0, 3.0), ms.gini(2.0, 0.0)]
        + [ms.bajraktarevic(ms.pair_power(2.0, 1.0)),
           ms.bajraktarevic(ms.pair_power(3.0, 1.0))]
        + [ms.hamy(r) for r in (1, 2, 3, 4)]
        + [ms.sympoly(r) for r in (1, 2, 3, 4)]
        + [ms.biplanar(2.0, 3.0, 3, 3), ms.biplanar(2.0, 1.0, 1, 1)]
    )
    with runtime_budget(30.0):
        vectors = seeded_vectors(300)
        for d in descriptors:
            worst = 0.0
            for xs in vectors:
                stream = ms.evaluate_stream(d, xs)
                direct = ms.oracle_direct(d, xs)
                worst = max(worst, abs(stream - direct) / abs(direct))
            assert worst <= 1e-9, f"{d.name}: max relative error {worst:.3e}"


def test_criterion_04_axiom_suite():
    passing = [ms.power_mean(1.0), ms.power_mean(0.0), ms.power_mean(3.0),
               ms.quasi_arithmetic("ln"), ms.quasi_arithmetic("exp"),
               ms.gini(2.0, 1.0), ms.gini(3.0, 3.0),
               ms.bajraktarevic(ms.pair_power(2.0, 1.0))]
    with runtime_budget(60.0):
        for d in passing + [ms.hamy(2), ms.sympoly(3),
                            ms.piecewise_counterexample()]:
            assert ms.check_mean_property(d, trials=200).holds, d.name
            assert ms.check_reflexivity(d).holds, d.name
            assert ms.check_symmetry(d).holds, d.name
        for d in passing:
            assert ms.check_repetition_invariance(d, trials=100).holds, d.name
        hamy = ms.check_repetition_invariance(
            ms.hamy(2), extra_vectors=[[4.0, 9.0]], multiplicities=(2,))
        assert not hamy.holds
        assert hamy.lhs == pytest.approx(6.0) and hamy.rhs == pytest.approx(37 / 6)
        piecewise = ms.check_repetition_invariance(
            ms.piecewise_counterexample(), extra_vectors=[[3.0, 4.0]])
        assert not piecewise.holds and piecewise.witness == [3.0, 4.0]


def test_criterion_05_identities():
    rng = random.Random(SEED)
    with runtime_budget(30.0):
        # conjugation: hamy_r on r-th powers, then r-th root, equals sympoly_r
        # (for n >= r; the small-n fallbacks of the two families differ)
        for r in (2, 3, 4):
            ha, sp = ms.hamy(r), ms.sympoly(r)
            for _ in range(100):
                xs = random_vector(rng, r, 12)
                lhs = ms.evaluate_stream(ha, [x ** r for x in xs]) ** (1.0 / r)
                rhs = ms.evaluate_stream(sp, xs)
                assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        pairs = [(ms.gini(p, 0.0), ms.power_mean(p)) for p in (2.0, -1.0, 0.5)]
        pairs += [(ms.gini(2.0, 1.0), ms.gini(1.0, 2.0)),
                  (ms.gini(3.0, 0.5), ms.gini(0.5, 3.0)),
                  (ms.biplanar(2.0, 1.0, 1, 1), ms.gini(2.0, 1.0)),
                  (ms.biplanar(3.0, 0.5, 1, 1), ms.gini(3.0, 0.5))]
        for left, right in pairs:
            for xs in seeded_vectors(100, seed=SEED + 1):
                a = ms.evaluate_stream(left, xs)
                b = ms.evaluate_stream(right, xs)
                assert abs(a - b) <= 1e-10 * abs(b), (left.name, right.name, xs)


def brute_gamma(exponents, xs):
    """Distinct-index multi-power sum by explicit enumeration."""
    total = 0
    for idx in itertools.permutations(range(len(xs)), len(exponents)):
        term = 1
        for i, p in zip(idx, exponents):
            term *= xs[i] ** p
        total += term
    return total


def test_criterion_06_gamma_engine_exact_integer_oracle():
    rng = random.Random(SEED)
    exponent_multisets = [tuple(sorted(c)) for s in (1, 2, 3, 4)
                          for c in itertools.combinations_with_replacement(
                              (1, 2, 3), s)]
    with runtime_budget(20.0):
        # spot values from the worked examples
        table = ms.power_sums([1, 2, 3], [Fraction(1), Fraction(2), Fraction(3)])
        assert ms.gamma_multi(ms.ExponentMultiset((Fraction(1), Fraction(1))),
                              table) == 22
        assert ms.sigma_from_power(2, Fraction(1), table) == 11
        assert ms.sigma_from_power(3, Fraction(1), table) == 6
        for n in range(1, 9):
            samples = [[rng.randint(1, 6) for _ in range(n)] for _ in range(8)]
            for xs in samples:
                # the recursion consumes every subset sum of the exponents,
                # so build the table up to the largest total (4 * 3 = 12)
                needed = [Fraction(p) for p in range(1, 13)]
                table = ms.power_sums(xs, needed)
                for exps in exponent_multisets:
                    got = ms.gamma_multi(
                        ms.ExponentMultiset(tuple(Fraction(p) for p in exps)),
                        table)
                    assert got == brute_gamma(exps, xs), (exps, xs)
                for s in (1, 2, 3, 4):
                    got = ms.sigma_from_power(s, Fraction(2), table)
                    want = sum(math.prod(c) for c in itertools.combinations(
                        [x ** 2 for x in xs], s))
                    assert got == want, (s, xs)


def test_criterion_07_g23_inequality():
    rng = random.Random(SEED)
    with runtime_budget(10.0):
        for _ in range(1000):
            xs = random_vector(rng, 1, 32, -10.0, 10.0)
            lhs = abs(math.fsum(x ** 3 for x in xs))
            rhs = math.fsum(x ** 2 for x in xs) ** 1.5
            assert lhs <= rhs * (1 + 1e-12) + 1e-12
        assert ms.check_g23_inequality(trials=1000).holds


def test_criterion_08_myhill_separation():
    alphabet = [0.0, 1.0, 2.0]
    with runtime_budget(60.0):
        arith = ms.enumerate_classes(ms.quasi_arithmetic("identity"),
                                     alphabet, 8)
        assert arith.counts == [2 * n + 1 for n in range(1, 9)]
        median = ms.enumerate_classes(ms.median_mean("lower"), alphabet, 8)
        for n, count in zip(range(1, 9), median.counts):
            if n >= 3:
                assert count > 2 * n + 1, (n, count)
        assert ms.growth_report(arith)["classification"] == "bounded-linear"
        assert ms.growth_report(median)["classification"] == "superlinear"


def test_criterion_09_classification_goldens():
    assert ms.power_mean(3.0).type_label == "T1+"
    assert ms.quasi_arithmetic("ln").type_label == "T1+"
    assert ms.gini(2.0, 1.0).type_label == "T2"
    assert ms.bajraktarevic(ms.pair_power(2.0, 1.0)).type_label == "T2"
    for r in (2, 3, 4):
        assert ms.hamy(r).type_label == f"T{r}+"
        assert ms.sympoly(r).type_label == f"T{r}+"
    assert ms.biplanar(2.0, 3.0, 3, 3).type_label == "T5+"
    assert ms.median_mean("lower").type_label == "no finite type"


def test_criterion_10_merge_distribution_and_round_trip():
    rng = random.Random(SEED)
    descriptors = [ms.power_mean(0.0), ms.power_mean(-2.0),
                   ms.quasi_arithmetic("exp"), ms.gini(2.0, 1.0),
                   ms.gini(3.0, 3.0), ms.bajraktarevic(ms.pair_power(2.0, 1.0)),
                   ms.hamy(3), ms.sympoly(4), ms.biplanar(2.0, 3.0, 3, 3),
                   ms.median_mean("upper"), ms.piecewise_counterexample(),
                   ms.cube_over_square()]
    with runtime_budget(30.0):
        for d in descriptors:
            lo, hi = (0.5, 20.0)
            if d.family == "cube_over_square":
                lo, hi = (-10.0, 10.0)
            elif d.family == "piecewise_h":
                lo, hi = (3.0, 4.0)
            for _ in range(40):
                xs = random_vector(rng, 3, 24, lo, hi)
                single = ms.evaluate_stream(d, xs)
                cut1 = rng.randint(1, len(xs) - 2)
                cut2 = rng.randint(cut1 + 1, len(xs) - 1)
                shards = []
                for chunk in (xs[:cut1], xs[cut1:cut2], xs[cut2:]):
                    state = ms.init(d)
                    for x in chunk:
                        state = ms.absorb(state, x)
                    shards.append(state)
                rng.shuffle(shards)
                if rng.random() < 0.5:
                    merged = ms.merge(ms.merge(shards[0], shards[1]), shards[2])
                else:
                    merged = ms.merge(shards[0], ms.merge(shards[1], shards[2]))
                assert abs(merged.finalize() - single) <= 1e-9 * abs(single) + 1e-12
                blob = ms.serialize_state(merged)
                assert ms.serialize_state(ms.parse_state(blob)) == blob
                parsed = ms.parse_state(blob)
                assert parsed.reals == merged.reals

import json
import math
import operator
import random
import struct
import warnings
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import meanstream as ms
from meanstream.core import DomainInterval
from meanstream.errors import (DegenerateExponents, FamilyMismatch,
                               GeneratorInvalid, InvalidDescriptor,
                               NumericalFailure, PairInvalid, ParseError)
from meanstream.families import GeneratorFunction
from meanstream.symfun import MAX_MULTI_EXPONENTS
from inputs import SEED, random_vector, seeded_vectors


class TestPowerMean:
    def test_arithmetic(self):
        assert ms.evaluate_stream(ms.power_mean(1), [1, 2, 3]) == pytest.approx(2.0)

    def test_geometric(self):
        assert ms.evaluate_stream(ms.power_mean(0), [1, 4]) == pytest.approx(2.0)

    def test_quadratic(self):
        got = ms.evaluate_stream(ms.power_mean(2), [3, 4])
        assert got == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_negative_exponent(self):
        # harmonic mean of (2, 2) is 2
        assert ms.evaluate_stream(ms.power_mean(-1), [2, 2]) == pytest.approx(2.0)


class TestQuasiArithmetic:
    def test_ln_is_geometric(self):
        d = ms.quasi_arithmetic("ln")
        assert ms.evaluate_stream(d, [1, 4]) == pytest.approx(2.0)

    def test_identity_is_arithmetic(self):
        d = ms.quasi_arithmetic("identity")
        for xs in seeded_vectors(20):
            assert ms.evaluate_stream(d, xs) == pytest.approx(sum(xs) / len(xs))

    def test_square_matches_power2(self):
        d = ms.quasi_arithmetic("power:2")
        got = ms.evaluate_stream(d, [3, 4])
        assert got == pytest.approx(math.sqrt(12.5), rel=1e-12)

    def test_invalid_generator_rejected(self):
        bad = GeneratorFunction("bad", lambda x: x * x, lambda y: math.sqrt(y),
                                DomainInterval.reals(), True)
        with pytest.raises(GeneratorInvalid):
            ms.quasi_arithmetic(bad)

    @pytest.mark.parametrize("forward, inverse, increasing, match", [
        (lambda x: x if x < 10.0 else math.inf, lambda y: y, True, "non-finite"),
        (lambda x: -x, lambda y: -y, True, "not strictly increasing"),
        (lambda x: x, lambda y: y, False, "not strictly decreasing"),
        (lambda x: x, lambda y: 2.0 * y, True, "round-trip"),
    ], ids=["non-finite", "not-increasing", "not-decreasing", "round-trip"])
    def test_each_generator_check_is_enforced(self, forward, inverse,
                                              increasing, match):
        bad = GeneratorFunction("bad", forward, inverse, DomainInterval.reals(),
                                increasing)
        with pytest.raises(GeneratorInvalid, match=match):
            ms.quasi_arithmetic(bad)

    def test_grid_overflow_is_generator_invalid(self):
        # witness: 50.0 ** 300 on the grid raised a bare OverflowError
        with pytest.raises(GeneratorInvalid, match="overflow"):
            ms.quasi_arithmetic("power:300")


class TestGini:
    def test_paper_value(self):
        got = ms.evaluate_stream(ms.gini(2, 1), [3, 3, 4, 4])
        assert got == pytest.approx(25 / 7, rel=1e-15)

    def test_equal_parameters_reflexive(self):
        for p in (-1.0, 0.0, 2.5):
            d = ms.gini(p, p)
            for v in (0.7, 1.0, 13.0):
                assert ms.evaluate_stream(d, [v] * 4) == pytest.approx(v, rel=1e-12)

    def test_reduces_to_power_mean(self):
        got = ms.evaluate_stream(ms.gini(2, 0), [3, 4])
        assert got == pytest.approx(math.sqrt(12.5), rel=1e-12)
        for p in (2.0, -1.0, 0.5):
            dg, dp = ms.gini(p, 0), ms.power_mean(p)
            for xs in seeded_vectors(30, seed=5):
                assert ms.evaluate_stream(dg, xs) == pytest.approx(
                    ms.evaluate_stream(dp, xs), rel=1e-10)

    @pytest.mark.parametrize("p, q", [(2.0, 0.0), (0.0, 3.0), (0.0, 0.0),
                                      (-0.0, 1.0)])
    def test_a_zero_exponent_is_t1_plus(self, p, q):
        # witness: gini(2, 0) is power_mean(2) on [1, 4] yet was declared
        # T2; x^0 sums to the count, so the mean is quasi-arithmetic
        d = ms.gini(p, q)
        assert (d.type_label, d.k, d.has_counter) == ("T1+", 2, True)
        assert not d.ctype_is_upper_bound
        s = ms.init(d).absorb(1.0).absorb(4.0)
        assert s.counter == 2 and json.loads(ms.serialize_state(s))["k"] == 2

    def test_v1_null_counter_of_a_t1_plus_gini_is_a_parse_error(self):
        # a T1+ mean stores its count, so a blob without one is malformed
        blob = {"version": 1, "family": "gini", "params": {"p": 2.0, "q": 0.0},
                "k": 2, "reals": [(17.0).hex(), (2.0).hex()], "counter": None,
                "overflow": False}
        with pytest.raises(ParseError, match="bad counter"):
            ms.parse_state(json.dumps(blob))
        blob["counter"] = 2
        assert ms.parse_state(json.dumps(blob)).finalize() == pytest.approx(
            math.sqrt(8.5))

    def test_parameter_symmetry(self):
        a, b = ms.gini(2.0, 1.0), ms.gini(1.0, 2.0)
        for xs in seeded_vectors(50, seed=6):
            assert ms.evaluate_stream(a, xs) == pytest.approx(
                ms.evaluate_stream(b, xs), rel=1e-10)


class TestBajraktarevic:
    def test_power_pair_matches_gini(self):
        d = ms.bajraktarevic(ms.pair_power(2, 1))
        assert ms.evaluate_stream(d, [3, 3, 4, 4]) == pytest.approx(25 / 7)

    def test_constant_g_reduces_to_qa(self):
        d = ms.bajraktarevic(ms.pair_from_names("ln", "one"))
        assert ms.evaluate_stream(d, [1, 4]) == pytest.approx(2.0)

    @pytest.mark.parametrize("name", ["identity", "ln", "exp", "power:0.5",
                                      "power:-1", "affine:2,3"])
    def test_constant_g_is_the_quasi_arithmetic_mean_bit_for_bit(self, name):
        # witness: ("exp", "one") and ("affine:2,3", "one") inverted f/1 by
        # bisection and differed from quasi_arithmetic on every vector
        pair, qa = (ms.bajraktarevic(ms.pair_from_names(name, "one")),
                    ms.quasi_arithmetic(name))
        for xs in seeded_vectors(200, n_max=10, seed=11):
            assert ms.evaluate_stream(pair, xs) == ms.evaluate_stream(qa, xs)

    @pytest.mark.parametrize("f, g, same", [
        ("power:2.0", "power:1", lambda: ms.pair_power(2, 1)),
        ("power:2", "power:1.0", lambda: ms.pair_power(2, 1)),
        ("affine:2.0,3", "one", lambda: ms.pair_from_names("affine:2,3", "one")),
    ], ids=["power:2.0", "power:1.0", "affine:2.0,3"])
    def test_a_pair_carries_the_registry_names(self, f, g, same):
        # witness: pair_from_names kept the spelling it was given, so
        # ("power:2.0", "power:1") and pair_power(2, 1) did not merge
        d = ms.bajraktarevic(ms.pair_from_names(f, g))
        twin = ms.bajraktarevic(same())
        assert d.name == twin.name and d.family_id == twin.family_id
        a, b = ms.init(d).absorb(3.0), ms.init(twin).absorb(4.0)
        assert ms.merge(a, b).finalize() == ms.merge(b, a).finalize() == (
            ms.evaluate_stream(twin, [3.0, 4.0]))

    def test_x_has_one_spelling_per_domain(self):
        # witness: ("power:2", "identity") and ("power:2", "power:1") built
        # one mean, 3.5714285714285716 on [3, 4] with reals (25.0, 7.0), yet
        # their states raised FamilyMismatch on merge
        d = ms.bajraktarevic(ms.pair_from_names("power:2", "identity"))
        twin = ms.bajraktarevic(ms.pair_from_names("power:2", "power:1"))
        assert d.name == twin.name == "bajraktarevic(f=power:2,g=power:1)"
        a, b = ms.init(d).absorb(3.0), ms.init(twin).absorb(4.0)
        for merged in (ms.merge(a, b), ms.merge(b, a)):
            assert merged.reals == (25.0, 7.0)
            assert merged.finalize() == 3.5714285714285716
        # on the whole line x keeps the name identity
        line = ms.bajraktarevic(ms.pair_from_names("identity", "one"))
        assert line.params == {"f": "identity", "g": "one"}
        assert ms.evaluate_stream(line, [-3.0, 4.0]) == 0.5
        positive = ms.bajraktarevic(ms.pair_from_names("power:1", "one"))
        assert positive.params == {"f": "power:1", "g": "one"}

    def test_a_blob_that_spells_x_identity_parses(self):
        d = ms.bajraktarevic(ms.pair_power(2, 1))
        blob = ms.serialize_state(ms.init(d).absorb(3.0))
        old = blob.replace(b'"g": "power:1"', b'"g": "identity"')
        assert old != blob
        assert ms.serialize_state(ms.parse_state(old)) == blob

    def test_two_constant_components_are_no_pair(self):
        with pytest.raises(PairInvalid):
            ms.pair_from_names("one", "one")

    def test_reflexivity(self):
        d = ms.bajraktarevic(ms.pair_power(3, 1))
        for v in (0.6, 1.0, 17.5):
            assert ms.evaluate_stream(d, [v, v, v]) == pytest.approx(v, rel=1e-10)

    def test_bisection_inverse_pair(self):
        pair = ms.pair_from_functions(
            lambda x: math.exp(x), lambda x: math.exp(x / 2),
            DomainInterval.positive())
        d = ms.bajraktarevic(pair)
        xs = [0.7, 3.2, 9.5]
        want = 2 * math.log(sum(math.exp(x) for x in xs)
                            / sum(math.exp(x / 2) for x in xs))
        assert ms.evaluate_stream(d, xs) == pytest.approx(want, rel=1e-10)

    def test_invalid_pair_rejected(self):
        with pytest.raises(PairInvalid):
            ms.pair_from_functions(lambda x: x, lambda x: x - 100.0,
                                   DomainInterval.positive())

    @pytest.mark.parametrize("f, g, ratio_inverse, match", [
        (lambda x: x, lambda x: x - 100.0, lambda t: t, "not positive"),
        (lambda x: (x - 5.0) ** 2, lambda x: 1.0, lambda t: t, "not strictly"),
        (lambda x: x, lambda x: 1.0, lambda t: 2.0 * t, "round-trip"),
    ], ids=["g-not-positive", "not-monotone", "round-trip"])
    def test_each_pair_check_is_enforced(self, f, g, ratio_inverse, match):
        with pytest.raises(PairInvalid, match=match):
            ms.pair_from_functions(f, g, DomainInterval.positive(),
                                   ratio_inverse)

    def test_grid_overflow_is_pair_invalid(self):
        # witness: f = x^300 overflowed on the grid as a bare OverflowError
        with pytest.raises(PairInvalid, match="overflow"):
            ms.bajraktarevic(ms.pair_power(300, 1))
        with pytest.raises(PairInvalid, match="overflow"):
            ms.pair_from_functions(lambda x: x ** 300, lambda x: 1.0,
                                   DomainInterval.positive())

    def test_zero_g_without_inverse_is_pair_invalid(self):
        # witness: f/g at a grid end, for the bisection direction, raised a
        # bare ZeroDivisionError before g > 0 was checked
        with pytest.raises(PairInvalid, match="not positive"):
            ms.pair_from_functions(lambda x: x, lambda x: 0.0,
                                   DomainInterval.positive())

    @pytest.mark.parametrize("pair, same", [
        (lambda: ms.pair_power(2, 0), lambda: ms.power_mean(2)),
        (lambda: ms.pair_power(0, 2), lambda: ms.power_mean(2)),
        (lambda: ms.pair_from_names("ln", "one"), lambda: ms.power_mean(0)),
    ], ids=["power2-one", "one-power2", "ln-one"])
    def test_a_constant_component_is_t1_plus(self, pair, same):
        # witnesses: each was declared T2, but a constant f or g makes a
        # power mean, of type T1+
        d = ms.bajraktarevic(pair())
        assert (d.type_label, d.k, d.has_counter) == ("T1+", 2, True)
        assert not d.ctype_is_upper_bound
        assert ms.evaluate_stream(d, [1.0, 4.0]) == pytest.approx(
            ms.evaluate_stream(same(), [1.0, 4.0]), rel=1e-12)

    def test_a_custom_f_named_one_is_not_t1_plus(self):
        # the type follows the constant component itself, not its name
        pair = ms.pair_from_functions(lambda x: x * x, lambda x: x,
                                      DomainInterval.positive(), f_name="one")
        assert ms.bajraktarevic(pair).type_label == "T2"

    def test_unnamed_custom_pairs_do_not_merge(self):
        # witness: both pairs were named "<custom>", and [2.0] under
        # x^2 / x merged with [8.0] under 1 / x finalized to 0.5
        square = ms.pair_from_functions(lambda x: x * x, lambda x: x,
                                        DomainInterval.positive(), lambda t: t)
        recip = ms.pair_from_functions(lambda x: 1.0, lambda x: x,
                                       DomainInterval.positive(),
                                       lambda t: 1.0 / t)
        a = ms.init(ms.bajraktarevic(square)).absorb(2.0)
        b = ms.init(ms.bajraktarevic(recip)).absorb(8.0)
        assert a.family_id != b.family_id
        with pytest.raises(FamilyMismatch):
            ms.merge(a, b)
        with pytest.raises(FamilyMismatch):
            ms.merge(b, a)
        with pytest.raises(ParseError, match="cannot rebuild descriptor"):
            ms.parse_state(ms.serialize_state(a))
        # a second descriptor of the same pair is the same mean
        twin = ms.init(ms.bajraktarevic(square)).absorb(4.0)
        assert twin.descriptor is not a.descriptor
        assert ms.merge(a, twin).finalize() == pytest.approx(20.0 / 6.0)


class TestHamy:
    def test_single_pair(self):
        assert ms.evaluate_stream(ms.hamy(2), [4, 9]) == pytest.approx(6.0)

    def test_all_pairs(self):
        got = ms.evaluate_stream(ms.hamy(2), [4, 4, 9, 9])
        assert got == pytest.approx(37 / 6, rel=1e-12)

    def test_reflexivity(self):
        for r in (1, 2, 3, 4):
            d = ms.hamy(r)
            for v in (0.8, 1.0, 11.0):
                for k in (1, 2, r, r + 2):
                    assert ms.evaluate_stream(d, [v] * k) == pytest.approx(v, rel=1e-10)

    def test_small_n_arithmetic_fallback(self):
        got = ms.evaluate_stream(ms.hamy(3), [2.0, 10.0])
        assert got == pytest.approx(6.0)

    def test_rejects_bad_r(self):
        # witness: hamy(True) and sympoly(True) built states that parse_state
        # rejects ("r must be an integer, got True")
        for build in (ms.hamy, ms.sympoly):
            for bad in (0, True, False, 2.0, 2.5, "2", None):
                with pytest.raises(InvalidDescriptor, match="integer r"):
                    build(bad)

    def test_rejects_r_above_the_recursion_limit(self):
        # witness: hamy(13) built and absorbed, then finalize raised a bare
        # ValueError
        ms.hamy(MAX_MULTI_EXPONENTS)
        for build in (ms.hamy, ms.sympoly):
            with pytest.raises(InvalidDescriptor):
                build(MAX_MULTI_EXPONENTS + 1)


class TestSymPoly:
    def test_hand_value(self):
        got = ms.evaluate_stream(ms.sympoly(2), [1, 2, 3])
        assert got == pytest.approx(math.sqrt(11 / 3), rel=1e-12)

    def test_reflexivity(self):
        for r in (1, 2, 3, 4):
            d = ms.sympoly(r)
            for k in (1, r, r + 3):
                assert ms.evaluate_stream(d, [7.0] * k) == pytest.approx(7.0, rel=1e-10)

    def test_conjugation_identity(self):
        # hamy_r of r-th powers, then the r-th root, equals sympoly_r (n >= r;
        # the small-n fallbacks differ)
        rng = random.Random(8)
        for r in (2, 3, 4):
            ha, sp = ms.hamy(r), ms.sympoly(r)
            for _ in range(30):
                xs = random_vector(rng, r, 10)
                lhs = ms.evaluate_stream(ha, [x ** r for x in xs]) ** (1.0 / r)
                rhs = ms.evaluate_stream(sp, xs)
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestBiplanar:
    def test_exponent_set_size(self):
        params = ms.BiplanarParams(2.0, 3.0, 3, 3)
        assert params.k == 5
        d = ms.biplanar(2, 3, 3, 3)
        assert d.ctype.label == "T5+"

    def test_type_counts_the_exponent_set_less_a_zero_q(self):
        # ctype.k is the exponent-set size, less one exactly when q = 0 and
        # p != 0: that set then holds the exponent 0, whose column is the
        # count, which the "+" of the type holds
        grid = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
        built = 0
        for p, q, c, d in product(grid, grid, range(1, 5), range(1, 5)):
            if c * p == d * q:  # degenerate
                continue
            size = ms.BiplanarParams(p, q, c, d).k
            assert ms.biplanar(p, q, c, d).ctype.k == (
                size - (q == 0 and p != 0)), (p, q, c, d)
            built += 1
        assert built == 726
        assert ms.BiplanarParams(2, 0, 2, 1).k == 3
        assert ms.biplanar(2, 0, 2, 1).type_label == "T2+"

    def test_c1_d1_matches_gini(self):
        d = ms.biplanar(2, 1, 1, 1)
        g = ms.gini(2, 1)
        for xs in seeded_vectors(40, seed=9):
            assert ms.evaluate_stream(d, xs) == pytest.approx(
                ms.evaluate_stream(g, xs), rel=1e-10)

    def test_small_n_power_fallback(self):
        got = ms.evaluate_stream(ms.biplanar(2, 3, 3, 3), [5, 7])
        assert got == pytest.approx(math.sqrt(37), rel=1e-12)

    def test_degenerate_exponents(self):
        with pytest.raises(DegenerateExponents):
            ms.biplanar(2, 3, 3, 2)

    def test_exponents_degenerate_in_floats(self):
        # witness: c*p != d*q exactly, but 3 * (1/3) == 1.0 in binary64, so
        # 1.0 / (c*p - d*q) raised a bare ZeroDivisionError
        ms.BiplanarParams(1.0, 1 / 3, 1, 3)
        with pytest.raises(DegenerateExponents, match="in floats"):
            ms.biplanar(1.0, 1 / 3, 1, 3)

    def test_every_build_is_a_mean_or_a_library_error(self):
        # witness: 8 of these builds raised a bare ZeroDivisionError
        grid = (0.1, 0.3, 0.30000000000000004, 1 / 3, 2 / 3, 1.0, 2.0)
        refused = []
        for p, q, c, d in product(grid, grid, range(1, 4), range(1, 4)):
            try:
                ms.biplanar(p, q, c, d)
            except ms.MeanStreamError:
                refused.append((p, q, c, d))
        assert refused == [(p, q, c, d) for p, q, c, d in product(
            grid, grid, range(1, 4), range(1, 4)) if c * p == d * q]

    def test_rejects_c_or_d_above_the_recursion_limit(self):
        ms.biplanar(2, 3, MAX_MULTI_EXPONENTS, 1)
        for c, d in ((MAX_MULTI_EXPONENTS + 1, 1), (1, MAX_MULTI_EXPONENTS + 1)):
            with pytest.raises(InvalidDescriptor):
                ms.biplanar(2, 3, c, d)

    def test_rejects_c_or_d_that_is_not_an_int(self):
        # witness: biplanar(2, 3, 3.7, "3") built biplanar(c=3, d=3) through
        # int()
        for c, d in ((3.7, "3"), (3, "3"), (3.0, 3), (True, 1), (1, True)):
            with pytest.raises(InvalidDescriptor, match="integer [cd]"):
                ms.biplanar(2, 3, c, d)
        with pytest.raises(InvalidDescriptor, match="integer c"):
            ms.BiplanarParams(2.0, 3.0, True, 1)

    def test_zero_p_fallback_is_geometric(self):
        d = ms.biplanar(0.0, 1.0, 2, 1)
        assert ms.evaluate_stream(d, [1.0]) == pytest.approx(1.0)
        assert ms.evaluate_stream(d, [9.0]) == pytest.approx(9.0)


class TestExponentsMustBeFinite:
    # witness: `printf '0.5\n0.25\n' | meanstream eval --family power --p inf`
    # printed 1, outside [0.25, 0.5]; biplanar raised a bare OverflowError
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_power_gini_biplanar_reject(self, bad):
        for build in (lambda: ms.power_mean(bad), lambda: ms.gini(bad, 1),
                      lambda: ms.gini(1, bad), lambda: ms.biplanar(bad, 1, 1, 1),
                      lambda: ms.biplanar(2, bad, 1, 1)):
            with pytest.raises(InvalidDescriptor, match="finite"):
                build()

    def test_an_int_too_large_for_a_float_is_rejected(self):
        with pytest.raises(InvalidDescriptor):
            ms.power_mean(10 ** 400)


class TestUnderflowedPowerSum:
    # witnesses: power(2000) on [0.5, 0.25] returned 0.0; power(-2000) on
    # [4, 2] and gini(2000, 1999) on [0.5, 0.25] raised ZeroDivisionError
    @pytest.mark.parametrize("d, xs", [
        (ms.power_mean(2000), [0.5, 0.25]),
        (ms.power_mean(-2000), [4.0, 2.0]),
        (ms.gini(2000, 1999), [0.5, 0.25]),
        (ms.gini(2000, 2000), [0.5, 0.25]),
    ], ids=["power+", "power-", "gini", "gini-equal"])
    def test_is_numerical_failure(self, d, xs):
        with pytest.raises(NumericalFailure, match="underflow"):
            ms.evaluate_stream(d, xs)

    def test_a_zero_log_sum_is_not_underflow(self):
        # gini(p, p) sums x^p ln x, which is 0 at x = 1
        assert ms.evaluate_stream(ms.gini(2, 2), [1.0]) == 1.0
        assert ms.evaluate_stream(ms.power_mean(0), [1.0]) == 1.0
        # nor is a zero sum of terms of both signs
        assert ms.evaluate_stream(ms.quasi_arithmetic("ln"), [1.0]) == 1.0
        for d in (ms.quasi_arithmetic("identity"),
                  ms.bajraktarevic(ms.pair_from_names("identity", "one"))):
            assert ms.evaluate_stream(d, [0.0]) == 0.0

    def test_the_power_mean_has_one_guard_by_every_name(self):
        # witness: on [1.2345e-110] * 4, whose cubes underflow to 0,
        # power_mean(3) raised NumericalFailure and the same mean by
        # quasi_arithmetic and bajraktarevic returned 0.0
        names = [ms.power_mean(3), ms.quasi_arithmetic("power:3"),
                 ms.bajraktarevic(ms.pair_from_names("power:3", "one"))]
        for d in names:
            with pytest.raises(NumericalFailure, match="underflow"):
                ms.evaluate_stream(d, [1.2345e-110] * 4)
        for xs in seeded_vectors(50, lo=1e-3, hi=1e3):
            assert len({ms.evaluate_stream(d, xs).hex() for d in names}) == 1


def _both_ways(d, xs):
    """Finalized per-element absorb, and finalized absorb_many."""
    return (ms.evaluate_stream(d, xs),
            ms.finalize(ms.absorb_many(ms.init(d), xs)))


class TestElementarySymmetricState:
    # witnesses: recovering sigma from power sums by Newton's identities
    # cancelled; hamy(8) returned -1.5e12, hamy(2) -3.0e133, sympoly(2) 0.0
    @pytest.mark.parametrize("d, xs, want", [
        (ms.hamy(8), [1e-30, 1e30] + [1.0] * 7, 625.6014921923813),
        (ms.hamy(2), [1e-200, 1e150, 1.0], None),
        (ms.sympoly(2), [1e-90, 1e90, 1.0], None),
    ], ids=["hamy8", "hamy2", "sympoly2"])
    def test_wide_range_matches_the_direct_value(self, d, xs, want):
        direct = ms.oracle_direct(d, xs)
        assert want is None or direct == want
        for got in _both_ways(d, xs):
            assert abs(got - direct) <= 4 * math.ulp(direct)

    # witnesses: each returned 0.0, outside [min, max]
    @pytest.mark.parametrize("d, xs", [
        (ms.sympoly(2), [1e-200, 2e-200]),
        (ms.biplanar(2, 1, 1, 1), [1e-200, 2e-200]),
        (ms.biplanar(2, 3, 3, 3), [1e-200]),  # the n < max(c, d) fallback
    ], ids=["sympoly2", "biplanar2111", "biplanar2333"])
    def test_underflow_is_numerical_failure(self, d, xs):
        with pytest.raises(NumericalFailure):
            ms.evaluate_stream(d, xs)
        with pytest.raises(NumericalFailure):
            ms.finalize(ms.absorb_many(ms.init(d), xs))


def _gini21_squared(a, b):
    return ((a * a + b * b) / (a + b)) ** 2


# (descriptor, a, b, the exact square of the mean of [a, b] from Fractions)
SUBNORMAL_WITNESSES = [
    (ms.sympoly(2), 1e-160, 3e-160, lambda a, b: a * b),
    (ms.power_mean(2), 1e-160, 3e-160, lambda a, b: (a * a + b * b) / 2),
    (ms.gini(2, 1), 1e-160, 3e-160, _gini21_squared),
    (ms.biplanar(2, 1, 1, 1), 1e-160, 3e-160, _gini21_squared),
    (ms.power_mean(-2), 1e160, 3e160, lambda a, b: 2 / (1 / (a * a) + 1 / (b * b))),
]
WITNESS_IDS = ["sympoly2", "power2", "gini21", "biplanar2111", "power-2"]


class TestSubnormalStateSum:
    # witnesses: the guarded sum (e_2, the sum of x^2 or of x^-2) is
    # subnormal, and each finalized 5.6e-6 to 2.0e-4 relative off the exact
    # value; sympoly(2) gave 1.7320411662394313e-160 for sqrt(3)*1e-160.
    # oracle_direct loses the same digits, so only Fractions can judge.
    @pytest.mark.parametrize("d, a, b", [w[:3] for w in SUBNORMAL_WITNESSES],
                             ids=WITNESS_IDS)
    def test_is_numerical_failure(self, d, a, b):
        with pytest.raises(NumericalFailure, match="underflow"):
            ms.evaluate_stream(d, [a, b])
        with pytest.raises(NumericalFailure, match="underflow"):
            ms.finalize(ms.absorb_many(ms.init(d), [a, b]))

    def test_subnormal_biplanar_ratio_is_numerical_failure(self):
        # witness: e_1(x^-2) and e_1(x^2) are normal, their ratio 1.3e-312
        # is not, and the value was 4.1e-12 relative off sqrt(3)*1e78
        d = ms.biplanar(-2, 2, 1, 1)
        for run in (lambda: ms.evaluate_stream(d, [1e78, 3e78]),
                    lambda: ms.finalize(ms.absorb_many(ms.init(d), [1e78, 3e78]))):
            with pytest.raises(NumericalFailure, match="float range"):
                run()

    @pytest.mark.parametrize("d, a, b, exact_square", SUBNORMAL_WITNESSES,
                             ids=WITNESS_IDS)
    def test_normal_sums_keep_their_digits(self, d, a, b, exact_square):
        # the same witnesses scaled by 1e10 (or 1e-10) keep every sum normal
        scale = 1e10 if a < 1.0 else 1e-10
        a, b = a * scale, b * scale
        want = exact_square(Fraction(a), Fraction(b))
        for got in _both_ways(d, [a, b]):
            assert abs(Fraction(got) ** 2 / want - 1) <= 1e-15


ESYM_FAMILIES = [
    ms.hamy(1), ms.hamy(3), ms.hamy(8), ms.sympoly(2), ms.sympoly(5),
    ms.biplanar(2, 3, 3, 3), ms.biplanar(0, 1, 2, 1),  # p = 0
    ms.biplanar(2, 0, 2, 3), ms.biplanar(-0.5, 1, 4, 3),  # q = 0, p < 0
]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64), st.data())
def test_esym_any_split_tree_and_batching(us, data):
    """Any shard split, per-shard choice of absorb or absorb_many, and merge
    tree finalizes within 4e-15 relative of one per-element pass."""
    xs = [10.0 ** (6.0 * u - 3.0) for u in us]  # log-uniform on [1e-3, 1e3]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(xs)), max_size=6)))
    bounds = [0, *cuts, len(xs)]
    batched = data.draw(st.lists(st.booleans(), min_size=len(bounds) - 1,
                                 max_size=len(bounds) - 1))
    joins = [data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 2),
                                 st.booleans()))
             for n in range(len(bounds) - 1, 1, -1)]
    for d in ESYM_FAMILIES:
        states = []
        for lo, hi, many in zip(bounds, bounds[1:], batched):
            s = ms.init(d)
            if many:
                s = ms.absorb_many(s, xs[lo:hi])
            else:
                for x in xs[lo:hi]:
                    s = ms.absorb(s, x)
            states.append(s)
        for i, j, first in joins:  # merge states[i] into one of the others
            a = states.pop(i)
            states[j] = ms.merge(a, states[j]) if first else ms.merge(states[j], a)
        single = ms.evaluate_stream(d, xs)
        assert abs(ms.finalize(states[0]) - single) <= 4e-15 * single


def _push(out: list, e, y) -> list:
    """Append e_1..e_m of a block with y pushed: the O(m) recurrence
    e_j += y e_{j-1} (e_0 = 1)."""
    prev = 1.0
    for v in e:
        out.append(v + y * prev)
        prev = v
    return out


def _reference_step(layout, reals, x):
    """The e-state step as loops over a layout (blocks of (m, encoder),
    sum encoders): ``_push`` per block, then the plain sums."""
    blocks, sums = layout
    out, i = [], 0
    for m, encode in blocks:
        _push(out, reals[i:i + m], encode(x))
        i += m
    out += [v + encode(x) for v, encode in zip(reals[i:], sums)]
    return tuple(out)


def _reference_combine(layout, a, b):
    """The e-state combine as loops: per block, the truncated product
    e_j = (a_j + b_j) + (a_1 b_{j-1} + a_{j-1} b_1) + ... [+ a_{j/2} b_{j/2}],
    left to right, whose terms each commute in a and b; then the sums
    added."""
    blocks, _ = layout
    out, i = [], 0
    for m, _ in blocks:
        ea, eb = (1.0, *a[i:i + m]), (1.0, *b[i:i + m])  # e_0 = 1
        for j in range(1, m + 1):
            v = ea[j] + eb[j]
            for h in range(1, (j + 1) // 2):
                v = v + (ea[h] * eb[j - h] + ea[j - h] * eb[h])
            if j % 2 == 0:
                v = v + ea[j // 2] * eb[j // 2]
            out.append(v)
        i += m
    out += map(operator.add, a[i:], b[i:])
    return tuple(out)


def _esym_layouts():
    """(descriptor, its layout for the reference loops)."""
    for r in range(1, MAX_MULTI_EXPONENTS + 1):
        inv_r = 1.0 / r
        yield (ms.hamy(r), (((r, lambda x, inv_r=inv_r: x ** inv_r),),
                            (lambda x: x,)))
        yield ms.sympoly(r), (((r, lambda x: x),), ())
    for p, q in ((0.0, 1.0), (-0.5, 1.0), (2.0, 3.0)):
        for c in (1, 3, 12):
            for d in (1, 3, 12):
                yield (ms.biplanar(p, q, c, d),
                       (((c, lambda x, p=p: x ** p), (d, lambda x, q=q: x ** q)),
                        (math.log,) if p == 0 else ()))


ESYM_LAYOUTS = list(_esym_layouts())


def _bits(reals: tuple) -> bytes:
    return struct.pack(f"{len(reals)}d", *reals)


class TestEStateKernels:
    """The generated straight-line ``step`` and ``combine`` have the bits
    of the reference loops, overflowed states (inf and NaN) included."""

    @pytest.mark.parametrize("d, layout", ESYM_LAYOUTS,
                             ids=[d.name for d, _ in ESYM_LAYOUTS])
    def test_step_and_combine_match_the_loops(self, d, layout):
        rng = random.Random(d.name)
        identity = ms.init(d).reals
        infs = (math.inf,) * d.k
        states = [identity]
        for n in (1, 2, 5, 13, 30):
            xs = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(n)]
            if n >= 5:  # 1e200 ** 2 raises OverflowError
                xs[rng.randrange(n)] = 1e200
            if n >= 13:  # the sum of two overflows in every layout
                xs[0] = xs[-1] = 1e308
            ours = ref = identity
            for x in xs:  # as absorb does
                try:
                    want = _reference_step(layout, ref, x)
                except OverflowError:
                    with pytest.raises(OverflowError):
                        d.step(ours, x)
                    ours = ref = infs
                else:
                    ours = d.step(ours, x)
                    ref = want
                assert _bits(ours) == _bits(ref)
                states.append(ours)
        assert any(not all(map(math.isfinite, s)) for s in states)
        # merging an overflowed state with an emptier one gives NaN (inf * 0)
        nans = d.combine(infs, identity)
        assert _bits(nans) == _bits(_reference_combine(layout, infs, identity))
        assert (_bits(d.step(nans, 2.0))
                == _bits(_reference_step(layout, nans, 2.0)))
        for a in states[::3] + [nans]:
            for b in states[1::4] + [infs, nans]:
                assert (_bits(d.combine(a, b))
                        == _bits(_reference_combine(layout, a, b)))
            if all(map(math.isfinite, a)):
                assert _bits(d.combine(identity, a)) == _bits(a)
                assert _bits(d.combine(a, identity)) == _bits(a)

    def test_merged_overflow_has_the_one_pass_bytes(self):
        # witness: split at 19, serialized, parsed and merged, this stream
        # wrote inf, inf, nan twice where absorbing it wrote six inf
        d = ms.biplanar(2.0, 3.0, 3, 3)
        xs = [1.0 + i / 8 for i in range(38)]
        xs[20] = 1e200
        one = ms.init(d)
        for x in xs:
            one = ms.absorb(one, x)
        blob = ms.serialize_state(one)
        assert b'"reals": ["inf", "inf", "inf", "inf", "inf", "inf"]' in blob
        for s in (one, ms.absorb_many(ms.init(d), xs)):
            assert [v.hex() for v in s.reals] == ["inf"] * 6
            assert ms.serialize_state(s) == blob
        halves = [ms.parse_state(ms.serialize_state(ms.absorb_many(ms.init(d), h)))
                  for h in (xs[:19], xs[19:])]
        layout = (((3, lambda x: x ** 2.0), (3, lambda x: x ** 3.0)), ())
        for a, b in (halves, halves[::-1]):
            merged = ms.merge(a, b)
            assert _bits(merged.reals) == _bits(
                _reference_combine(layout, a.reals, b.reals))
            assert ms.serialize_state(merged) == blob
        # the combine with a state of fewer elements than a block's size
        # gives NaN (e_3 = inf + 0 + inf * 0 + ...); merge holds k infs, as
        # absorb does (witness: it held inf, inf, nan twice)
        single = ms.init(d).absorb(2.0)
        assert [v.hex() for v in d.combine(one.reals, single.reals)] == (
            ["inf", "inf", "nan"] * 2)
        for merged in (ms.merge(one, single), ms.merge(single, one)):
            assert [v.hex() for v in merged.reals] == ["inf"] * 6
            assert merged == one.absorb(2.0)
            assert ms.serialize_state(merged) == ms.serialize_state(one.absorb(2.0))


def _state(d, xs, many: bool):
    """d's state of xs, by absorb_many or by one absorb per element."""
    if many:
        return ms.absorb_many(ms.init(d), xs)
    s = ms.init(d)
    for x in xs:
        s = ms.absorb(s, x)
    return s


_MERGE_VALUES = st.lists(
    st.floats(1e-3, 1e3) | st.sampled_from([1e-300, 1e200]), max_size=24)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([d for d, _ in ESYM_LAYOUTS]), _MERGE_VALUES,
       _MERGE_VALUES, st.booleans(), st.booleans())
def test_esym_merge_commutes_bit_for_bit(d, xs, ys, many_a, many_b):
    """merge(a, b) and merge(b, a) serialize to the same bytes, for every
    e-state built-in (biplanar with c = 1 or d = 1, and with p = 0, too)."""
    a, b = _state(d, xs, many_a), _state(d, ys, many_b)
    assert (ms.serialize_state(ms.merge(a, b))
            == ms.serialize_state(ms.merge(b, a)))


class TestDescriptorFromParams:
    # witnesses: --family-json '{"family":"power","p":"abc"}' raised a bare
    # ValueError, '"p":[1]' a TypeError, and '"r": 4.7' built hamy(4)
    @pytest.mark.parametrize("family, params", [
        ("power", {"p": "abc"}), ("power", {"p": [1]}), ("power", {"p": True}),
        ("power", {"p": None}), ("gini", {"p": 2, "q": "1"}),
        ("hamy", {"r": 4.7}), ("hamy", {"r": "4"}), ("sympoly", {"r": 2.5}),
        ("biplanar", {"p": 2, "q": 3, "c": 1.5, "d": 1}),
        ("biplanar", {"p": 2, "q": 3, "c": 1, "d": math.inf}),
        ("quasiarithmetic", {"f": 5}), ("bajraktarevic", {"f": "identity", "g": 1}),
        ("power", [1]), ("power", "x"),
        # witness: a key the family does not take was ignored
        ("sympoly", {"r": 2, "p": 5}), ("hamy", {"r": 3, "p": 2}),
        ("power", {"p": 1, "kind": "lower"}), ("median", {"r": 2}),
        ("piecewise_h", {"p": 1}), ("gini", {"p": 2, "q": 1, "c": 1}),
    ])
    def test_malformed_params_are_invalid(self, family, params):
        with pytest.raises(InvalidDescriptor):
            ms.descriptor_from_params(family, params)

    def test_integral_floats_are_integers(self):
        assert ms.descriptor_from_params("hamy", {"r": 4.0}).params == {"r": 4}
        d = ms.descriptor_from_params("biplanar",
                                      {"p": 2, "q": 3, "c": 3.0, "d": 3.0})
        assert d.family_id == ms.biplanar(2, 3, 3, 3).family_id

    def test_a_negative_zero_keeps_its_sign(self):
        p = ms.descriptor_from_params("power", {"p": -0.0}).params["p"]
        assert math.copysign(1.0, p) == -1.0

    def test_the_builders_name_the_parameters(self):
        with pytest.raises(InvalidDescriptor,
                           match="^power: missing parameter 'p'$"):
            ms.descriptor_from_params("power", {})
        with pytest.raises(InvalidDescriptor,
                           match="^power takes no parameter 'q'$"):
            ms.descriptor_from_params("power", {"p": 1, "q": 2})
        # the median's kind has a default in median_mean
        median = ms.descriptor_from_params("median", {})
        assert median.params == {"kind": "lower"}

    @pytest.mark.parametrize("family", [5, None, [1], "nope"])
    def test_an_unknown_family_is_invalid(self, family):
        # witness: a family name that is not a string must not reach the
        # table lookup as a TypeError
        with pytest.raises(InvalidDescriptor, match="^unknown family "):
            ms.descriptor_from_params(family, {})


def _bajraktarevic_by_names(f, g):
    return ms.bajraktarevic(ms.pair_from_names(f, g))


# family -> (its public builder, taking the params as keywords, and params
# it builds from)
BUILDERS = {
    "power": (ms.power_mean, {"p": 2.0}),
    "quasiarithmetic": (ms.quasi_arithmetic, {"f": "ln"}),
    "gini": (ms.gini, {"p": 2.0, "q": 1.0}),
    "bajraktarevic": (_bajraktarevic_by_names, {"f": "power:2", "g": "one"}),
    "hamy": (ms.hamy, {"r": 3}),
    "sympoly": (ms.sympoly, {"r": 2}),
    "biplanar": (ms.biplanar, {"p": 2.0, "q": 3.0, "c": 3, "d": 3}),
    "median": (ms.median_mean, {"kind": "lower"}),
    "piecewise_h": (ms.piecewise_counterexample, {}),
    "cube_over_square": (ms.cube_over_square, {}),
}
BAD_VALUES = [None, True, "2", b"2", [1], {}, math.nan, math.inf, 10 ** 400]
SWEEP = [(family, key, value) for family, (_, params) in BUILDERS.items()
         for key in params for value in BAD_VALUES]


class TestRefusalSweep:
    """Every parameter of every family, set to a value of the wrong type or
    range, raises an InvalidDescriptor subclass, through
    ``descriptor_from_params`` and through the builder: never a bare
    exception."""

    def test_the_table_has_every_family(self):
        from meanstream import families

        assert set(BUILDERS) == set(families._BUILDERS)

    @pytest.mark.parametrize("family", BUILDERS)
    def test_the_good_params_build(self, family):
        builder, params = BUILDERS[family]
        assert (ms.descriptor_from_params(family, params).family_id
                == builder(**params).family_id)

    @pytest.mark.parametrize("family, key, value", SWEEP,
                             ids=[f"{f}-{k}-{v!r:.12}" for f, k, v in SWEEP])
    def test_a_bad_value_is_invalid(self, family, key, value):
        builder, params = BUILDERS[family]
        params = {**params, key: value}
        with pytest.raises(InvalidDescriptor):
            ms.descriptor_from_params(family, params)
        with pytest.raises(InvalidDescriptor):
            builder(**params)

    # witnesses: each of these built, or raised AttributeError or
    # ValueError, where the params path refused {"p": true} and {"q": "1"}
    @pytest.mark.parametrize("call", [
        lambda: ms.power_mean(True), lambda: ms.power_mean("2"),
        lambda: ms.power_mean(b"2"), lambda: ms.gini(True, 2),
        lambda: ms.biplanar("2", 3, 3, 3),
        lambda: ms.pair_power(2, None), lambda: ms.pair_power(True, 0),
        lambda: ms.pair_power("2", 1),
        lambda: ms.quasi_arithmetic(5), lambda: ms.quasi_arithmetic(None),
        lambda: ms.bajraktarevic(5), lambda: ms.generator_by_name(5),
        lambda: ms.pair_from_names("identity", 1),
        lambda: ms.BiplanarParams("2", 3.0, 3, 3),
    ], ids=["power-True", "power-str", "power-bytes", "gini-True",
            "biplanar-str", "pair_power-None", "pair_power-True",
            "pair_power-str", "qa-5", "qa-None", "bajraktarevic-5",
            "generator_by_name-5", "pair_from_names-1", "BiplanarParams-str"])
    def test_a_builder_refuses_a_bad_argument(self, call):
        with pytest.raises(InvalidDescriptor):
            call()


class TestLargeCount:
    def test_finalize_emits_no_runtime_warning(self):
        # witness: C(2e6, 8) in a rounded multiplicative formula warned
        # "may have lost precision" at every finalize
        n = 2_000_000
        for d in (ms.hamy(8), ms.sympoly(8)):
            # n ones: e_j = C(n, j), then hamy's plain sum n
            e = tuple(float(math.comb(n, j)) for j in range(1, 9))
            state = ms.AccumulatorState(d, e + (float(n),) * (d.k - 8), n)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert ms.finalize(state) == pytest.approx(1.0, rel=1e-12)


class TestCounterexampleMeans:
    def test_piecewise_values(self):
        d = ms.piecewise_counterexample()
        assert ms.evaluate_stream(d, [3, 4]) == 3.5
        assert ms.evaluate_stream(d, [3, 3, 4, 4]) == pytest.approx(25 / 7, rel=1e-15)
        for x in (3.0, 3.25, 4.0):
            assert ms.evaluate_stream(d, [x]) == x

    @pytest.mark.parametrize("xs", [[3.25], [3.0, 4.0], [3.0, 3.5, 4.0],
                                    [3.0, 3.0, 4.0, 4.0]],
                             ids=["n1", "n2", "n3", "n4"])
    def test_piecewise_oracle_takes_each_branch(self, xs):
        d = ms.piecewise_counterexample()
        assert ms.oracle_direct(d, xs) == pytest.approx(
            ms.evaluate_stream(d, xs), rel=1e-15)

    def test_cube_over_square(self):
        d = ms.cube_over_square()
        assert ms.evaluate_stream(d, [0, 0, 0]) == 0.0
        assert ms.evaluate_stream(d, [3, 4]) == pytest.approx(91 / 25, rel=1e-15)
        assert ms.evaluate_stream(d, [0, 3, 4]) == pytest.approx(91 / 25, rel=1e-15)


class TestMedian:
    def test_odd(self):
        assert ms.evaluate_stream(ms.median_mean("lower"), [3, 1, 2]) == 2

    def test_even_definitional(self):
        xs = [4, 1, 3, 2]
        assert ms.evaluate_stream(ms.median_mean("lower"), xs) == 2
        assert ms.evaluate_stream(ms.median_mean("upper"), xs) == 3

    def test_constant(self):
        assert ms.evaluate_stream(ms.median_mean("lower"), [5.5] * 7) == 5.5


class TestFamilyInvariants:
    def families_on_positives(self):
        return [
            ms.power_mean(1.0), ms.power_mean(0.0), ms.power_mean(3.0),
            ms.gini(2.0, 1.0), ms.gini(3.0, 3.0),
            ms.bajraktarevic(ms.pair_power(2.0, 1.0)),
            ms.hamy(2), ms.hamy(3), ms.sympoly(2), ms.sympoly(3),
            ms.biplanar(2.0, 3.0, 3, 3),
        ]

    def test_mean_property(self):
        rng = random.Random(SEED)
        for d in self.families_on_positives():
            report = ms.check_mean_property(d, trials=200, seed=rng)
            if d.family == "biplanar" and not report.holds:
                # tested but only reported: the mean property is not
                # established for arbitrary biplanar parameters
                print(f"note: biplanar mean-property violation {report.witness}")
                continue
            assert report.holds, report.as_dict()

    def test_homogeneity(self):
        rng = random.Random(SEED)
        for d in self.families_on_positives():
            report = ms.check_homogeneity(d, trials=60, seed=rng)
            assert report.holds, report.as_dict()

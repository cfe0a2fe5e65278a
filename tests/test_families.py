import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import meanstream as ms
from meanstream.core import DomainInterval
from meanstream.errors import (DegenerateExponents, GeneratorInvalid,
                               InvalidDescriptor, NumericalFailure, PairInvalid)
from meanstream.families import GeneratorFunction
from meanstream.symfun import MAX_MULTI_EXPONENTS

RNG_SEED = 20260823


def random_vectors(count, n_max=12, lo=0.5, hi=20.0, seed=RNG_SEED):
    rng = np.random.default_rng(seed)
    return [[float(v) for v in rng.uniform(lo, hi, size=rng.integers(1, n_max + 1))]
            for _ in range(count)]


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
        for xs in random_vectors(20):
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
            for xs in random_vectors(30, seed=5):
                assert ms.evaluate_stream(dg, xs) == pytest.approx(
                    ms.evaluate_stream(dp, xs), rel=1e-10)

    def test_parameter_symmetry(self):
        a, b = ms.gini(2.0, 1.0), ms.gini(1.0, 2.0)
        for xs in random_vectors(50, seed=6):
            assert ms.evaluate_stream(a, xs) == pytest.approx(
                ms.evaluate_stream(b, xs), rel=1e-10)


class TestBajraktarevic:
    def test_power_pair_matches_gini(self):
        d = ms.bajraktarevic(ms.pair_power(2, 1))
        assert ms.evaluate_stream(d, [3, 3, 4, 4]) == pytest.approx(25 / 7)

    def test_constant_g_reduces_to_qa(self):
        d = ms.bajraktarevic(ms.pair_from_names("ln", "one"))
        assert ms.evaluate_stream(d, [1, 4]) == pytest.approx(2.0)

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
        with pytest.raises(InvalidDescriptor):
            ms.hamy(0)

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
        rng = np.random.default_rng(8)
        for r in (2, 3, 4):
            ha, sp = ms.hamy(r), ms.sympoly(r)
            for _ in range(30):
                n = int(rng.integers(r, 11))
                xs = [float(v) for v in rng.uniform(0.5, 20.0, size=n)]
                lhs = ms.evaluate_stream(ha, [x ** r for x in xs]) ** (1.0 / r)
                rhs = ms.evaluate_stream(sp, xs)
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestBiplanar:
    def test_exponent_set_size(self):
        params = ms.BiplanarParams(2.0, 3.0, 3, 3)
        assert params.k == 5
        d = ms.biplanar(2, 3, 3, 3)
        assert d.paper_k == 5
        assert d.ctype.label == "T5+"

    def test_c1_d1_matches_gini(self):
        d = ms.biplanar(2, 1, 1, 1)
        g = ms.gini(2, 1)
        for xs in random_vectors(40, seed=9):
            assert ms.evaluate_stream(d, xs) == pytest.approx(
                ms.evaluate_stream(g, xs), rel=1e-10)

    def test_small_n_power_fallback(self):
        got = ms.evaluate_stream(ms.biplanar(2, 3, 3, 3), [5, 7])
        assert got == pytest.approx(math.sqrt(37), rel=1e-12)

    def test_degenerate_exponents(self):
        with pytest.raises(DegenerateExponents):
            ms.biplanar(2, 3, 3, 2)

    def test_rejects_c_or_d_above_the_recursion_limit(self):
        ms.biplanar(2, 3, MAX_MULTI_EXPONENTS, 1)
        for c, d in ((MAX_MULTI_EXPONENTS + 1, 1), (1, MAX_MULTI_EXPONENTS + 1)):
            with pytest.raises(InvalidDescriptor):
                ms.biplanar(2, 3, c, d)

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
    ])
    def test_malformed_params_are_invalid(self, family, params):
        with pytest.raises(InvalidDescriptor):
            ms.descriptor_from_params(family, params)

    def test_integral_floats_are_integers(self):
        assert ms.descriptor_from_params("hamy", {"r": 4.0}).params == {"r": 4}
        d = ms.descriptor_from_params("biplanar",
                                      {"p": 2, "q": 3, "c": 3.0, "d": 3.0})
        assert d.family_id == ms.biplanar(2, 3, 3, 3).family_id


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
        rng = np.random.default_rng(RNG_SEED)
        for d in self.families_on_positives():
            report = ms.check_mean_property(d, trials=200, seed=rng)
            if d.family == "biplanar" and not report.holds:
                # tested but only reported: the mean property is not
                # established for arbitrary biplanar parameters
                print(f"note: biplanar mean-property violation {report.witness}")
                continue
            assert report.holds, report.as_dict()

    def test_homogeneity(self):
        rng = np.random.default_rng(RNG_SEED)
        for d in self.families_on_positives():
            report = ms.check_homogeneity(d, trials=60, seed=rng)
            assert report.holds, report.as_dict()

import copy
import functools
import json
import math
import numbers
import pickle
import random
import struct
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import meanstream as ms
from meanstream import core, families, state_io
from meanstream.cli import BLOCK_LINES
from meanstream.errors import (DomainError, EmptyStateError, FamilyMismatch,
                               InvalidDescriptor, MeanStreamError,
                               NumericalFailure, ParseError)
from inputs import SEED, all_families, random_vector

try:  # for the numpy-scalar input cases alone, which skip where np is None
    import numpy as np
except ImportError:
    np = None
needs_numpy = pytest.mark.skipif(np is None, reason="a numpy-scalar case: no numpy")


class TestInit:
    def test_power_layout(self):
        s = ms.init(ms.power_mean(1.0))
        assert s.reals == (0.0,)
        assert s.counter == 0

    def test_gini_layout(self):
        s = ms.init(ms.gini(2.0, 1.0))
        assert s.reals == (0.0, 0.0)
        assert s.counter is None

    def test_hamy_layout(self):
        # state is (e_1, e_2) of the square roots, then the plain sum for
        # the n < 2 fallback, plus the counter
        s = ms.init(ms.hamy(2))
        assert s.reals == (0.0, 0.0, 0.0)
        assert s.counter == 0
        s = s.absorb(4.0).absorb(9.0)
        assert s.reals == (5.0, 6.0, 13.0)

    def test_layout_follows_ctype(self):
        # the state length is the slot count where that differs from the
        # paper's type: hamy(r) has r + 1 reals, biplanar(2,3,3,3) c + d = 6
        layouts = [(d.k, d.has_counter, len(ms.init(d).reals))
                   for d in all_families()]
        assert layouts == ([(1, True, 1)] * 4 + [(2, False, 2)] * 3
                           + [(3, True, 3), (4, True, 4)]
                           + [(2, True, 2), (3, True, 3)]
                           + [(6, True, 6), (2, True, 2)]
                           + [(0, True, 0)] * 2)
        labels = [d.type_label for d in all_families()]
        assert labels == (["T1+"] * 4 + ["T2"] * 3 + ["T2+", "T3+"] * 2
                          + ["T5+", "T2+"] + ["no finite type"] * 2)

    def test_init_is_the_descriptors_one_empty_state(self):
        for d in kernel_subjects() + [user_with_leaf_fold([])]:
            assert d.k == len(d.identity) and set(d.identity) <= {0.0}
            assert ms.init(d) is ms.init(d)
            assert ms.init(d) == ms.AccumulatorState(d, d.identity, 0)


class TestAccumulatorState:
    def test_positional_and_keyword_construction(self):
        d = ms.power_mean(1.0)
        s = ms.AccumulatorState(d, (2.0,), 1)
        assert s == ms.AccumulatorState(descriptor=d, reals=(2.0,), count=1)
        assert (s.descriptor, s.reals, s.count) == (d, (2.0,), 1)
        # a NamedTuple: equal to the plain tuple of its fields
        assert s == (d, (2.0,), 1) and len(s) == 3

    @pytest.mark.parametrize("field", ["count", "reals", "descriptor"])
    def test_fields_are_read_only(self, field):
        s = ms.init(ms.power_mean(1.0)).absorb(2.0)
        with pytest.raises(AttributeError):
            setattr(s, field, getattr(s, field))

    def test_derived_values(self):
        cases = [  # descriptor, its family_id, whether it exposes counter
            (ms.power_mean(2.0), 'power:{"p": 2.0}', True),
            (ms.gini(2.0, 1.0), 'gini:{"p": 2.0, "q": 1.0}', False),
            (ms.median_mean("lower"), 'median:{"kind": "lower"}', True),
        ]
        for d, family_id, counted in cases:
            empty, two = ms.init(d), ms.init(d).absorb(3.0).absorb(4.0)
            assert empty.is_empty() and not two.is_empty()
            assert (empty.counter, two.counter) == ((0, 2) if counted else (None, None))
            assert empty.family_id == two.family_id == family_id
            assert not empty.overflow and not two.overflow
            big = ms.init(d).absorb(1e200).absorb(1e200)
            assert big.overflow is (d.family != "median")


class TestAbsorb:
    def test_power_running_sum(self):
        d = ms.power_mean(1.0)
        s = ms.init(d).absorb(2.0).absorb(4.0).absorb(3.0)
        assert s.reals == (9.0,)
        assert s.counter == 3

    def test_gini_encoder(self):
        d = ms.gini(2.0, 1.0)
        s = ms.init(d).absorb(3.0)
        assert s.reals == (9.0, 3.0)

    def test_qa_ln(self):
        d = ms.quasi_arithmetic("ln")
        s = ms.init(d).absorb(math.e)
        assert s.reals == pytest.approx((1.0,))
        assert s.counter == 1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ms.init(ms.power_mean(1.0)).absorb(-1.0)
        with pytest.raises(DomainError):
            ms.init(ms.piecewise_counterexample()).absorb(5.0)

    def test_overflow_is_sticky(self):
        d = ms.power_mean(2.0)
        s = ms.init(d).absorb(1e200).absorb(1e200)
        assert s.overflow
        with pytest.raises(NumericalFailure):
            s.finalize()


class TestAbsorbMany:
    def test_empty_batch_is_identity(self):
        for d in all_families():
            s = ms.init(d).absorb(2.0).absorb(5.0)
            same = ms.absorb_many(s, [])
            assert same.reals == s.reals and same.count == s.count

    def test_domain_error_names_the_first_bad_value(self):
        # the leaf fold tests each element in turn, so the bad value's
        # position and kind must not change which one is named
        d = ms.power_mean(1.0)
        for batch, bad in (([1.0, -3.0, -4.0], -3.0), ([2.0, math.nan, -1.0], math.nan),
                           ([2.0, -1.0, math.nan], -1.0), ([1.0, -0.0, 0.0], -0.0),
                           ([1.0, 0.0, -0.0], 0.0), ([1.0, math.inf], math.inf),
                           ([math.inf, 1e-300, math.nan], math.inf)):
            with pytest.raises(DomainError) as one:
                ms.absorb(ms.init(d), bad)
            with pytest.raises(DomainError) as many:
                ms.absorb_many(ms.init(d), batch)
            assert str(many.value) == str(one.value)
        with pytest.raises(DomainError, match="^5.0 outside"):
            ms.absorb_many(ms.init(ms.piecewise_counterexample()), [3.5, 5.0])

    def test_overflow_fails_at_finalize_both_ways(self):
        d = ms.power_mean(2.0)
        for s in (ms.init(d).absorb(1e200), ms.absorb_many(ms.init(d), [1e200])):
            assert s.overflow
            with pytest.raises(NumericalFailure):
                s.finalize()
        # a step that raises OverflowError makes every component inf, as
        # absorb does
        s = ms.absorb_many(ms.init(ms.quasi_arithmetic("exp")), [1000.0])
        assert s.overflow and s.reals == ms.init(s.descriptor).absorb(1000.0).reals

    def test_one_element_batches_have_absorbs_bytes(self):
        # witness: numpy batch encoders, whose ** and log differ from libm's
        # in the last bit, gave other bytes in 415 of these 14000 cases
        # (biplanar(2, 3, 3, 3) 107, power(3) 105, gini(2.5, 1) 102,
        # hamy(4) 100, power(0) 1)
        rng = random.Random(2000)
        xs = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2000)]
        for d in (ms.power_mean(0.0), ms.power_mean(1.0), ms.power_mean(3.0),
                  ms.gini(2.5, 1.0), ms.hamy(4), ms.biplanar(2.0, 3.0, 3, 3),
                  ms.median_mean("lower")):
            s = ms.init(d)
            for x in xs:
                assert (ms.serialize_state(ms.absorb_many(s, [x]))
                        == ms.serialize_state(ms.absorb(s, x))), (d.name, x)

    def test_blocks_keep_pairwise_accuracy(self):
        # 100k values in eval's blocks: the leaves and the tree above them
        # give the exact mean to 0 ulp; folding each block with step alone
        # (one leaf per block) gives 10 ulp, and absorb per element 17 ulp
        rng = random.Random(27)
        xs = [rng.uniform(0.5, 20.0) for _ in range(100_000)]
        s = ms.init(ms.power_mean(1.0))
        for i in range(0, len(xs), BLOCK_LINES):
            s = ms.absorb_many(s, xs[i:i + BLOCK_LINES])
        exact = float(sum(map(Fraction, xs)) / len(xs))
        assert abs(ms.finalize(s) - exact) <= 4 * math.ulp(exact)

    def test_overflowed_batches_have_absorbs_bytes(self):
        # a batch whose result overflows, in the batch or in the state it
        # joins, has the bytes of absorbing it one element at a time: both
        # are written as k infs
        overflowed = 0
        for d in all_families() + [ms.cube_over_square()]:
            seeded = ms.init(d).absorb(2.0).absorb(5.0)
            for s in (ms.init(d), seeded, seeded.absorb(1e200)):
                for xs in ([1e200], [2.0, 1e200, 3.0], [2.0]):
                    one = s
                    for x in xs:
                        one = one.absorb(x)
                    if one.overflow:
                        overflowed += 1
                        assert (ms.serialize_state(ms.absorb_many(s, xs))
                                == ms.serialize_state(one))
        assert overflowed == 46  # of 144 cases

    def test_an_overflowed_leaf_with_finite_running_totals_is_rerun(self):
        # witness: leaf 2 sums the two -1e308 to -inf, and so does the tree,
        # but absorb's running total goes 1e308, 0, -1e308 and stays finite;
        # absorb_many must not return an overflowed state for it
        d = ms.quasi_arithmetic("identity")
        for sign in (1.0, -1.0):
            xs = [sign * 1e308] + [0.0] * (core.LEAF - 1) + [-sign * 1e308] * 2
            one = ms.init(d)
            for x in xs:
                one = one.absorb(x)
            many = ms.absorb_many(ms.init(d), xs)
            assert not many.overflow
            assert ms.serialize_state(many) == ms.serialize_state(one)
            assert many.finalize() == one.finalize() == -sign * 1e308 / 66

    def test_overflowed_e_states_keep_their_bytes(self):
        # pinned state text: an OverflowError in step (x ** 2 of 1e200)
        # makes every component inf, and an overflowed state is written as
        # k infs, so absorb and absorb_many give the same bytes
        head = ('{"version": 2, "family": "biplanar", "params": {"p": 2.0, '
                '"q": 3.0, "c": 3, "d": 3}, "k": 6, "reals": ')
        biplanar = {
            "one": '["inf", "inf", "inf", "inf", "inf", "inf"], "counter": 1',
            "absorb": '["inf", "inf", "inf", "inf", "inf", "inf"], "counter": 3',
        }
        d = ms.biplanar(2.0, 3.0, 3, 3)
        seeded = ms.init(d).absorb(2.0).absorb(5.0)
        for key, s in (("one", ms.init(d).absorb(1e200)),
                       ("one", ms.absorb_many(ms.init(d), [1e200])),
                       ("absorb", seeded.absorb(1e200)),
                       ("absorb", ms.absorb_many(seeded, [1e200]))):
            want = f'{head}{biplanar[key]}, "overflow": true}}'
            assert ms.serialize_state(s).decode() == want
            with pytest.raises(NumericalFailure):
                ms.finalize(s)
        # hamy(4) stores 1e200 ** 0.25, which does not overflow, so its n < r
        # fallback returns the input; two 1e308 overflow its plain sum, and
        # the finite e_1 and e_2 it still holds are written as inf too
        d = ms.hamy(4)
        head = '{"version": 2, "family": "hamy", "params": {"r": 4}, "k": 5, "reals": '
        for s in (ms.init(d).absorb(1e200), ms.absorb_many(ms.init(d), [1e200])):
            assert ms.serialize_state(s).decode() == (
                f'{head}["0x1.11b0ec57e649ap+166", "0x0.0p+0", "0x0.0p+0", '
                '"0x0.0p+0", "0x1.4e718d7d7625ap+664"], "counter": 1, '
                '"overflow": false}')
            assert ms.finalize(s) == 1e200
        for s in (ms.init(d).absorb(1e308).absorb(1e308),
                  ms.absorb_many(ms.init(d), [1e308, 1e308])):
            assert ms.serialize_state(s).decode() == (
                f'{head}["inf", "inf", "inf", "inf", "inf"], "counter": 2, '
                '"overflow": true}')
            with pytest.raises(NumericalFailure):
                ms.finalize(s)


# values outside some built-in's domain, and 1e200, whose x ** 2 raises
# OverflowError and whose square overflows the e-state products
SPECIALS = [1e200, math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5.0]


def _decides_as_absorb(d, xs) -> str:
    """absorb_many of xs raises the DomainError of absorbing xs in turn, or
    has its count, and its bytes where absorb's route overflows; returns
    what absorb's route did."""
    try:
        one = functools.reduce(ms.absorb, xs, ms.init(d))
    except DomainError as e:
        with pytest.raises(DomainError) as raised:
            ms.absorb_many(ms.init(d), xs)
        assert str(raised.value) == str(e), d.name
        return "domain"
    many = ms.absorb_many(ms.init(d), xs)
    assert many.count == one.count == len(xs), d.name
    if one.overflow:
        assert ms.serialize_state(many) == ms.serialize_state(one), d.name
        return "overflow"
    return "finite"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=3 * core.LEAF),
       st.lists(st.tuples(st.integers(0, 3 * core.LEAF),
                          st.sampled_from(SPECIALS)), max_size=4))
@example(us=[0.5] * (3 * core.LEAF - 2),
         specials=[(0, 1e200), (core.LEAF + 1, -1.0)])
@example(us=[0.5] * core.LEAF, specials=[(core.LEAF, 1e200)])
def test_absorb_many_decides_as_absorb_does(us, specials):
    """Batches up to 3 * LEAF long that mix values inside the domain, values
    whose step overflows and values outside it, at any position across the
    leaf boundaries: absorb_many names absorb's first bad value, and where
    absorb's route overflows it has that route's bytes."""
    for d in kernel_subjects():
        xs = [_in_domain(d, u) for u in us]
        for at, x in specials:
            xs.insert(at, x)
        _decides_as_absorb(d, xs)


def test_absorb_many_decides_as_absorb_does_on_its_witnesses():
    # witness: power(2)'s fold raises OverflowError at 1e200 ** 2, so the
    # re-run through absorb must name the -1.0 in the leaf after it
    batch = [1e200] + [1.0] * 70 + [-1.0]
    with pytest.raises(DomainError, match="^-1.0 outside domain of power"):
        ms.absorb_many(ms.init(ms.power_mean(2.0)), batch)
    seen = set()
    for d in kernel_subjects() + [ms.power_mean(2.0)]:
        seen.add(_decides_as_absorb(d, batch))
        seen.add(_decides_as_absorb(d, [2.0] * 65 + [math.nan]))
    assert seen == {"domain", "overflow", "finite"}


def _in_domain(d, u: float) -> float:
    """Map u in [0, 1] into d's domain: log-uniform over [1e-3, 1e3] on the
    positive reals, [3, 4] for the piecewise mean, [-1e3, 1e3] otherwise."""
    if d.domain.lo == 0.0:
        return 10.0 ** (6.0 * u - 3.0)
    if d.family == "piecewise_h":
        return 3.0 + u
    return 2e3 * u - 1e3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=48),
       st.lists(st.integers(0, 48), max_size=4))
def test_absorb_many_matches_absorb(us, cuts):
    """Batches split anywhere give per-element absorb's reals, to within
    1e-12 of the largest magnitude each component takes in the per-element
    run (exactly: median).  A sum's rounding error is bounded by its
    summands, and each summand is at most twice that magnitude."""
    bounds = [0, *sorted(min(c, len(us)) for c in cuts), len(us)]
    for d in all_families() + [ms.piecewise_counterexample(),
                               ms.cube_over_square()]:
        xs = [_in_domain(d, u) for u in us]
        one, prefixes = ms.init(d), []
        for x in xs:
            one = ms.absorb(one, x)
            prefixes.append(one.reals)
        many = ms.init(d)
        for lo, hi in zip(bounds, bounds[1:]):
            many = ms.absorb_many(many, xs[lo:hi])
        assert many.count == one.count
        if d.ctype is None:
            assert many.reals == one.reals
            continue
        scale = [max(map(abs, col), default=0.0) for col in zip(*prefixes)]
        for got, want, mag in zip(many.reals, one.reals, scale):
            assert abs(got - want) <= 1e-12 * mag


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=24), st.floats(0.0, 1.0))
def test_step_matches_combine(us, u):
    """``step`` and ``combine`` describe one semigroup: absorbing x gives,
    bit for bit, the reals of merging with the one-element state of x."""
    for d in all_families() + [ms.piecewise_counterexample(),
                               ms.cube_over_square()]:
        s = ms.init(d)
        for v in us:
            s = ms.absorb(s, _in_domain(d, v))
        x = _in_domain(d, u)
        stepped = ms.absorb(s, x).reals
        merged = ms.merge(s, ms.absorb(ms.init(d), x)).reals
        assert [v.hex() for v in stepped] == [v.hex() for v in merged], d.name


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2 * core.LEAF),
       st.data())
def test_overflowed_bytes_do_not_depend_on_the_route(us, data):
    """Streams with 1e200, 1e308 or -1e308 inserted (its absolute value
    off the real line): one absorb per element, one absorb_many, and shards
    built by any mix of the two, optionally sent through serialize and
    parse, then merged by any tree.  An overflowed state has the same bytes
    on every route, and absorb_many overflows only if absorb does.  With
    big values of one sign, all routes agree on whether the state
    overflowed; with both, a sum in another order may overflow where the
    running totals do not, or cancel where they do."""
    stream = list(us)  # u in [0, 1] is mapped into each domain, the big kept
    bigs = st.sampled_from([1e200, 1e308, -1e308])
    for i, big in data.draw(st.lists(st.tuples(st.integers(0, len(us)), bigs),
                                     min_size=1, max_size=3)):
        stream.insert(i, big)
    n = len(stream)
    bounds = [0, *sorted(data.draw(st.lists(st.integers(0, n), max_size=5))), n]
    shards = [(lo, hi, data.draw(st.integers(lo, hi)), data.draw(st.booleans()))
              for lo, hi in zip(bounds, bounds[1:])]
    joins = [data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 2),
                                 st.booleans()))
             for m in range(len(shards), 1, -1)]
    overflowed = set()
    for d in all_families() + [ms.cube_over_square(),
                               ms.quasi_arithmetic("identity")]:
        xs = [_in_domain(d, x) if abs(x) <= 1.0
              else x if d.domain.contains(x) else -x for x in stream]
        one = ms.init(d)
        for x in xs:
            one = ms.absorb(one, x)
        states = []
        for lo, hi, mid, round_trip in shards:  # absorb up to mid, then a batch
            s = ms.init(d)
            for x in xs[lo:mid]:
                s = ms.absorb(s, x)
            s = ms.absorb_many(s, xs[mid:hi])
            states.append(ms.parse_state(ms.serialize_state(s))
                          if round_trip else s)
        for i, j, first in joins:  # merge states[i] into one of the others
            a = states.pop(i)
            states[j] = ms.merge(a, states[j]) if first else ms.merge(states[j], a)
        many = ms.absorb_many(ms.init(d), xs)
        routes = (one, many, states[0])
        assert [s.count for s in routes] == [n] * 3, d.name
        assert one.overflow or not many.overflow, d.name
        if len({x > 0 for x in xs if abs(x) >= 1e200}) == 1:
            assert len({s.overflow for s in routes}) == 1, d.name
        assert len({ms.serialize_state(s) for s in routes if s.overflow}) <= 1
        if one.overflow:
            overflowed.add(d.name)
    assert "gini(p=2.0,q=1.0)" in overflowed  # 1e200 ** 2 overflows


def test_overflowed_reals_depend_on_the_route_but_not_the_bytes():
    """absorb may keep a finite component of an overflowed state, where
    merge makes every component inf: only the bytes and finalize's failure
    are the same on every route."""
    d, xs = ms.cube_over_square(), [1e102] * 200
    one = ms.init(d)
    for x in xs:
        one = ms.absorb(one, x)
    many = ms.absorb_many(ms.init(d), xs)
    halves = ms.merge(ms.absorb_many(ms.init(d), xs[:100]),
                      ms.absorb_many(ms.init(d), xs[100:]))
    assert one.reals == many.reals == (math.inf, 2.0000000000000033e+206)
    assert halves.reals == (math.inf, math.inf)
    routes = (one, many, halves)
    assert len({ms.serialize_state(s) for s in routes}) == 1
    for s in routes:
        with pytest.raises(NumericalFailure):
            ms.finalize(s)


def kernel_subjects():
    """Every family of all_families, the three beyond it, and a user-built
    descriptor, whose kernels are derived from its step."""
    user = ms.MeanDescriptor(
        "user_sum_of_squares", {}, ms.DomainInterval(-1e3, 1e3, True, False),
        ms.ComplexityType(2, False), lambda r, x: (r[0] + x * x, r[1] + x),
        lambda reals, n: reals[0] / reals[1])
    return all_families() + [ms.piecewise_counterexample(),
                             ms.cube_over_square(),
                             ms.quasi_arithmetic("identity"), user]


def user_with_leaf_fold(calls: list):
    """A user-built descriptor with its own leaf fold, which appends each
    leaf it folds to calls."""

    def fold(xs, reals):
        calls.append(list(xs))
        return reals[0] + sum(xs), reals[1] + len(xs)

    return ms.MeanDescriptor(
        "user_mean", {}, ms.DomainInterval.reals(), ms.ComplexityType(2, False),
        lambda r, x: (r[0] + x, r[1] + 1.0),
        lambda reals, n: reals[0] / reals[1], leaf_fold=fold)


def _hexes(reals) -> list:
    return [float(v).hex() for v in reals]


class TestKernels:
    """The three kernels core calls: the checked step, the leaf fold and
    the combine (``MeanDescriptor.kernels``)."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0])),
                    max_size=2 * core.LEAF),
           st.integers(0, 2 * core.LEAF))
    @example(us=[0.0, -0.0, 0.0, -0.0], cut=1)
    def test_leaf_fold_is_reduce_of_the_step(self, us, cut):
        """Bit for bit, from the identity and from a state with elements
        in it; the median's -0.0 and 0.0 keep insort's order.  A table's
        ``step`` is its fold of one element, so the fold is checked against
        the generated absorb, whose code is generated apart."""
        for d in kernel_subjects():
            xs = [x for x in (_in_domain(d, u) if u else u for u in us)
                  if d.domain.contains(x)]  # the median keeps the zeros
            absorb, fold, _ = d.kernels
            head, tail = xs[:cut], xs[cut:]
            start = fold(head, d.identity)

            def checked(reals, x):
                # a count of len(reals) keeps the state rule: the median's
                # multiset has that many elements, and a finite type's
                # k >= 1 reals may be anything at a non-zero count
                return absorb(ms.AccumulatorState(d, reals, len(reals)),
                              x).reals

            for step in (checked, d.step):
                assert _hexes(start) == _hexes(
                    functools.reduce(step, head, d.identity)), d.name
                assert _hexes(fold(tail, start)) == _hexes(
                    functools.reduce(step, tail, start)), d.name

    def test_checked_step_raises_absorbs_domain_error(self):
        """Outside the domain, with absorb's message; inside, the step.  The
        checked step is the generated absorb, which maps a state to the
        next."""
        outside = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                   math.nextafter(3.0, -math.inf), math.nextafter(4.0, math.inf),
                   math.nextafter(1e3, math.inf), 1e3, -1e3]
        for d in kernel_subjects():
            checked = d.kernels[0]
            state = ms.absorb(ms.init(d), _in_domain(d, 0.5))
            tested = 0
            for x in outside + [3.0, 4.0, 1.0, 0.5]:
                if d.domain.contains(x):
                    after = checked(state, x)
                    assert _hexes(after.reals) == _hexes(
                        d.step(state.reals, x)), (d.name, x)
                    # the descriptor is the kernel's constant, the count
                    # read by index
                    assert after.descriptor is d, d.name
                    assert after.count == state.count + 1, d.name
                    continue
                with pytest.raises(DomainError) as raised:
                    ms.absorb(state, x)
                assert str(raised.value) == f"{x} outside domain of {d.name}"
                with pytest.raises(DomainError) as kernel:
                    checked(state, x)
                assert str(kernel.value) == str(raised.value)
                tested += 1
            assert tested >= 3, d.name

    def test_leaf_fold_raises_absorbs_domain_error(self):
        """The leaf fold tests each element as the checked step does, and
        a table's ``step``, its fold of one element, raises the same."""
        outside = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                   math.nextafter(3.0, -math.inf), math.nextafter(4.0, math.inf),
                   math.nextafter(1e3, math.inf), 1e3, -1e3]
        for d in kernel_subjects():
            fold = d.kernels[1]
            inside = _in_domain(d, 0.5)
            state = ms.absorb(ms.init(d), inside)
            tested = 0
            for x in outside:
                if d.domain.contains(x):
                    continue
                with pytest.raises(DomainError) as raised:
                    ms.absorb(state, x)
                calls = [lambda: fold([x], d.identity),
                         lambda: fold([inside] * core.LEAF + [x], state.reals)]
                if d.blocks is not None:
                    calls.append(lambda: d.step(state.reals, x))
                for call in calls:
                    with pytest.raises(DomainError) as kernel:
                        call()
                    assert str(kernel.value) == str(raised.value), (d.name, x)
                tested += 1
            assert tested >= 3, d.name

    def test_float_conversion_is_outside_the_overflow_guard(self):
        # an OverflowError of the step makes every component inf, one of
        # float() is the caller's: 10**400 is no float
        for d in kernel_subjects():
            with pytest.raises(OverflowError):
                ms.absorb(ms.init(d), 10 ** 400)

    @staticmethod
    def absorbs_as_its_float(threes):
        """Each of threes absorbs as 3.0: same bytes, every real a float."""
        for d in kernel_subjects():
            s = ms.absorb(ms.init(d), _in_domain(d, 0.5))
            if d.domain.contains(3.0):
                want = ms.serialize_state(ms.absorb(s, 3.0))
                for x in threes:
                    after = ms.absorb(s, x)
                    assert ms.serialize_state(after) == want, (d.name, x)
                    assert all(type(r) is float for r in after.reals), (
                        d.name, type(x))
                continue
            with pytest.raises(DomainError) as as_int:
                ms.absorb(s, 3)
            with pytest.raises(DomainError) as as_float:
                ms.absorb(s, 3.0)
            assert str(as_int.value) == str(as_float.value), d.name

    def test_an_int_absorbs_as_its_float(self):
        """An int and a float subclass absorb as the plain float."""

        class Subclass(float):
            pass

        self.absorbs_as_its_float((3, Subclass(3.0)))

    @needs_numpy
    def test_a_numpy_float_absorbs_as_its_float(self):
        self.absorbs_as_its_float((np.float64(3.0),))

    def test_an_overflowing_user_step_gives_k_infs(self):
        d = ms.MeanDescriptor(
            "user_exp", {}, ms.DomainInterval(), ms.ComplexityType(2, False),
            lambda r, x: (r[0] + math.exp(x), r[1] + 1.0),
            lambda reals, n: math.log(reals[0] / reals[1]))
        s = ms.absorb(ms.absorb(ms.init(d), 1.0), 1000.0)  # exp overflows
        assert s.reals == (math.inf, math.inf) and s.count == 2
        assert ms.absorb(s, 1.0).reals == (math.inf, math.inf)

    def test_a_user_leaf_fold_folds_each_leaf(self):
        calls = []
        d = user_with_leaf_fold(calls)
        xs = [float(i) for i in range(2 * core.LEAF + 3)]
        state = ms.absorb_many(ms.init(d), xs)
        assert calls == [xs[:core.LEAF], xs[core.LEAF:2 * core.LEAF],
                         xs[2 * core.LEAF:]]
        assert state.reals == (sum(xs), float(len(xs)))
        assert ms.finalize(state) == sum(xs) / len(xs)

    def test_kernels_compile_on_first_use(self):
        d = ms.hamy(3)
        stand_ins = d.kernels
        assert ms.absorb(ms.init(d), 2.0).reals == d.step(d.identity, 2.0)
        assert d.kernels is not stand_ins
        assert d.kernels[2] is d.kernels[2]  # compiled once
        fresh = ms.hamy(3)
        _, fold, combine = fresh.kernels  # stand-ins, compiled by one call
        assert combine(fold([2.0], fresh.identity), fresh.identity) == (
            ms.absorb(ms.init(fresh), 2.0).reals)


class TestMerge:
    def test_overflowed_merge_is_every_component_inf(self):
        # witness: merging this overflowed biplanar state with a
        # one-element state held inf, inf, nan, inf, inf, nan in memory
        # (written as six infs), where absorbing the element held six infs
        d = ms.biplanar(2.0, 3.0, 3, 3)
        one = ms.init(d)
        for x in [1.0 + i / 8 for i in range(20)] + [1e200]:
            one = ms.absorb(one, x)
        single = ms.absorb(ms.init(d), 2.0)
        assert one.overflow
        for merged in (ms.merge(one, single), ms.merge(single, one)):
            assert merged == one.absorb(2.0)
            assert merged.reals == (math.inf,) * 6
        median = ms.absorb(ms.init(ms.median_mean()), 2.0)
        assert ms.merge(median, median).reals == (2.0, 2.0)

    @pytest.mark.parametrize("reals", [(10 ** 200,) * 3, (10 ** 300, 4.0, 5.0)],
                             ids=["ints", "ints-and-floats"])
    def test_int_reals_whose_product_passes_the_float_range_overflow(
            self, reals):
        # witnesses: e_2 of the merge is the int 10**400, so the finiteness
        # test of the result raised a bare OverflowError; with 10**600 the
        # combine raised it, adding the int to a float
        big = ms.AccumulatorState(ms.hamy(2), reals, 2)
        merged = ms.merge(big, big)
        assert merged.reals == (math.inf,) * 3 and merged.count == 4
        with pytest.raises(NumericalFailure, match="non-finite"):
            ms.finalize(merged)

    def test_additivity(self):
        d = ms.power_mean(1.0)
        a = ms.init(d).absorb(3.0)
        b = ms.init(d).absorb(3.0).absorb(4.0)
        m = a.merge(b)
        assert m.reals == (10.0,)
        assert m.counter == 3

    def test_gini_hand_addition(self):
        d = ms.gini(2.0, 1.0)
        a = ms.AccumulatorState(d, (9.0, 3.0), 1)
        b = ms.AccumulatorState(d, (16.0, 4.0), 1)
        assert a.merge(b).reals == (25.0, 7.0)

    def test_init_is_zero_element(self):
        d = ms.gini(2.0, 1.0)
        s = ms.init(d).absorb(3.0).absorb(4.0)
        assert s.merge(ms.init(d)).reals == s.reals

    def test_family_mismatch(self):
        with pytest.raises(FamilyMismatch):
            ms.merge(ms.init(ms.power_mean(1.0)), ms.init(ms.power_mean(2.0)))

    @pytest.mark.parametrize("d, reals, count, good", [
        (ms.hamy(2), ("a",), 2, [3.0]),
        (ms.power_mean(1), (1.0,), -3, [1.0, 2.0, 3.0, 4.0, 5.0]),
    ], ids=["str-real", "negative-count"])
    def test_a_malformed_operand_is_numerical_failure(
            self, d, reals, count, good):
        # witnesses: str-real raised a bare ValueError from the combine, and
        # negative-count returned a count 2 state of five elements, which
        # finalize then accepted (STATE_FAULTS holds more malformed states);
        # the constructor refuses such an operand, so merge never gets one
        good = ms.absorb_many(ms.init(d), good)
        for build in (lambda: ms.AccumulatorState(d, reals, count),
                      lambda: good._replace(reals=reals, count=count)):
            with pytest.raises(NumericalFailure):
                build()


class TestFinalize:
    def test_gini_state(self):
        d = ms.gini(2.0, 1.0)
        s = ms.AccumulatorState(d, (25.0, 7.0), 4)
        assert s.finalize() == pytest.approx(25 / 7, rel=1e-15)

    def test_power_state(self):
        d = ms.power_mean(1.0)
        assert ms.AccumulatorState(d, (10.0,), 4).finalize() == 2.5

    def test_qa_geometric(self):
        d = ms.quasi_arithmetic("ln")
        s = ms.init(d).absorb(1.0).absorb(4.0)
        assert s.finalize() == pytest.approx(2.0, rel=1e-15)

    def test_empty_state_errors(self):
        for d in all_families():
            with pytest.raises(EmptyStateError):
                ms.finalize(ms.init(d))

    @pytest.mark.parametrize("d", [ms.power_mean(1.0), ms.median_mean()],
                             ids=["power", "median"])
    @pytest.mark.parametrize("empty", [list, iter], ids=["list", "iterator"])
    def test_an_empty_stream_is_an_empty_state(self, d, empty):
        # no run reaches merge_tree, which gives None, so the empty state
        # is finalized
        with pytest.raises(EmptyStateError):
            ms.evaluate_stream(d, empty([]))

    def test_complex_value_is_numerical_failure(self):
        # witness: Newton's identities from power sums cancelled to a
        # negative sigma, whose 8th root is complex, and finalize leaked a
        # bare TypeError; the e-state finalizes it to the direct value
        xs = [0.0068512217300177106, 0.02346348958286343, 95.60183817494051,
              0.002482934692833788, 0.11043935883065963, 0.003467932778097728,
              0.03740424522616018, 0.002198437006228983, 0.4645995283393699]
        want = 0.055115213264166775
        assert ms.oracle_direct(ms.sympoly(8), xs) == want
        assert ms.evaluate_stream(ms.sympoly(8), xs) == want
        # a finalizer that returns a complex number
        d = ms.MeanDescriptor(
            family="complex_root", params={}, domain=ms.DomainInterval.reals(),
            ctype=ms.ComplexityType(1, True), step=lambda r, x: (r[0] + x,),
            finalizer=lambda reals, n: (reals[0] / n) ** 0.5)
        with pytest.raises(NumericalFailure):
            ms.evaluate_stream(d, [-4.0])

    def test_overflow_is_numerical_failure(self):
        # C(10**30, 12) does not fit a float; finalize must not leak the
        # OverflowError of the division (hamy(12) holds k = 13 reals)
        d = ms.hamy(12)
        s = ms.AccumulatorState(d, (1e30,) * d.k, 10 ** 30)
        with pytest.raises(NumericalFailure, match="finalizer failed"):
            ms.finalize(s)

    def test_value_error_is_numerical_failure(self):
        # witness: exp underflows to 0 on both values, and the finalizer's
        # log(0) leaked a bare ValueError ("math domain error")
        with pytest.raises(NumericalFailure):
            ms.evaluate_stream(ms.quasi_arithmetic("exp"), [-800.0, -801.0])

    @staticmethod
    def _returning(value):
        """A one-slot descriptor whose finalizer returns value."""
        return ms.MeanDescriptor(
            family="constant", params={}, domain=ms.DomainInterval.reals(),
            ctype=ms.ComplexityType(1, True), step=lambda r, x: (r[0] + x,),
            finalizer=lambda reals, n: value)

    @pytest.mark.parametrize("value", [
        1.5, 3, pytest.param(np and np.float32(1.5), marks=needs_numpy),
        Fraction(3, 2)], ids=["float", "int", "float32", "Fraction"])
    def test_a_finite_real_is_returned_as_is(self, value):
        assert ms.evaluate_stream(self._returning(value), [1.0]) is value

    @pytest.mark.parametrize("value", [
        complex(1.5, 0.0), math.inf, math.nan,
        pytest.param(np and np.float32("inf"), marks=needs_numpy), "1.5", None],
        ids=["complex", "inf", "nan", "float32-inf", "str", "None"])
    def test_anything_else_is_numerical_failure(self, value):
        with pytest.raises(NumericalFailure, match="finalizer produced"):
            ms.evaluate_stream(self._returning(value), [1.0])

    @pytest.mark.parametrize("reals", [("a",), (None,), (1.0, "2")],
                             ids=["str", "None", "float-and-str"])
    def test_reals_that_are_not_numbers_are_numerical_failure(self, reals):
        # witness: a hand-built power(1) state with a str real raised a
        # bare TypeError ("must be real number, not str")
        d = ms.power_mean(1) if len(reals) == 1 else ms.gini(2.0, 1.0)
        with pytest.raises(NumericalFailure, match="non-numeric"):
            ms.finalize(ms.AccumulatorState(d, reals, 1))

    @pytest.mark.parametrize("count", ["2", 2.5, -3, True, False],
                             ids=["str", "float", "negative", "True", "False"])
    def test_a_count_that_is_not_a_non_negative_int_is_numerical_failure(
            self, count):
        # witnesses: "2" raised a bare TypeError, 2.5 gave 0.4, -3 gave
        # -0.333 (outside [min, max]) and True gave 1.0
        with pytest.raises(NumericalFailure, match="not a non-negative int"):
            ms.finalize(ms.AccumulatorState(ms.power_mean(1), (1.0,), count))

    @pytest.mark.parametrize("d, reals, count, match", [
        (ms.power_mean(1), (1.0, 2.0), 2, "expected 1 components, got 2"),
        (ms.hamy(2), (1.0,), 2, "expected 3 components, got 1"),
        (ms.median_mean(), (1.0, 2.0), 5, "expected 5 components, got 2"),
        (ms.power_mean(1), (10 ** 400,), 1, "past the float range"),
    ], ids=["too-long", "too-short", "median-not-count", "int-past-floats"])
    def test_reals_of_the_wrong_length_or_range_are_numerical_failure(
            self, d, reals, count, match):
        # witnesses: too-long gave 0.5 from the first real alone; too-short
        # and median-not-count raised a bare IndexError, and int-past-floats
        # a bare OverflowError from the finiteness test
        with pytest.raises(NumericalFailure, match=match):
            ms.finalize(ms.AccumulatorState(d, reals, count))

    def test_a_state_keeps_its_reals_as_a_tuple(self):
        # witnesses: the state kept the caller's list, so changing the list
        # changed the mean and hash(state) raised TypeError; reals {2.0}
        # made finalize raise a bare TypeError ("'set' object is not
        # subscriptable")
        d, reals = ms.power_mean(1.0), [2.0]
        state = ms.AccumulatorState(d, reals, 1)
        reals[0] = 100.0
        assert state.reals == (2.0,) and type(state.reals) is tuple
        assert ms.finalize(state) == 2.0
        assert hash(state) == hash(ms.AccumulatorState(d, (2.0,), 1))
        assert ms.finalize(ms.AccumulatorState(d, {2.0}, 1)) == 2.0
        same = (2.0,)
        assert ms.AccumulatorState(d, same, 1).reals is same

    @staticmethod
    def hand_built(d, data) -> tuple:
        """(reals, count) for a hand-built state of d: reals of any length
        from 0 to k + 2, of any element type, in a tuple, list or set, and
        a count of any type."""
        real = st.one_of(st.floats(), st.integers(-10 ** 20, 10 ** 20),
                         st.just(10 ** 400), st.text(max_size=2), st.none())
        container = data.draw(st.sampled_from([tuple, list, set]))
        reals = container(data.draw(st.lists(real, max_size=d.k + 2)))
        count = data.draw(st.one_of(
            st.integers(-3, 40), st.just(10 ** 30), st.floats(),
            st.booleans(), st.text(max_size=2), st.none()))
        return reals, count

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, len(all_families()) - 1), st.data())
    def test_a_hand_built_state_finalizes_or_raises_a_mean_stream_error(
            self, index, data):
        """finalize of a hand-built state returns a finite real (a
        finalizer's non-float real passes as it is, such as a median's int
        real) or raises a MeanStreamError subclass, never another
        exception; the constructor may refuse it."""
        d = all_families()[index]
        reals, count = self.hand_built(d, data)
        try:
            state = ms.AccumulatorState(d, reals, count)
            value = ms.finalize(state)
        except MeanStreamError:
            return
        assert isinstance(value, numbers.Real) and math.isfinite(value), (
            state, value)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, len(all_families()) - 1), st.data())
    def test_a_hand_built_state_merges_or_raises_a_mean_stream_error(
            self, index, data):
        """A hand-built state merged with a well-formed one, in both orders,
        then finalized: a finite real or a MeanStreamError subclass; the
        constructor may refuse it."""
        d = all_families()[index]
        reals, count = self.hand_built(d, data)
        good = ms.absorb_many(ms.init(d), [_in_domain(d, 0.25),
                                           _in_domain(d, 0.75)])
        try:
            state = ms.AccumulatorState(d, reals, count)
        except MeanStreamError:
            return
        for a, b in ((state, good), (good, state)):
            try:
                value = ms.finalize(ms.merge(a, b))
            except MeanStreamError:
                continue
            assert isinstance(value, numbers.Real) and math.isfinite(value), (
                a, b, value)

    def test_zero_division_is_numerical_failure(self):
        d = ms.MeanDescriptor(
            family="reciprocal", params={}, domain=ms.DomainInterval.reals(),
            ctype=ms.ComplexityType(1, True), step=lambda r, x: (r[0] + x,),
            finalizer=lambda reals, n: n / reals[0])
        with pytest.raises(NumericalFailure):
            ms.evaluate_stream(d, [0.0])


# (descriptor, reals, count, reason): states that break the state rule,
# refused with the same reason by the constructor, so that finalize and
# merge never get one, and by both parses.
# Witnesses: merge raised a bare ValueError for too-long and a bare
# TypeError for str-count
STATE_FAULTS = [
    (ms.power_mean(1), (1.0, 2.0), 2, "expected 1 components, got 2"),
    (ms.hamy(2), (1.0,), 2, "expected 3 components, got 1"),
    (ms.power_mean(1), (1.0,), -3, "bad counter -3: not a non-negative int"),
    (ms.power_mean(1), (1.0,), "2", "bad counter '2': not a non-negative int"),
    (ms.power_mean(1), (1.0,), 2.0, "bad counter 2.0: not a non-negative int"),
    (ms.power_mean(1), (1.0,), True, "bad counter True: not a non-negative int"),
    (ms.power_mean(1), (1.0,), None, "bad counter None: not a non-negative int"),
    # merged with a state of [2.0], it gave reals (102.0,) at count 1
    (ms.power_mean(1), (100.0,), 0,
     "an empty state must hold the identity reals"),
    (ms.median_mean(), (1.0, 2.0), 5, "expected 5 components, got 2"),
    # finalize gave 3.0, where the lower median of {1, 3} is 1.0
    (ms.median_mean(), (3.0, 1.0), 2, "components are not in ascending order"),
    (ms.median_mean(), (math.nan, 2.0), 2,
     "state carries non-finite components"),
    (ms.median_mean(), (1.0, math.inf), 2,
     "state carries non-finite components"),
]


@pytest.mark.parametrize("d, reals, count, reason", STATE_FAULTS, ids=[
    "too-long", "too-short", "negative-count", "str-count", "float-count",
    "bool-count", "null-count", "empty-not-identity", "median-not-count",
    "median-unsorted", "median-nan", "median-inf"])
def test_finalize_merge_and_parse_refuse_a_state_by_one_rule(
        d, reals, count, reason):
    """At construction, by ``_replace`` of a well-formed state, by copy and
    pickle of a state that skipped the constructor (``tuple.__new__``),
    and by both parses."""
    good = ms.absorb_many(ms.init(d), [1.0, 2.0])
    smuggled = tuple.__new__(ms.AccumulatorState, (d, reals, count))
    refusals = [
        (NumericalFailure, lambda: ms.AccumulatorState(d, reals, count)),
        (NumericalFailure, lambda: good._replace(reals=reals, count=count)),
        (NumericalFailure, lambda: copy.copy(smuggled)),
        (NumericalFailure, lambda: pickle.loads(pickle.dumps(smuggled)))]
    blob = json.dumps({"version": 2, "family": d.family, "params": d.params,
                       "k": len(reals), "reals": [r.hex() for r in reals],
                       "counter": count, "overflow": False})
    for parse in (ms.parse_state, state_io._parse_json):
        refusals.append((ParseError, functools.partial(parse, blob)))
    for error, refuse in refusals:
        with pytest.raises(error) as raised:
            refuse()
        assert str(raised.value) == reason


@pytest.mark.parametrize("descriptor, reals, count",
                         [(None, (), 0), ("power", (1.0,), 1)],
                         ids=["None", "str"])
def test_a_state_without_a_descriptor_is_invalid_descriptor(descriptor, reals,
                                                            count):
    # witnesses: a bare AttributeError, "'NoneType' object has no attribute
    # 'ctype'" and "'str' object has no attribute 'ctype'"
    with pytest.raises(InvalidDescriptor, match="is not a MeanDescriptor"):
        ms.AccumulatorState(descriptor, reals, count)



# (use, descriptor, reals, count): a use of a hand-built state that breaks
# the state rule, which the constructor refuses before the use.
# Witnesses: each absorb and absorb_many raised a bare ValueError or
# TypeError; empty-not-identity finalized to 102.0; serialize wrote
# "counter": 2 and "counter": True; overflow raised a bare TypeError
MALFORMED_USES = [
    (lambda s: ms.absorb(s, 2.0), ms.power_mean(1), (1.0, 2.0), 2),
    (lambda s: ms.absorb_many(s, [2.0]), ms.power_mean(1), (1.0, 2.0), 2),
    (lambda s: ms.absorb(s, 2.0), ms.hamy(2), ("a",), 1),
    (lambda s: ms.absorb_many(s, [2.0]), ms.hamy(2), ("a",), 1),
    (lambda s: ms.absorb(s, 2.0), ms.power_mean(1), (4.0,), "2"),
    (lambda s: ms.absorb_many(s, [2.0]), ms.power_mean(1), (4.0,), "2"),
    (lambda s: ms.finalize(ms.absorb(s, 2.0)), ms.power_mean(1), (100.0,), 0),
    (ms.serialize_state, ms.power_mean(1), (4.0,), "2"),
    (ms.serialize_state, ms.power_mean(1), (4.0,), True),
    (lambda s: s.overflow, ms.power_mean(1), ("a",), 1),
]


@pytest.mark.parametrize("use, d, reals, count", MALFORMED_USES, ids=[
    "absorb-too-long", "absorb_many-too-long", "absorb-str-real",
    "absorb_many-str-real", "absorb-str-count", "absorb_many-str-count",
    "absorb-empty-not-identity", "serialize-str-count",
    "serialize-bool-count", "overflow-str-real"])
def test_a_malformed_state_is_refused_before_its_use(use, d, reals, count):
    with pytest.raises(NumericalFailure):
        use(ms.AccumulatorState(d, reals, count))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(all_families()) - 1), st.data())
def test_every_state_core_builds_keeps_the_state_rule(index, data):
    """finalize and merge trust their operands, as core builds its states
    with tuple.__new__: every state that absorb and absorb_many batches
    (overflowing values included), a random merge tree and a
    serialize_state/parse_state round trip reach passes the constructor."""
    d = all_families()[index]
    value = st.one_of(
        st.floats(0.0, 1.0).map(lambda u: _in_domain(d, u)),
        st.sampled_from([1e300, -1e300, 1e-300, 1e150]).filter(
            d.domain.contains))
    states = [ms.init(d)]
    for batch in data.draw(st.lists(st.lists(value, max_size=2 * core.LEAF + 6),
                                    max_size=4)):
        state = ms.init(d)
        if data.draw(st.booleans()):
            state = ms.absorb_many(state, batch)
        else:
            for x in batch:
                state = ms.absorb(state, x)
                states.append(state)
        states.append(state)
    pool = list(states)
    while len(pool) > 1:
        a = pool.pop(data.draw(st.integers(0, len(pool) - 1)))
        b = pool.pop(data.draw(st.integers(0, len(pool) - 1)))
        pool.append(ms.merge(a, b))
        states.append(pool[-1])
    states += [ms.parse_state(ms.serialize_state(s)) for s in states]
    for s in states:
        assert ms.AccumulatorState(*s) == s, s

class TestEvaluateStream:
    def test_examples(self):
        assert ms.evaluate_stream(ms.gini(2, 1), [3, 4]) == pytest.approx(25 / 7)
        assert ms.evaluate_stream(ms.power_mean(0), [1, 4]) == pytest.approx(2.0)
        assert ms.evaluate_stream(ms.hamy(2), [4, 9]) == pytest.approx(6.0)

    def test_a_long_stream_is_summed_by_a_pairwise_tree(self):
        # witness: absorbing each element in turn, the route before, was
        # 20.9 u off the exact mean of this stream; the pairwise tree 0.50 u
        rng = random.Random(SEED)
        xs = [rng.uniform(0.5, 100.0) for _ in range(20_000)]
        exact = sum(map(Fraction, xs), Fraction(0)) / len(xs)
        got = ms.evaluate_stream(ms.power_mean(1), xs)
        assert abs(Fraction(got) - exact) / exact <= 4 * 2.0 ** -53, got

    def test_a_generator_is_not_held_whole(self):
        # 98k floats held in a list take 3.1 MB; one run of absorb_many's
        # takes about 0.2 MB
        d = ms.power_mean(1)
        ms.evaluate_stream(d, [1.0])  # compiles the kernels outside the trace
        tracemalloc.start()
        try:
            got = ms.evaluate_stream(d, (i % 7 + 0.5 for i in range(98_000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(3.5, rel=1e-12) and peak < 1e6, peak


class TestSerialization:
    def test_round_trip_bit_exact(self):
        streams = [(d, random_vector(random.Random(7), 5, 5))
                   for d in all_families()]
        # a counterless state whose reals are all zero yet is not empty
        streams.append((ms.cube_over_square(), [0.0]))
        for d, xs in streams:
            s = ms.init(d)
            for x in xs:
                s = s.absorb(float(x))
            back = ms.parse_state(ms.serialize_state(s))
            assert back.reals == s.reals
            assert back.count == s.count
            assert back.counter == s.counter
            assert back.finalize() == s.finalize()

    def test_bytes_match_the_json_dumps_formulation(self):
        def reference(state):
            payload = {
                "version": state_io.STATE_FORMAT_VERSION,
                "family": state.descriptor.family,
                "params": state.descriptor.params,
                "k": len(state.reals),
                # an overflowed state is written as k infs
                "reals": [float(math.inf if state.overflow else v).hex()
                          for v in state.reals],
                "counter": state.count,
                "overflow": state.overflow,
            }
            return json.dumps(payload).encode("utf-8")

        # a family and params that JSON must quote and escape
        quoted = ms.MeanDescriptor(
            family='naïve "mean"', params={"f": "é\\\n", "p": -0.0},
            domain=ms.DomainInterval.reals(), ctype=ms.ComplexityType(1, True),
            step=lambda r, x: (r[0] + x,), finalizer=lambda reals, n: reals[0] / n)
        overflowed = 0
        for d in all_families() + [quoted]:
            for xs in ([], [2.0], [0.5, 3.0, 7.25, 11.0], [1e300, 1e300]):
                s = ms.init(d)
                for x in xs:
                    s = s.absorb(x)
                if xs == [1e300, 1e300]:
                    if not s.overflow:
                        continue
                    overflowed += 1
                assert ms.serialize_state(s) == reference(s)
        assert overflowed

    def test_overflowed_state_round_trips(self):
        s = ms.init(ms.power_mean(2.0)).absorb(1e200).absorb(1e200)
        blob = ms.serialize_state(s)
        back = ms.parse_state(blob)
        assert back.overflow and back.reals == s.reals
        assert ms.serialize_state(back) == blob

    @staticmethod
    def refused_by_both_parses(blob: str, reason: str) -> None:
        for parse in (ms.parse_state, state_io._parse_json):
            with pytest.raises(ParseError) as raised:
                parse(blob)
            assert str(raised.value) == reason

    def test_v1_null_counter_still_parses(self):
        # the name is older than the rule it checks: a version 1 blob,
        # written before every family stored its count, parsed with count
        # 1, and its all-zero twin as the empty state, until version 2
        # became the one version read
        blob = {"version": 1, "family": "gini", "params": {"p": 2.0, "q": 1.0},
                "k": 2, "reals": [(9.0).hex(), (3.0).hex()], "counter": None,
                "overflow": False}
        self.refused_by_both_parses(json.dumps(blob), "unsupported version 1")
        blob["reals"] = [(0.0).hex()] * 2
        self.refused_by_both_parses(json.dumps(blob), "unsupported version 1")

    def test_v2_null_counter_is_a_parse_error(self):
        # witness: parse_state read this blob with count 1, and merging it
        # with itself gave count 2
        s = ms.init(ms.gini(2, 1)).absorb(1.0).absorb(2.0).absorb(3.0)
        blob = ms.serialize_state(s).replace(b'"counter": 3', b'"counter": null')
        assert b'"counter": null' in blob
        with pytest.raises(ParseError, match="bad counter None"):
            ms.parse_state(blob)

    def test_v1_additive_state_still_parses(self):
        # the name is older than the rule it checks: a version 1 blob of
        # plain sums, a layout version 2 kept, parsed as its version 2 twin
        # does, until version 2 became the one version read
        blob = {"version": 1, "family": "gini", "params": {"p": 2.0, "q": 1.0},
                "k": 2, "reals": [(25.0).hex(), (7.0).hex()], "counter": 2,
                "overflow": False}
        self.refused_by_both_parses(json.dumps(blob), "unsupported version 1")
        assert ms.parse_state(json.dumps(dict(blob, version=2))).finalize() == (
            25 / 7)

    @pytest.mark.parametrize("family, params, reals", [
        # sympoly(2) has 2 reals in both versions: (sum x, sum x^2) in
        # version 1 would be read silently as (e_1, e_2)
        ("sympoly", {"r": 2}, [5.0, 13.0]),
        ("hamy", {"r": 2}, [5.0, 13.0]),
        ("biplanar", {"p": 2.0, "q": 1.0, "c": 1, "d": 1}, [13.0, 5.0]),
    ])
    def test_v1_elementary_symmetric_state_is_a_parse_error(
            self, family, params, reals):
        blob = {"version": 1, "family": family, "params": params,
                "k": len(reals), "reals": [v.hex() for v in reals],
                "counter": 2, "overflow": False}
        self.refused_by_both_parses(json.dumps(blob), "unsupported version 1")

    @staticmethod
    def median_blob(reals, counter):
        return json.dumps({"version": 2, "family": "median",
                           "params": {"kind": "lower"}, "k": len(reals),
                           "reals": [float(v).hex() for v in reals],
                           "counter": counter, "overflow": False})

    def test_median_state_must_be_sorted(self):
        # witness: [3, 1, 2] used to finalize to 1.0; the lower median is 2.0
        with pytest.raises(ParseError):
            ms.parse_state(self.median_blob([3.0, 1.0, 2.0], 3))

    def test_median_counter_must_match_length(self):
        # witnesses: counter 10 leaked an IndexError, counter 5 gave 3.0
        for counter in (10, 5, 2):
            with pytest.raises(ParseError):
                ms.parse_state(self.median_blob([1.0, 2.0, 3.0], counter))

    def test_median_state_must_be_finite(self):
        # witness: [nan, 2, 3] used to finalize to 2.0
        with pytest.raises(ParseError):
            ms.parse_state(self.median_blob([math.nan, 2.0, 3.0], 3))

    def test_counter_must_be_a_plain_int(self):
        # witness: "counter": true on power(1) of [2, 4] used to give 6.0
        s = ms.init(ms.power_mean(1.0)).absorb(2.0).absorb(4.0)
        payload = json.loads(ms.serialize_state(s))
        for bad in (True, -1, 2.0, "2", None):
            payload["counter"] = bad
            with pytest.raises(ParseError):
                ms.parse_state(json.dumps(payload))

    def test_version_must_be_a_plain_int(self):
        # witness: "version": true passed as version 1 (JSON true == 1);
        # 2.0 == 2, the one version read, yet is no int
        payload = json.loads(ms.serialize_state(ms.init(ms.power_mean(1.0)).absorb(2.0)))
        for bad in (True, 1.0, "1", 2.0):
            payload["version"] = bad
            with pytest.raises(ParseError):
                ms.parse_state(json.dumps(payload))

    def test_k_must_match_the_reals(self):
        # witness: "k": 99 on power(1) of [2.0] parsed and finalized to 2.0
        payload = json.loads(ms.serialize_state(ms.init(ms.power_mean(1.0)).absorb(2.0)))
        for bad in (99, 0, True, 1.0, None):
            payload["k"] = bad
            with pytest.raises(ParseError):
                ms.parse_state(json.dumps(payload))

    def test_reals_must_be_a_list(self):
        # witness: "reals": "a" parsed as the one component 0xa = 10.0
        payload = json.loads(ms.serialize_state(ms.init(ms.power_mean(1.0))))
        payload["reals"] = "a"
        with pytest.raises(ParseError):
            ms.parse_state(json.dumps(payload))

    POWER1 = ('{"version": 2, "family": "power", "params": {"p": 1.0}, '
              '"k": %s, "reals": %s, "counter": 1, "overflow": false}')

    @pytest.mark.parametrize("blob, match", [
        (b"[1]", "not an object"),
        (POWER1 % (1, '["two"]'), "bad hex float"),
        (POWER1 % (1, '[2.0]'), "bad hex float"),
        # k agrees with the two reals, not with power(1)'s one slot
        (POWER1 % (2, '["0x1p+1", "0x1p+1"]'), "expected 1 components, got 2"),
    ], ids=["not-an-object", "not-hex", "not-a-string",
            "k-of-the-blob-not-the-family"])
    def test_malformed_blob_is_a_parse_error(self, blob, match):
        # the template itself parses
        assert ms.parse_state(self.POWER1 % (1, '["0x1p+1"]')).finalize() == 2.0
        with pytest.raises(ParseError, match=match):
            ms.parse_state(blob)

    def test_empty_state_must_hold_identity(self):
        # witness: count 0 with reals [100] merged into [2] finalized to 102
        payload = json.loads(ms.serialize_state(ms.init(ms.power_mean(1.0))))
        payload["reals"] = [(100.0).hex()]
        with pytest.raises(ParseError):
            ms.parse_state(json.dumps(payload))

    def test_overflow_flag_must_match_reals(self):
        # witness: a finite state flagged as overflowed parsed, then
        # finalize raised NumericalFailure
        s = ms.init(ms.power_mean(1.0)).absorb(2.0)
        payload = json.loads(ms.serialize_state(s))
        payload["overflow"] = True
        with pytest.raises(ParseError):
            ms.parse_state(json.dumps(payload))
        payload["overflow"] = False
        payload["reals"] = [math.inf.hex()]
        with pytest.raises(ParseError):
            ms.parse_state(json.dumps(payload))

    def test_empty_round_trip(self):
        payload = ms.serialize_state(ms.init(ms.power_mean(1.0)))
        back = ms.parse_state(payload)
        assert back.is_empty()
        assert back.reals == (0.0,)

    def test_truncated_payload(self):
        payload = ms.serialize_state(ms.init(ms.power_mean(1.0)))
        with pytest.raises(ParseError):
            ms.parse_state(payload[: len(payload) // 2])

    def test_parse_error_carries_offset(self):
        err = None
        try:
            ms.parse_state(b'{"version": 1,,}')
        except ParseError as e:
            err = e
        assert err is not None and err.offset > 0
        assert f"(at byte {err.offset})" in str(err)

    def test_degree_above_the_recursion_limit_is_a_parse_error(self):
        # witness: a hamy(13) state parsed, then finalize raised a bare
        # ValueError
        blob = json.loads(ms.serialize_state(ms.init(ms.hamy(12))))
        blob["params"]["r"] = 13
        blob["k"] = 13
        blob["reals"] = [(0.0).hex()] * 13
        with pytest.raises(ParseError, match="cannot rebuild descriptor"):
            ms.parse_state(json.dumps(blob))

    def test_parse_error_without_offset_names_none(self):
        # witness: a missing field was reported "(at byte 0)"
        with pytest.raises(ParseError) as err:
            ms.parse_state(b'{"version": 1}')
        assert err.value.offset is None
        assert str(err.value) == "missing field 'family'"

    # witnesses: each escaped parse_state as a bare exception, and
    # `meanstream merge` printed a traceback and exited 1
    @pytest.mark.parametrize("blob, match", [
        (POWER1 % (1, '["0x1p+99999"]'), "bad hex float"),
        (b'{"version": ' + b"[" * 100000, "invalid JSON: maximum recursion"),
        (POWER1 % ("1" * 5000, '["0x1p+1"]'), "invalid JSON: Exceeds the limit"),
    ], ids=["OverflowError", "RecursionError", "ValueError"])
    def test_bare_exception_is_a_parse_error(self, blob, match):
        with pytest.raises(ParseError, match=match):
            ms.parse_state(blob)

    # witnesses: each raised a bare TypeError from json.loads
    @pytest.mark.parametrize("data", [123, None, 1.5, ["x"],
                                      memoryview(b"{}")],
                             ids=["int", "None", "float", "list",
                                  "memoryview"])
    def test_a_value_that_is_not_text_is_a_parse_error(self, data):
        with pytest.raises(ParseError,
                           match=f"not {type(data).__name__}$"):
            ms.parse_state(data)

    def test_a_bytearray_parses(self):
        blob = power_blob(2.0)
        assert ms.parse_state(bytearray(blob)) == ms.parse_state(blob)

    @pytest.mark.parametrize("flag", ["0", "1", "null", '"false"'])
    def test_a_flag_that_is_not_a_bool_is_a_parse_error(self, flag):
        # witness: a flag check written `overflow is finite` accepted all
        # four, on both parses, which share _checked_state
        blob = power_blob(2.0).replace(b'"overflow": false',
                                       b'"overflow": ' + flag.encode())
        for parse in (ms.parse_state, state_io._parse_json):
            with pytest.raises(ParseError) as raised:
                parse(blob)
            assert str(raised.value) == (
                f"overflow flag {json.loads(flag)!r} disagrees with the reals")


def count_builds(monkeypatch) -> list:
    """Record each family and params parse_state builds a descriptor for,
    starting from an empty descriptor cache."""
    calls, build = [], families.descriptor_from_params

    def counted(family, params):
        calls.append((family, params))
        return build(family, params)

    state_io._descriptor.cache_clear()
    monkeypatch.setattr(families, "descriptor_from_params", counted)
    return calls


def power_blob(p) -> bytes:
    return ms.serialize_state(ms.init(ms.power_mean(p)).absorb(2.0))


class TestDescriptorCache:
    def test_parses_of_one_blob_share_a_descriptor(self):
        blob = ms.serialize_state(ms.init(ms.quasi_arithmetic("ln")).absorb(2.0))
        a, b = ms.parse_state(blob), ms.parse_state(blob)
        assert a.descriptor is b.descriptor
        assert a == b

    def test_rebuilds_once_per_family_and_params(self, monkeypatch):
        calls = count_builds(monkeypatch)
        for _ in range(3):
            ms.parse_state(power_blob(3.0))
            ms.parse_state(power_blob(4.0))
        assert calls == [("power", {"p": 3.0}), ("power", {"p": 4.0})]

    def test_cache_is_bounded(self):
        bound = state_io.DESCRIPTOR_CACHE_SIZE
        for i in range(10 * bound):
            ms.parse_state(power_blob(1.0 + i))
            assert state_io._descriptor.cache_info().currsize <= bound
        assert state_io._descriptor.cache_info().currsize == bound

    def test_signed_zero_keeps_distinct_families(self):
        # -0.0 == 0.0, so a key built from the values would conflate them
        neg, pos = ms.parse_state(power_blob(-0.0)), ms.parse_state(power_blob(0.0))
        assert neg.family_id != pos.family_id
        assert neg.family_id == ms.power_mean(-0.0).family_id
        with pytest.raises(FamilyMismatch):
            ms.merge(neg, pos)
        with pytest.raises(FamilyMismatch):
            ms.merge(pos, neg)

    def test_failed_build_is_not_cached(self, monkeypatch):
        # the blob first: its serialize_state builds the descriptor's twin
        blob = json.loads(power_blob(1.0))
        calls = count_builds(monkeypatch)
        blob["params"]["p"] = "abc"
        for _ in range(3):
            with pytest.raises(ParseError, match="cannot rebuild descriptor"):
                ms.parse_state(json.dumps(blob))
        assert len(calls) == 3

    def test_family_id_is_computed_once_per_descriptor(self, monkeypatch):
        d, twin = ms.gini(2.0, 1.0), ms.gini(2.0, 1.0)
        a, b = ms.init(d).absorb(3.0), ms.init(twin).absorb(4.0)
        dumps, calls = json.dumps, []

        def counting(*args, **kw):
            calls.append(args)
            return dumps(*args, **kw)

        monkeypatch.setattr(json, "dumps", counting)
        for _ in range(3):
            assert ms.merge(a, b).reals == (25.0, 7.0)
            assert ms.merge(b, a).count == 2
        assert d.family_id == twin.family_id == "gini:" + dumps({"p": 2.0, "q": 1.0})
        assert calls == [({"p": 2.0, "q": 1.0},)] * 2

    def test_parsed_state_merges_with_a_local_one(self):
        d = ms.gini(2.0, 1.0)
        local = ms.init(d).absorb(4.0)
        parsed = ms.parse_state(ms.serialize_state(ms.init(d).absorb(3.0)))
        assert parsed.descriptor is not d
        for merged in (ms.merge(parsed, local), ms.merge(local, parsed)):
            assert merged.reals == (25.0, 7.0)
            assert merged.finalize() == ms.evaluate_stream(d, [3.0, 4.0])

    def test_family_ids_match_fresh_builds(self):
        # witnesses: a rounded name ("power:0.123457") rebuilt another mean;
        # pair_power(1, 0) wrote "power:0", which no parse could rebuild
        for d in all_families() + [
                ms.piecewise_counterexample(), ms.cube_over_square(),
                ms.bajraktarevic(ms.pair_power(1, 0)),
                ms.bajraktarevic(ms.pair_power(0, 2)),
                ms.bajraktarevic(ms.pair_power(2.0000001, 1)),
                ms.quasi_arithmetic("power:0.1234567"),
                ms.quasi_arithmetic("affine:2.0000001,3")]:
            parsed = ms.parse_state(ms.serialize_state(ms.init(d)))
            fresh = ms.descriptor_from_params(d.family, d.params)
            assert parsed.family_id == fresh.family_id == d.family_id
            state = ms.init(d)
            for x in (2.0, 30.0, 500.0, 3.5):
                if d.domain.contains(x):
                    state = state.absorb(x)
            again = ms.parse_state(ms.serialize_state(state))
            assert again.finalize() == state.finalize()

    def test_a_blob_with_another_spelling_of_a_generator_parses(self):
        # a version 2 blob written before pairs took the registry's names
        d = ms.bajraktarevic(ms.pair_power(2, 1))
        blob = ms.serialize_state(ms.init(d).absorb(3.0))
        old = blob.replace(b'"f": "power:2"', b'"f": "power:2.0"')
        assert old != blob
        parsed = ms.parse_state(old)
        assert parsed.family_id == d.family_id
        assert ms.serialize_state(parsed) == blob
        assert ms.merge(parsed, ms.init(d).absorb(4.0)).finalize() == 25 / 7

    def test_pairs_of_near_exponents_do_not_merge(self):
        # witness: both were named ("power:2", "power:1") and merged to
        # 2.599999807018827
        a = ms.init(ms.bajraktarevic(ms.pair_power(2.0000001, 1))).absorb(2.0)
        b = ms.init(ms.bajraktarevic(ms.pair_power(2, 1))).absorb(3.0)
        with pytest.raises(FamilyMismatch):
            ms.merge(a, b)
        with pytest.raises(FamilyMismatch):
            ms.merge(b, a)

    # witnesses: a power(inf) state finalized to a value outside its inputs;
    # a hamy state with "r": 4.7 parsed as hamy(4)
    @pytest.mark.parametrize("family, params", [
        ("power", {"p": math.inf}), ("power", {"p": math.nan}),
        ("gini", {"p": math.inf, "q": 1.0}),
        ("biplanar", {"p": math.inf, "q": 1.0, "c": 1, "d": 1}),
        ("power", {"p": "abc"}), ("hamy", {"r": 4.7}), ("power", [1.0]),
    ])
    def test_bad_params_are_a_parse_error(self, family, params):
        blob = json.loads(power_blob(1.0))
        blob["family"], blob["params"] = family, params
        with pytest.raises(ParseError, match="cannot rebuild descriptor"):
            ms.parse_state(json.dumps(blob))

    def test_a_param_the_family_does_not_take_is_a_parse_error(self):
        # witness: a power blob whose params also held "q" parsed as power(1)
        own = power_blob(1.0).replace(b'{"p": 1.0}', b'{"p": 1.0, "q": 2.0}')
        for blob in (own, own.replace(b'"k": 1', b'"k":1')):  # both parses
            with pytest.raises(ParseError, match="takes no parameter 'q'"):
                ms.parse_state(blob)


def builtin_blobs() -> list:
    """serialize_state's bytes for the built-ins: each empty, with 1, 3 or
    16 values, or overflowed."""
    sixteen = [0.5 + 1.25 * i for i in range(16)]
    blobs = []
    for d in all_families() + [ms.piecewise_counterexample(),
                               ms.cube_over_square()]:
        for xs in ([], [2.0], [0.5, 3.0, 7.25], sixteen):
            if not all(map(d.domain.contains, xs)):  # piecewise_h on (0, 1)
                xs = d.domain.sample_grid(len(xs) + 1)[:len(xs)]
            blobs.append(ms.serialize_state(ms.absorb_many(ms.init(d), xs)))
        for x in (1e300, 1e308):
            if d.domain.contains(x):
                s = ms.init(d).absorb(x).absorb(x)
                if s.overflow:
                    blobs.append(ms.serialize_state(s))
                    break
    return blobs


BLOBS = builtin_blobs()


def json_variants(blob: bytes) -> list:
    payload = json.loads(blob)
    return [blob, json.dumps(payload, sort_keys=True).encode(),
            json.dumps(payload, separators=(",", ":")).encode(),
            json.dumps(dict(reversed(payload.items())), indent=1).encode()]


# text serialize_state writes, and text that looks like it but is not
SPLICES = [b', "k": ', b'"family": "power", ', b"0x1p+99999", b"-0", b"01",
           b"\t", b"\x00", b'"', b"\\", b"]", b", ", b"true", b"null",
           b"1" * 5000, b"\xc3\xa9", b"\xff", b" "]


@st.composite
def mutated_blobs(draw):
    blob = draw(st.sampled_from(json_variants(draw(st.sampled_from(BLOBS)))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(blob)))
        kind = draw(st.sampled_from(["substitute", "insert", "delete",
                                     "splice"]))
        if kind == "substitute":
            blob = blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]
        elif kind == "insert":
            blob = blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i:]
        elif kind == "delete":
            blob = blob[:i] + blob[i + draw(st.integers(1, 4)):]
        else:
            blob = blob[:i] + draw(st.sampled_from(SPLICES)) + blob[i:]
    return blob


def parsed(parse, blob):
    """What one parse gives: the state's family_id, real bits and count,
    or the ParseError's message."""
    try:
        s = parse(blob)
    except ParseError as e:
        return str(e)
    return s.family_id, [struct.pack("<d", v) for v in s.reals], s.count


class TestTwoParses:
    """parse_state reads serialize_state's own text without json; every
    other text goes through json.loads.  Both give one answer."""

    @staticmethod
    def check(blob):
        by_json = parsed(
            lambda b: state_io._parse_json(b.decode("utf-8", errors="replace")),
            blob)
        assert parsed(ms.parse_state, blob) == by_json

    @settings(max_examples=400, deadline=None)
    @given(mutated_blobs())
    def test_parse_state_gives_what_json_gives(self, blob):
        self.check(blob)

    @pytest.mark.parametrize("family, count, overflow", [
        ("hamy", 16, False), ("median", 16, False), ("power", 2, True)])
    def test_every_one_byte_edit(self, family, count, overflow):
        # deletions, and substitutions and insertions of bytes that some
        # field treats specially
        blob = next(b for b in BLOBS if [family, count, overflow] == [
            json.loads(b)[key] for key in ("family", "counter", "overflow")])
        for i in range(len(blob)):
            self.check(blob[:i] + blob[i + 1:])
            for byte in b'0 -9x."\\]\t\x00':
                self.check(blob[:i] + bytes([byte]) + blob[i + 1:])
                self.check(blob[:i] + bytes([byte]) + blob[i:])

    # invalid JSON of a family that does not build: json's error comes
    # first, so parse_state must read the reals before it builds
    @pytest.mark.parametrize("reals", [
        '["inf, "inf"]', '["0x1p+1",\xc7"0x1p+1"]', '["0x1p+1\\", "0x1p+1"]',
        '["0x1p+1"x"]'])
    def test_malformed_reals_beat_a_failed_build(self, reals):
        blob = TestSerialization.POWER1.replace("power", "pwr") % (2, reals)
        with pytest.raises(ParseError, match="invalid JSON"):
            ms.parse_state(blob.encode("latin-1"))
        self.check(blob.encode("latin-1"))

    def test_own_bytes_skip_json(self, monkeypatch):
        for blob in BLOBS:
            ms.parse_state(blob)  # warm the descriptor cache
        loads, calls = json.loads, []
        monkeypatch.setattr(json, "loads",
                            lambda *a, **kw: calls.append(a) or loads(*a, **kw))
        for blob in BLOBS:
            back = ms.parse_state(blob)
            assert ms.serialize_state(back) == blob
        assert calls == []

    def test_other_text_is_read_by_json_once(self, monkeypatch):
        # a re-spaced blob, or one with its keys in another order, would
        # miss the descriptor cache on every parse
        payload = json.loads(power_blob(2.0))
        blobs = [json.dumps(payload, indent=1),
                 json.dumps(payload, sort_keys=True)]
        for blob in blobs:
            ms.parse_state(blob)  # warm the descriptor cache
        loads, calls = json.loads, []
        monkeypatch.setattr(json, "loads",
                            lambda *a, **kw: calls.append(a) or loads(*a, **kw))
        for blob in blobs:
            assert ms.parse_state(blob).reals == (4.0,)
        assert calls == [(blob,) for blob in blobs]

    def test_refused_head_is_read_by_json_once(self, monkeypatch):
        # witness: a version 2 blob with its params re-spaced paid a
        # json.loads of its head, refused on every parse, before json read
        # the blob: two calls on a warm parse
        blob = ms.serialize_state(ms.init(ms.gini(2.0, 1.0)).absorb(3.0))
        blob = blob.replace(b'{"p": 2.0, "q": 1.0}', b'{"p":2.0,"q":1.0}')
        ms.parse_state(blob)  # warm the descriptor cache
        loads, calls = json.loads, []
        monkeypatch.setattr(json, "loads",
                            lambda *a, **kw: calls.append(a) or loads(*a, **kw))
        for _ in range(3):
            assert ms.parse_state(blob).reals == (9.0, 3.0)
        assert calls == [(blob.decode(),)] * 3

    def test_reordered_params_merge_by_family_id(self, monkeypatch):
        calls = count_builds(monkeypatch)
        d = ms.gini(2.0, 1.0)
        own = ms.parse_state(ms.serialize_state(ms.init(d).absorb(3.0)))
        payload = json.loads(ms.serialize_state(ms.init(d).absorb(4.0)))
        payload["params"] = {"q": 1.0, "p": 2.0}
        reordered = ms.parse_state(json.dumps(payload))
        assert reordered.descriptor is not own.descriptor
        assert calls == [("gini", {"p": 2.0, "q": 1.0}),
                         ("gini", {"q": 1.0, "p": 2.0})]
        assert reordered.family_id == own.family_id
        assert ms.merge(own, reordered).reals == (25.0, 7.0)


class TestPickle:
    # witness: pickle.dumps(init(power_mean(2))) raised AttributeError: Can't
    # pickle local object 'table_mean.<locals>.step'
    @pytest.mark.parametrize("d", all_families() + [
        ms.piecewise_counterexample(), ms.cube_over_square(),
        ms.quasi_arithmetic("exp"), ms.biplanar(0.0, 2.0, 2, 3),
        ms.bajraktarevic(ms.pair_from_names("exp", "power:-1"))],
        ids=lambda d: d.name)
    def test_a_built_in_state_pickles(self, d):
        xs = d.domain.sample_grid(5)[1:]
        for state in (ms.init(d), ms.absorb_many(ms.init(d), xs)):
            twin = pickle.loads(pickle.dumps(state))
            assert ms.serialize_state(twin) == ms.serialize_state(state)
            assert ms.serialize_state(ms.merge(state, twin)) == (
                ms.serialize_state(ms.merge(state, state)))
            assert ms.serialize_state(ms.merge(twin, state)) == (
                ms.serialize_state(ms.merge(state, state)))

    @staticmethod
    def _user_power():
        # witness: it absorbed 3.0 as (6.0,), and after a pickle round trip,
        # or serialize_state then parse_state, as power_mean(1)'s (3.0,)
        return ms.MeanDescriptor(
            "power", {"p": 1.0}, ms.DomainInterval.positive(),
            ms.ComplexityType(1, True), step=lambda r, x: (r[0] + 2 * x,),
            finalizer=lambda r, n: r[0] / n)

    @staticmethod
    def _user_quasi_arithmetic():
        # witness: power:3's blocks, env and finalizer under power:2's name
        # finalized [1, 2] to 1.6509636244473134, and after a pickle round
        # trip, or serialize_state then parse_state, to 2.1213203435596424:
        # the guard compared each function's code, not its closure's p
        built = ms.quasi_arithmetic("power:3")
        return core.table_mean("quasiarithmetic", {"f": "power:2"},
                               built.domain, built.ctype, built.blocks,
                               built.finalizer, dict(built.block_env))

    @pytest.mark.parametrize("family, params", [
        ("user_sum_of_squares", {}),  # no built-in family
        ("power", {"p": 1.0, "q": 2.0}),  # a key power does not take
        ("median", {}),  # rebuilds median(kind=lower), another family_id
        ("power", {"p": 1.0}),  # rebuilds power_mean(1), other kernels
        ("power", {"p": 1.0, "domain": None}),  # power_mean(1)'s kernels
        ("quasiarithmetic", {"f": "power:2"})],  # power:3's closures
        ids=["unknown", "extra-key", "other-params", "other-kernels",
             "other-domain", "other-closure"])
    def test_a_user_built_descriptor_does_not(self, family, params):
        if params == {"p": 1.0}:
            d = self._user_power()
            assert ms.absorb(ms.init(d), 3.0).reals == (6.0,)
        elif family == "quasiarithmetic":
            d = self._user_quasi_arithmetic()
            assert ms.finalize(ms.absorb_many(ms.init(d), [1.0, 2.0])) == (
                1.6509636244473134)
        elif "domain" in params:
            # witness: power_mean(1)'s blocks, env and finalizer on the whole
            # line absorbed -2.0, and after a pickle round trip refused it
            built = ms.power_mean(1.0)
            d = core.table_mean("power", {"p": 1.0}, ms.DomainInterval(),
                                built.ctype, built.blocks, built.finalizer,
                                built.block_env)
            assert ms.absorb(ms.init(d), -2.0).reals == (-2.0,)
        else:
            d = ms.MeanDescriptor(
                family, params, ms.DomainInterval(), ms.ComplexityType(1, True),
                lambda r, x: (r[0] + x,), lambda reals, n: reals[0] / n)
        with pytest.raises(InvalidDescriptor, match="cannot pickle"):
            pickle.dumps(ms.absorb(ms.init(d), 2.0))

    def test_a_user_step_under_a_built_in_name_does_not_serialize(self):
        state = ms.absorb(ms.init(self._user_power()), 3.0)
        with pytest.raises(InvalidDescriptor,
                           match="cannot serialize .* other kernels"):
            ms.serialize_state(state)

    def test_a_user_closure_under_a_built_in_name_does_not_serialize(self):
        state = ms.absorb_many(ms.init(self._user_quasi_arithmetic()),
                               [1.0, 2.0])
        with pytest.raises(InvalidDescriptor,
                           match="cannot serialize .* other kernels"):
            ms.serialize_state(state)

    @staticmethod
    def _recursive_forward():
        # a function in its own closure: the comparison must not recurse
        # without end
        def forward(x, depth=1):
            return forward(x, 0) if depth else x ** p
        p = 2.0
        return forward

    @staticmethod
    def _forward_with_an_empty_cell():
        # witness: reading the empty cell raised a bare ValueError out of
        # pickle.dumps
        def forward(x):
            return x ** p if x else unset
        p = 2.0
        return forward
        unset = 0.0  # noqa: F841 (never runs, so the cell stays empty)

    @pytest.mark.parametrize("make", ["_recursive_forward",
                                      "_forward_with_an_empty_cell"])
    def test_a_user_closure_of_any_shape_is_compared(self, make):
        built = ms.quasi_arithmetic("power:2")
        d = core.table_mean("quasiarithmetic", {"f": "power:2"},
                            built.domain, built.ctype, built.blocks,
                            built.finalizer, {"forward": getattr(self, make)()})
        assert ms.finalize(ms.absorb(ms.init(d), 2.0)) == 2.0
        with pytest.raises(InvalidDescriptor, match="cannot pickle"):
            pickle.dumps(ms.init(d))

    def test_a_pickle_loads_under_another_format_version(self, monkeypatch):
        # witness: a pickle held the blob head, version and all, and loaded
        # under another STATE_FORMAT_VERSION as a state whose descriptor was
        # None
        from meanstream import state_io

        data = pickle.dumps(ms.absorb(ms.init(ms.hamy(3)), 2.0))
        monkeypatch.setattr(state_io, "STATE_FORMAT_VERSION",
                            state_io.STATE_FORMAT_VERSION + 1)
        state_io._descriptor.cache_clear()  # as in a new process
        state = pickle.loads(data)
        assert state.descriptor.family_id == ms.hamy(3).family_id
        assert ms.finalize(state) == 2.0

    def test_unpickled_states_share_one_descriptor(self, monkeypatch):
        # witness: 1000 separately pickled hamy(3) states loaded with 1000
        # descriptors, and each dump and each load built one
        d = ms.hamy(3)
        a, b = (pickle.loads(pickle.dumps(ms.absorb(ms.init(d), x)))
                for x in (1.0, 2.0))
        assert a.descriptor is b.descriptor
        assert ms.parse_state(ms.serialize_state(a)).descriptor is a.descriptor
        assert ms.serialize_state(ms.merge(a, b)) == ms.serialize_state(
            ms.absorb_many(ms.init(d), [1.0, 2.0]))
        calls = count_builds(monkeypatch)
        fresh = ms.hamy(3)
        for x in range(1, 11):
            pickle.dumps(ms.absorb(ms.init(fresh), float(x)))
        assert calls == [("hamy", {"r": 3})]


class TestDescriptorCopy:
    # witness: copy.copy(ms.hamy(3)) read blocks None and layout_version 1,
    # and absorbed through the original's kernels
    @pytest.mark.parametrize("make", [
        lambda: ms.hamy(3), lambda: ms.biplanar(2.0, 3.0, 3, 3),
        lambda: ms.power_mean(2.0)], ids=["hamy", "biplanar", "power"])
    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy],
                             ids=["copy", "deepcopy"])
    def test_copy_keeps_the_block_table(self, make, how):
        # a copy is the descriptor itself, so it keeps the table and shares
        # the kernels, stand-ins or compiled
        d = make()
        stand_ins = d.kernels
        assert how(d) is d and d.kernels is stand_ins
        xs = [0.5, 3.0, 7.25]
        ms.absorb_many(ms.init(d), xs)
        assert d.kernels[1].__name__ == "fold" and how(d).kernels is d.kernels

    @pytest.mark.parametrize("d", all_families() + [
        ms.piecewise_counterexample(), ms.cube_over_square()],
        ids=lambda d: d.name)
    def test_a_copy_is_the_descriptor(self, d):
        assert copy.copy(d) is d and copy.deepcopy(d) is d
        xs = d.domain.sample_grid(4)[1:]
        state = ms.absorb_many(ms.init(d), xs)
        twin = copy.deepcopy(state)
        assert twin.descriptor is d
        assert ms.merge(state, twin) == ms.absorb_many(state, xs)

    def test_copy_keeps_the_median_fold(self):
        d = ms.median_mean("lower")
        assert copy.copy(d).leaf_fold is d.leaf_fold is not None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.5, 20.0), min_size=1, max_size=64),
       st.integers(0, 64))
def test_merge_absorb_consistency(values, cut):
    cut = min(cut, len(values))
    for d in (ms.gini(2.0, 1.0), ms.hamy(2), ms.power_mean(0.0),
              ms.median_mean("lower")):
        whole = ms.evaluate_stream(d, values)
        a = ms.init(d)
        for x in values[:cut]:
            a = a.absorb(x)
        b = ms.init(d)
        for x in values[cut:]:
            b = b.absorb(x)
        merged = ms.finalize(ms.merge(a, b))
        assert merged == pytest.approx(whole, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.5, 20.0), min_size=3, max_size=24))
def test_merge_commutative_associative(values):
    third = len(values) // 3
    for d in (ms.gini(2.0, 1.0), ms.sympoly(2)):
        parts = [values[:third], values[third:2 * third], values[2 * third:]]
        states = []
        for part in parts:
            s = ms.init(d)
            for x in part:
                s = s.absorb(x)
            states.append(s)
        a, b, c = states
        ab = ms.finalize(ms.merge(ms.merge(a, b), c))
        ba = ms.finalize(ms.merge(ms.merge(b, a), c))
        bc = ms.finalize(ms.merge(a, ms.merge(b, c)))
        assert ba == pytest.approx(ab, rel=1e-12)
        assert bc == pytest.approx(ab, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.5, 20.0), min_size=1, max_size=50))
def test_counter_exact(values):
    d = ms.power_mean(2.0)
    s = ms.init(d)
    for x in values:
        s = s.absorb(x)
    assert s.counter == len(values)

"""Value semantics of the package's immutable records: construction with
positional and keyword arguments and defaults, validation errors, equality
and hashing, read-only fields, the type order, copies and pickles."""

import copy
import math
import pickle

import pytest

import meanstream as ms
from meanstream import core
from meanstream.errors import DegenerateExponents, InvalidDescriptor

# (value, an equal value built another way, a different value)
TWINS = {
    "DomainInterval": (ms.DomainInterval(0.0, 1.0, True, False),
                       ms.DomainInterval(hi=1.0, lo_closed=True, lo=0.0),
                       ms.DomainInterval(0.0, 1.0)),
    "ComplexityType": (ms.ComplexityType(2, True),
                       ms.ComplexityType(k=2, plus_counter=True),
                       ms.ComplexityType(2, False)),
    "ExponentMultiset": (ms.ExponentMultiset((2, 1)),
                         ms.ExponentMultiset(exponents=(1, 2)),
                         ms.ExponentMultiset((1, 3))),
    "BiplanarParams": (ms.BiplanarParams(2.0, 3.0, 3, 3),
                       ms.BiplanarParams(p=2.0, q=3.0, c=3, d=3),
                       ms.BiplanarParams(2.0, 3.0, 3, 1)),
    "GammaTable": (ms.GammaTable({1: 2.0}, 1), ms.GammaTable(values={1: 2.0}, n=1),
                   ms.GammaTable({1: 3.0}, 1)),
}

HASHABLE = ["DomainInterval", "ComplexityType", "ExponentMultiset",
            "BiplanarParams"]


def _gen():
    return ms.GeneratorFunction("ln", math.log, math.exp,
                                ms.DomainInterval.positive(), True)


def _pair():
    return ms.BajraktarevicPair(math.log, abs, math.exp,
                                ms.DomainInterval.positive(), "ln", "abs")


# one instance of each of the eight classes, and its fields
INSTANCES = [
    (TWINS["DomainInterval"][0], ["lo", "hi", "lo_closed", "hi_closed"]),
    (TWINS["ComplexityType"][0], ["k", "plus_counter"]),
    (ms.power_mean(1.0), ["family", "params", "domain", "ctype", "step",
                          "finalizer", "combine", "ctype_is_upper_bound",
                          "paper_k", "slots"]),
    (_gen(), ["name", "forward", "inverse", "domain", "increasing"]),
    (_pair(), ["f", "g", "ratio_inverse", "domain", "f_name", "g_name"]),
    (TWINS["BiplanarParams"][0], ["p", "q", "c", "d"]),
    (TWINS["ExponentMultiset"][0], ["exponents"]),
    (TWINS["GammaTable"][0], ["values", "n"]),
]


class TestConstruction:
    def test_domain_interval_defaults(self):
        d = ms.DomainInterval()
        assert (d.lo, d.hi, d.lo_closed, d.hi_closed) == (
            -math.inf, math.inf, False, False)
        assert ms.DomainInterval(0.0) == ms.DomainInterval(0.0, math.inf)
        assert ms.DomainInterval.positive() == ms.DomainInterval(0.0)
        assert ms.DomainInterval.reals() == d

    def test_fields_hold_the_arguments(self):
        ct = ms.ComplexityType(3, False)
        assert (ct.k, ct.plus_counter, ct.label, ct.order_index) == (
            3, False, "T3", 4)
        g = _gen()
        assert (g.name, g.forward, g.inverse, g.increasing) == (
            "ln", math.log, math.exp, True)
        table = ms.GammaTable({1: 6.0, 2: 14.0}, 3)
        assert (table.values, table.n, table.gamma(2), 1 in table) == (
            {1: 6.0, 2: 14.0}, 3, 14.0, True)
        params = ms.BiplanarParams(2.0, 3.0, 3, 3)
        assert (params.p, params.q, params.c, params.d) == (2.0, 3.0, 3, 3)

    def test_mean_descriptor_defaults(self):
        step = lambda r, x: (r[0] + x,)  # noqa: E731
        fin = lambda reals, n: reals[0] / n  # noqa: E731
        d = ms.MeanDescriptor("sum", {}, ms.DomainInterval.reals(),
                              ms.ComplexityType(1, True), step, fin)
        assert (d.step, d.finalizer, d.combine) == (step, fin, core._vector_add)
        assert (d.ctype_is_upper_bound, d.paper_k, d.slots, d.k) == (
            False, None, None, 1)
        keyed = ms.MeanDescriptor(
            family="sum", params={}, domain=ms.DomainInterval.reals(),
            ctype=None, step=step, finalizer=fin, combine=max,
            ctype_is_upper_bound=True, paper_k=4, slots=2)
        assert (keyed.combine, keyed.ctype_is_upper_bound, keyed.paper_k,
                keyed.slots, keyed.k) == (max, True, 4, 2, 2)
        assert ms.evaluate_stream(d, [1.0, 2.0]) == 1.5

    def test_exponent_multiset_sorts(self):
        ms_ = ms.ExponentMultiset((3, 1, 2, 1))
        assert ms_.exponents == (1, 1, 2, 3) and len(ms_) == 4
        assert ms.ExponentMultiset([2.5, 0.5]).exponents == (0.5, 2.5)

    def test_custom_pair_names(self):
        f, g = (lambda x: x * x), (lambda x: x)
        pair = ms.BajraktarevicPair(f, g, math.sqrt, ms.DomainInterval.positive())
        assert pair.f_name == f"<custom {id(f):#x}>"
        assert pair.g_name == f"<custom {id(g):#x}>"
        named = ms.BajraktarevicPair(f, g, math.sqrt,
                                     ms.DomainInterval.positive(), g_name="x")
        assert named.f_name == f"<custom {id(f):#x}>" and named.g_name == "x"
        built = ms.pair_from_functions(f, g, ms.DomainInterval.positive())
        assert built.f_name == f"<custom {id(f):#x}>"

    def test_repr_names_the_fields(self):
        assert repr(ms.ComplexityType(1, True)) == (
            "ComplexityType(k=1, plus_counter=True)")
        assert repr(ms.DomainInterval(0.0, 1.0)) == (
            "DomainInterval(lo=0.0, hi=1.0, lo_closed=False, hi_closed=False)")


class TestValidation:
    @pytest.mark.parametrize("lo, hi", [(1, 1), (2.0, 1.0), (0.0, math.nan)])
    def test_empty_interval(self, lo, hi):
        with pytest.raises(ValueError, match="empty interval"):
            ms.DomainInterval(lo, hi)

    @pytest.mark.parametrize("k", [0, -1])
    def test_complexity_type_needs_a_positive_k(self, k):
        with pytest.raises(ValueError, match="positive"):
            ms.ComplexityType(k, True)

    def test_empty_exponent_multiset(self):
        with pytest.raises(ValueError, match="at least one exponent"):
            ms.ExponentMultiset(())

    def test_biplanar_params(self):
        with pytest.raises(DegenerateExponents):
            ms.BiplanarParams(2.0, 3.0, 3, 2)
        for c, d in ((3.0, 3), (3, "3"), (True, 1), (0, 1),
                     (1, ms.symfun.MAX_MULTI_EXPONENTS + 1)):
            with pytest.raises(InvalidDescriptor, match="integer [cd]"):
                ms.BiplanarParams(2.0, 3.0, c, d)

    def test_biplanar_params_compare_exponents_exactly(self):
        # 3 * 0.1 != 0.3 in binary64, but the check is exact, on Fractions
        assert ms.BiplanarParams(0.1, 0.3, 3, 1).exponent_set[-1] > 0.3
        with pytest.raises(DegenerateExponents):
            ms.BiplanarParams(0.5, 1.5, 3, 1)


class TestEquality:
    @pytest.mark.parametrize("name", list(TWINS))
    def test_equal_values_are_equal(self, name):
        a, b, other = TWINS[name]
        assert a == b and not a != b
        assert a != other and not a == other

    @pytest.mark.parametrize("name", HASHABLE)
    def test_equal_values_hash_alike(self, name):
        a, b, other = TWINS[name]
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
        assert {a: 1}[b] == 1

    def test_not_equal_to_a_tuple_of_the_fields(self):
        assert ms.ComplexityType(1, True) != (1, True)
        assert ms.DomainInterval(0.0, 1.0) != (0.0, 1.0, False, False)
        assert ms.BiplanarParams(2.0, 3.0, 3, 3) != (2.0, 3.0, 3, 3)

    def test_descriptors_and_functions(self):
        d, g, pair = ms.power_mean(1.0), _gen(), _pair()
        assert d == d and g == g and pair == pair
        assert g == _gen() and pair == _pair()  # same functions and names
        assert hash(g) == hash(_gen()) and hash(pair) == hash(_pair())
        # each build has its own step and finalizer
        assert ms.power_mean(1.0) != ms.power_mean(1.0)

    def test_type_order(self):
        chain = [ms.ComplexityType(1, False), ms.ComplexityType(1, True),
                 ms.ComplexityType(2, False), ms.ComplexityType(2, True)]
        assert [c.label for c in chain] == ["T1", "T1+", "T2", "T2+"]
        for i, a in enumerate(chain):
            for j, b in enumerate(chain):
                assert (a < b, a <= b, a > b, a >= b) == (
                    i < j, i <= j, i > j, i >= j), (a, b)
        assert sorted(reversed(chain)) == chain


@pytest.mark.parametrize("value, fields", INSTANCES,
                         ids=[type(v).__name__ for v, _ in INSTANCES])
def test_fields_are_read_only(value, fields):
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


@pytest.mark.parametrize("name", list(TWINS))
def test_copies_and_pickles_are_equal(name):
    a = TWINS[name][0]
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is type(a)

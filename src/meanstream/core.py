"""Online-premean contract: accumulator state, absorb, merge, finalize.

Every mean in this package is evaluated as ``finalize(fold(absorb, init, xs))``
where the state lives in a commutative semigroup: the descriptor's
``step`` pushes one element into a state's reals, and its ``combine`` merges
two states.  ``absorb_many`` takes a whole batch at once: ``step`` folds
it into leaves of LEAF elements, which a pairwise tree of ``combine``
joins, so no family needs a batch encoder of its own.  A state is an
immutable ``NamedTuple`` (descriptor, reals, count); absorb and merge
return new states, so shard-parallel accumulation followed by a merge tree
needs no locking.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from functools import cached_property, lru_cache, reduce
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import (
    DomainError,
    EmptyStateError,
    FamilyMismatch,
    NumericalFailure,
    ParseError,
)

STATE_FORMAT_VERSION = 2
DESCRIPTOR_CACHE_SIZE = 64  # parse_state's descriptors, by family and params
# absorb_many's elements per leaf: step folds them, so one combine per leaf
# costs little next to the steps, and the tree above the leaves keeps the
# rounding at the level of a pairwise sum
LEAF = 64


class Record:
    """Base of the package's immutable records, in place of a frozen
    dataclass: ``import dataclasses`` loads ``inspect``, and each frozen
    decoration ``exec``s its methods, which took more than half of
    ``import meanstream``.

    A subclass names its fields in ``_fields`` (and, unless it needs an
    instance ``__dict__``, makes them its ``__slots__``); its ``__init__``
    validates and hands the values to ``Record.__init__``, in field order.
    Records compare equal when they are of the same class with equal field
    values, hash as the tuple of those values, and refuse assignment;
    ``as_dict`` maps the field names to the values, in field order.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values())))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: restoring the fields by
        # assignment would raise
        return type(self), self._values()


class DomainInterval(Record):
    """An interval of the extended real line with endpoint flags."""

    __slots__ = _fields = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: float = -math.inf, hi: float = math.inf,
                 lo_closed: bool = False, hi_closed: bool = False):
        if not lo < hi:
            raise ValueError(f"empty interval: lo={lo} hi={hi}")
        super().__init__(lo, hi, lo_closed, hi_closed)

    def contains(self, x):
        """Membership of a float; NaN is outside."""
        lo_ok = x >= self.lo if self.lo_closed else x > self.lo
        hi_ok = x <= self.hi if self.hi_closed else x < self.hi
        return lo_ok & hi_ok

    def sample_grid(self, points: int = 64) -> list[float]:
        """A finite representative grid, clipping infinite endpoints."""
        lo = self.lo if math.isfinite(self.lo) else -50.0
        hi = self.hi if math.isfinite(self.hi) else 50.0
        if hi <= lo:
            hi = lo + 100.0
        eps = (hi - lo) * 1e-3
        if not self.lo_closed or not math.isfinite(self.lo):
            lo += eps
        if not self.hi_closed or not math.isfinite(self.hi):
            hi -= eps
        step = (hi - lo) / (points - 1)
        return [lo + i * step for i in range(points)]

    @staticmethod
    def positive() -> "DomainInterval":
        return DomainInterval(0.0, math.inf, False, False)

    @staticmethod
    def reals() -> "DomainInterval":
        return DomainInterval(-math.inf, math.inf, False, False)


class ComplexityType(Record):
    """Position in the hierarchy T1 <= T1+ <= T2 <= T2+ <= ..."""

    __slots__ = _fields = ("k", "plus_counter")

    def __init__(self, k: int, plus_counter: bool):
        if k < 1:
            raise ValueError("k must be a positive integer")
        super().__init__(k, plus_counter)

    @property
    def order_index(self) -> int:
        return 2 * self.k - 1 if self.plus_counter else 2 * self.k - 2

    @property
    def label(self) -> str:
        return f"T{self.k}+" if self.plus_counter else f"T{self.k}"

    def __le__(self, other: "ComplexityType") -> bool:
        if not isinstance(other, ComplexityType):
            return NotImplemented
        return self.order_index <= other.order_index

    def __lt__(self, other: "ComplexityType") -> bool:
        if not isinstance(other, ComplexityType):
            return NotImplemented
        return self.order_index < other.order_index


def _vector_add(a: tuple, b: tuple) -> tuple:
    """The default ``combine``: vector addition."""
    return tuple(map(operator.add, a, b))


class MeanDescriptor(Record):
    """Finite encoding of a generating pair: per-element step + finalizer.

    ``step`` pushes one element: it maps (reals, x) to the reals of the
    state with x absorbed.  ``combine`` merges two states: it is the
    semigroup operation on reals tuples, and must be associative and
    commutative, with ``init``'s reals (k zeros) as its identity.  The two
    describe one semigroup: ``step(r, x) == combine(r, step(identity, x))``,
    which is what lets ``absorb_many`` fold a batch by either.
    ``finalizer`` maps (reals, count) back to the interval.  A non-finite
    component must stay non-finite under ``combine``, which is what lets a
    state's ``overflow`` flag be read off its reals.

    ``ctype`` is None for means of no finite type (median); their state is
    the whole sorted multiset.  ``slots``, when set, is the state length,
    which may differ from the paper's ``ctype.k``; without it the length is
    ``ctype.k``.  ``params`` must round-trip through JSON for the descriptor
    to be reconstructible from a state file.
    """

    _fields = ("family", "params", "domain", "ctype", "step", "finalizer",
               "combine", "ctype_is_upper_bound", "paper_k", "slots")
    # no __slots__: family_id and _blob_head cache into the instance dict

    def __init__(self, family: str, params: dict, domain: DomainInterval,
                 ctype: Optional[ComplexityType],
                 step: Callable[[tuple, float], tuple],
                 finalizer: Callable[[tuple, int], float],
                 combine: Callable[[tuple, tuple], tuple] = _vector_add,
                 ctype_is_upper_bound: bool = False,
                 paper_k: Optional[int] = None,  # biplanar: exponent-set size
                 slots: Optional[int] = None):
        super().__init__(family, params, domain, ctype, step, finalizer,
                         combine, ctype_is_upper_bound, paper_k, slots)

    @property
    def k(self) -> int:
        """Number of reals in the fixed-length state; 0 for no finite type."""
        if self.slots is not None:
            return self.slots
        return 0 if self.ctype is None else self.ctype.k

    @property
    def has_counter(self) -> bool:
        return self.ctype.plus_counter if self.ctype is not None else True

    @cached_property
    def family_id(self) -> str:
        """Family and sorted params as text, built once, like ``_blob_head``,
        so merge compares two equal descriptors without ``json.dumps``."""
        return f"{self.family}:{json.dumps(self.params, sort_keys=True)}"

    @cached_property
    def _blob_head(self) -> str:
        """serialize_state's JSON text up to ``"k": ``, built once, so
        ``params`` must not change afterwards."""
        return (f'{{"version": {STATE_FORMAT_VERSION}, '
                f'"family": {json.dumps(self.family)}, '
                f'"params": {json.dumps(self.params)}, "k": ')

    @property
    def name(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    @property
    def type_label(self) -> str:
        return self.ctype.label if self.ctype is not None else "no finite type"


class AccumulatorState(NamedTuple):
    """A semigroup element: descriptor, reals tuple and element count.

    An immutable ``NamedTuple``, so ``d, reals, count = state`` unpacks it.
    ``count`` is always tracked for emptiness detection; ``counter`` exposes
    it only for counter-bearing (T_k^+) families.
    """

    descriptor: MeanDescriptor
    reals: tuple
    count: int

    @property
    def overflow(self) -> bool:
        """Sticky: a non-finite component stays non-finite under combine."""
        return not all(map(math.isfinite, self.reals))

    @property
    def family_id(self) -> str:
        return self.descriptor.family_id

    @property
    def counter(self) -> Optional[int]:
        return self.count if self.descriptor.has_counter else None

    def is_empty(self) -> bool:
        return self.count == 0

    # convenience wrappers around the module-level operations
    def absorb(self, x: float) -> "AccumulatorState":
        return absorb(self, x)

    def merge(self, other: "AccumulatorState") -> "AccumulatorState":
        return merge(self, other)

    def finalize(self) -> float:
        return finalize(self)


def init(descriptor: MeanDescriptor) -> AccumulatorState:
    """The empty state: k zero reals (none for the median), count 0."""
    return AccumulatorState(descriptor, (0.0,) * descriptor.k, 0)


def absorb(state: AccumulatorState, x: float) -> AccumulatorState:
    d, reals, count = state
    x = float(x)
    if not d.domain.contains(x):
        raise DomainError(f"{x} outside domain of {d.name}")
    try:
        reals = d.step(reals, x)
    except OverflowError:  # every component inf, surfaced at finalize
        reals = (math.inf,) * d.k
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(AccumulatorState, (d, reals, count + 1))


def absorb_many(state: AccumulatorState, xs) -> AccumulatorState:
    """Absorb a batch: ``step`` folds each run of LEAF elements into a leaf,
    a binary-counter tree of ``combine`` joins the leaves, and the tree's
    result is combined into the state once.

    Same state as absorbing each element in turn, up to rounding (exactly,
    for one element); the first out-of-domain element raises the
    DomainError ``absorb`` would.  An OverflowError in ``step`` makes every
    component inf, as in ``absorb``.  A result with a non-finite component
    is re-run one element at a time, since a sum in another order can
    overflow where the running totals do not: an overflowed batch overflows
    in ``absorb`` too, and ``serialize_state`` writes both as k infs.
    """
    d, reals, count = state
    xs = list(map(float, xs))
    if not xs:
        return state
    contains = d.domain.contains
    # an interval holds all of xs iff it holds min and max, NaN aside
    if any(map(math.isnan, xs)) or not (contains(min(xs))
                                        and contains(max(xs))):
        bad = next(x for x in xs if not contains(x))
        raise DomainError(f"{bad} outside domain of {d.name}")
    step, combine, identity = d.step, d.combine, (0.0,) * d.k
    stack = []  # (height, reals) of 2**height leaves, heights decreasing
    try:
        for i in range(0, len(xs), LEAF):
            height, node = 0, reduce(step, xs[i:i + LEAF], identity)
            while stack and stack[-1][0] == height:
                node = combine(stack.pop()[1], node)
                height += 1
            stack.append((height, node))
    except OverflowError:  # every component inf, as in absorb
        return AccumulatorState(d, (math.inf,) * d.k, count + len(xs))
    node = stack.pop()[1]
    while stack:
        node = combine(stack.pop()[1], node)
    reals = combine(reals, node)
    if not all(map(math.isfinite, reals)):
        # a leaf or node overflowed, which the running totals may not do
        # (encodings of both signs): absorb decides
        return reduce(absorb, xs, state)
    return AccumulatorState(d, reals, count + len(xs))


def merge(a: AccumulatorState, b: AccumulatorState) -> AccumulatorState:
    d, reals_a, count_a = a
    db, reals_b, count_b = b
    if d is not db and d.family_id != db.family_id:
        raise FamilyMismatch(f"{d.family_id} vs {db.family_id}")
    return AccumulatorState(d, d.combine(reals_a, reals_b), count_a + count_b)


def finalize(state: AccumulatorState) -> float:
    if state.is_empty():
        raise EmptyStateError("finalize of the empty state")
    if state.overflow:
        raise NumericalFailure("state carries non-finite components")
    try:
        value = state.descriptor.finalizer(state.reals, state.count)
    except (OverflowError, ZeroDivisionError, ValueError) as e:
        # e.g. a count whose C(n, r) exceeds binary64, a sum that underflowed
        # (and then a division by it, or its log)
        raise NumericalFailure(f"finalizer failed: {e}") from e
    # the ABC check costs more than the rest of a finalize: floats skip it
    if (not (type(value) is float or isinstance(value, numbers.Real))
            or not math.isfinite(value)):
        raise NumericalFailure(f"finalizer produced {value}")
    return value


def evaluate_stream(descriptor: MeanDescriptor, xs: Iterable[float]) -> float:
    """init, absorb each element, finalize at end of input."""
    state = init(descriptor)
    for x in xs:
        state = absorb(state, x)
    return finalize(state)


def serialize_state(state: AccumulatorState) -> bytes:
    """UTF-8 JSON with hex-float reals; round-trips bit-exactly.

    The text is ``json.dumps`` of {version, family, params, k, reals,
    counter, overflow}, in that order; the descriptor caches it up to "k".
    An overflowed state is written as k ``"inf"`` reals, whatever mix of
    inf, NaN and finite components it holds, so its bytes do not depend on
    the order, batching or merge tree that built it.
    """
    d, reals, count = state
    overflow = "false"
    if state.overflow:
        reals, overflow = (math.inf,) * len(reals), "true"
    hexes = ", ".join([f'"{float(v).hex()}"' for v in reals])
    return (f'{d._blob_head}{len(reals)}, "reals": [{hexes}], '
            f'"counter": {count}, "overflow": {overflow}}}').encode()


_sorted_json = json.JSONEncoder(sort_keys=True).encode


@lru_cache(maxsize=DESCRIPTOR_CACHE_SIZE)
def _descriptor(key: str) -> MeanDescriptor:
    """The descriptor of key = the JSON text of [family, params]."""
    from . import families  # deferred: families depends on core

    return families.descriptor_from_params(*json.loads(key))


def parse_state(data) -> AccumulatorState:
    """Inverse of serialize_state; raises ParseError, with the byte offset
    of a JSON syntax error.

    Version 1 blobs are read where the layout did not change (vector sums
    and the median's multiset); a version 1 state of another combine held
    power sums and raises ParseError.

    States parsed with the same family and params share one descriptor
    (the last DESCRIPTOR_CACHE_SIZE of them are kept), so merging them
    skips the family_id comparison.  A descriptor is a shared value, and
    its family_id and serialize_state's head cache its params' JSON text:
    do not mutate its ``params``.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8", errors="replace")
    else:
        text = data
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from e
    if not isinstance(payload, dict):
        raise ParseError("top-level JSON value is not an object")
    for key in ("version", "family", "params", "k", "reals", "counter", "overflow"):
        if key not in payload:
            raise ParseError(f"missing field {key!r}")
    version = payload["version"]
    if type(version) is not int or version not in (1, STATE_FORMAT_VERSION):
        raise ParseError(f"unsupported version {version!r}")
    try:
        # the exact JSON text, as -0.0 == 0.0 and 1 == True would hash alike
        descriptor = _descriptor(_sorted_json([payload["family"], payload["params"]]))
    except Exception as e:
        raise ParseError(f"cannot rebuild descriptor: {e}") from e
    if version == 1 and descriptor.ctype and descriptor.combine is not _vector_add:
        # version 1 held power sums where version 2 holds another layout;
        # only vector sums and the median's multiset are unchanged
        raise ParseError(f"version 1 {descriptor.family} states hold power sums")
    if not isinstance(payload["reals"], list):
        raise ParseError("reals is not a list")
    try:
        reals = tuple(map(float.fromhex, payload["reals"]))
    except (ValueError, TypeError) as e:
        raise ParseError(f"bad hex float: {e}") from e
    if type(payload["k"]) is not int or payload["k"] != len(reals):
        raise ParseError(f"k {payload['k']!r} disagrees with {len(reals)} reals")
    counter = payload["counter"]
    if counter is None and not descriptor.has_counter:
        # files written before every family stored its count: counterless
        # families used the all-zero vector as the empty sentinel
        count = 0 if all(v == 0.0 for v in reals) else 1
    elif type(counter) is not int or counter < 0:
        raise ParseError(f"bad counter {counter!r}")
    else:
        count = counter
    state = AccumulatorState(descriptor, reals, count)
    if descriptor.ctype is None:
        # no finite type: the state is the sorted multiset of the inputs
        if (count != len(reals) or state.overflow
                or list(reals) != sorted(reals)):
            raise ParseError(
                f"expected {count} sorted finite components, one per element")
    elif len(reals) != descriptor.k:
        raise ParseError(
            f"expected {descriptor.k} components, got {len(reals)}")
    if count == 0 and reals != init(descriptor).reals:
        raise ParseError("an empty state must hold the identity reals")
    if payload["overflow"] is not state.overflow:
        raise ParseError(
            f"overflow flag {payload['overflow']!r} disagrees with the reals")
    return state

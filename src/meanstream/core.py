"""Online-premean contract: accumulator state, absorb, merge, finalize.

Every mean in this package is evaluated as ``finalize(fold(absorb, init, xs))``
where the state lives in a commutative semigroup: the descriptor's
``combine`` is its one operation, used by absorb (with the encoded element)
and by merge alike.  ``absorb_many`` takes a whole batch at once: the
descriptor's ``encode_many`` turns it into one state contribution, which is
combined once.  States are plain immutable values; absorb and merge return
new states, so shard-parallel accumulation followed by a merge tree needs no
locking.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import (
    DomainError,
    EmptyStateError,
    FamilyMismatch,
    NumericalFailure,
    ParseError,
)

STATE_FORMAT_VERSION = 2
DESCRIPTOR_CACHE_SIZE = 64  # parse_state's descriptors, by family and params


@dataclass(frozen=True)
class DomainInterval:
    """An interval of the extended real line with endpoint flags."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: lo={self.lo} hi={self.hi}")

    def contains(self, x):
        """Membership of a float, or elementwise of an array; NaN is outside."""
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


@dataclass(frozen=True)
class ComplexityType:
    """Position in the hierarchy T1 <= T1+ <= T2 <= T2+ <= ..."""

    k: int
    plus_counter: bool

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")

    @property
    def order_index(self) -> int:
        return 2 * self.k - 1 if self.plus_counter else 2 * self.k - 2

    @property
    def label(self) -> str:
        return f"T{self.k}+" if self.plus_counter else f"T{self.k}"

    def __le__(self, other: "ComplexityType") -> bool:
        return self.order_index <= other.order_index

    def __lt__(self, other: "ComplexityType") -> bool:
        return self.order_index < other.order_index


def _vector_add(a: tuple, b: tuple) -> tuple:
    """The default ``combine``: vector addition."""
    return tuple(map(operator.add, a, b))


@dataclass(frozen=True)
class MeanDescriptor:
    """Finite encoding of a generating pair: per-element encoder + finalizer.

    ``encode`` maps one input to its state contribution, which may be a
    shorter one-element form that ``combine`` recognises by its length;
    ``encode_many``, if given, maps a 1-D float64 array of inputs to the
    whole batch's contribution, a full state (without it, a batch is
    absorbed one element at a time); ``combine`` is the semigroup operation
    on reals tuples; ``finalizer`` maps (reals, count) back to the interval.
    ``combine`` must be associative and commutative, and ``init``'s reals
    (k zeros) must be its identity.  A non-finite component must stay
    non-finite under it, which is what lets a state's ``overflow`` flag be
    read off its reals.

    ``ctype`` is None for means of no finite type (median); their state is
    the whole sorted multiset.  ``slots``, when set, is the state length,
    which may differ from the paper's ``ctype.k``; without it the length is
    ``ctype.k``.  ``params`` must round-trip through JSON for the descriptor
    to be reconstructible from a state file.
    """

    family: str
    params: dict
    domain: DomainInterval
    ctype: Optional[ComplexityType]
    encode: Callable[[float], tuple]
    finalizer: Callable[[tuple, int], float]
    combine: Callable[[tuple, tuple], tuple] = _vector_add
    encode_many: Optional[Callable[[np.ndarray], tuple]] = None
    ctype_is_upper_bound: bool = False
    paper_k: Optional[int] = None  # biplanar: exponent-set cardinality
    slots: Optional[int] = None

    @property
    def k(self) -> int:
        """Number of reals in the fixed-length state; 0 for no finite type."""
        if self.slots is not None:
            return self.slots
        return 0 if self.ctype is None else self.ctype.k

    @property
    def has_counter(self) -> bool:
        return self.ctype.plus_counter if self.ctype is not None else True

    @property
    def family_id(self) -> str:
        return f"{self.family}:{json.dumps(self.params, sort_keys=True)}"

    @property
    def name(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    @property
    def type_label(self) -> str:
        return self.ctype.label if self.ctype is not None else "no finite type"


@dataclass(frozen=True)
class AccumulatorState:
    """A semigroup element: reals tuple and element count.

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
    d = state.descriptor
    x = float(x)
    if not d.domain.contains(x):
        raise DomainError(f"{x} outside domain of {d.name}")
    try:
        contribution = d.encode(x)
    except OverflowError:
        contribution = (math.inf,) * d.k  # overflow, surfaced at finalize
    return AccumulatorState(d, d.combine(state.reals, contribution),
                            state.count + 1)


def absorb_many(state: AccumulatorState, xs) -> AccumulatorState:
    """Absorb a batch: one domain check, one ``encode_many``, one combine.

    Same state as absorbing each element in turn, up to rounding; the first
    out-of-domain element raises the DomainError ``absorb`` would.  A
    descriptor without ``encode_many`` absorbs the elements in turn.
    """
    d = state.descriptor
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    if d.encode_many is None:  # encode through combine, one element at a time
        return reduce(absorb, xs.tolist(), state)
    inside = d.domain.contains(xs)
    if not inside.all():
        raise DomainError(f"{float(xs[inside.argmin()])} outside domain of {d.name}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf surfaces at finalize
        batch = d.encode_many(xs)
    return AccumulatorState(d, d.combine(state.reals, batch),
                            state.count + len(xs))


def merge(a: AccumulatorState, b: AccumulatorState) -> AccumulatorState:
    if a.descriptor is not b.descriptor and a.family_id != b.family_id:
        raise FamilyMismatch(f"{a.family_id} vs {b.family_id}")
    d = a.descriptor
    return AccumulatorState(d, d.combine(a.reals, b.reals), a.count + b.count)


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
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise NumericalFailure(f"finalizer produced {value}")
    return value


def evaluate_stream(descriptor: MeanDescriptor, xs: Iterable[float]) -> float:
    """init, absorb each element, finalize at end of input."""
    state = init(descriptor)
    for x in xs:
        state = absorb(state, x)
    return finalize(state)


def serialize_state(state: AccumulatorState) -> bytes:
    """UTF-8 JSON with hex-float reals; round-trips bit-exactly."""
    d = state.descriptor
    payload = {
        "version": STATE_FORMAT_VERSION,
        "family": d.family,
        "params": d.params,
        "k": len(state.reals),
        "reals": [float(v).hex() for v in state.reals],
        "counter": state.count,
        "overflow": state.overflow,
    }
    return json.dumps(payload).encode("utf-8")


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
    skips the family_id comparison.  A descriptor is a shared value: do
    not mutate its ``params``.
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
        descriptor = _descriptor(json.dumps(
            [payload["family"], payload["params"]], sort_keys=True))
    except Exception as e:
        raise ParseError(f"cannot rebuild descriptor: {e}") from e
    if version == 1 and descriptor.ctype and descriptor.combine is not _vector_add:
        # version 1 held power sums where version 2 holds another layout;
        # only vector sums and the median's multiset are unchanged
        raise ParseError(f"version 1 {descriptor.family} states hold power sums")
    if not isinstance(payload["reals"], list):
        raise ParseError("reals is not a list")
    try:
        reals = tuple(float.fromhex(s) for s in payload["reals"])
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

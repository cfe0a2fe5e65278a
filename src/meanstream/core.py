"""Online-premean contract: accumulator state, absorb, merge, finalize.

Every mean in this package is evaluated as ``finalize(fold(absorb, init, xs))``
where the state lives in a commutative semigroup: the descriptor's
``step`` pushes one element into a state's reals, and its ``combine`` merges
two states.  Core calls each descriptor through three kernels
(``MeanDescriptor.kernels``): ``absorb`` a checked step, ``absorb_many`` a
checked leaf fold over runs of LEAF elements, which a pairwise tree of the
combine joins, and ``merge`` the combine; absorb decides every overflow.
``table_mean`` compiles all three from a block table; any other descriptor
derives them from its ``step``.  A state is an immutable ``NamedTuple``
(descriptor, reals, count); absorb and merge return new states, so
shard-parallel accumulation followed by a merge tree needs no locking.
"""

from __future__ import annotations

# json and numbers are imported where they are used, so that neither
# ``import meanstream`` nor a stream's absorb and finalize loads them
import math
import operator
from functools import lru_cache, partial, reduce
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import (
    DomainError,
    EmptyStateError,
    FamilyMismatch,
    NumericalFailure,
    ParseError,
)

STATE_FORMAT_VERSION = 2
DESCRIPTOR_CACHE_SIZE = 64  # parse_state's descriptors, by blob head
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


class _cached:
    """``functools.cached_property``, storing the value with
    ``object.__setattr__``.  cached_property writes through ``__dict__``,
    which turns the instance's inline attribute values into a dict and
    makes every later attribute lookup on it slower.

    It suits an attribute read once per state or blob, not once per
    element: Python 3.11 does not specialise the load of an attribute that
    a class-level non-data descriptor shadows, so each read costs more than
    a plain attribute's."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


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
    the whole sorted multiset.  ``params`` must round-trip through JSON for
    the descriptor to be reconstructible from a state file.

    Its builder may set three inputs beside the fields: ``blocks``, the
    block table that ``table_mean`` gives a descriptor, its state layout,
    with ``block_env``, and ``leaf_fold``, a family's own fold (such as the
    median's sort).  ``identity`` is ``init``'s reals, and ``kernels`` what
    core calls: (checked step, leaf fold, combine), compiled on the first
    call of any of them.  The checked step and the leaf fold raise absorb's
    DomainError at the first element outside the domain; else the fold maps
    (xs, reals) to ``reduce(step, xs, reals)``, bit for bit.  They are
    compiled from ``blocks`` and ``block_env``, else from ``step``,
    ``leaf_fold`` and ``combine``.

    A descriptor is one shared value, as ``parse_state`` shares it: a copy
    or a deep copy of one is the descriptor itself, and it equals and
    hashes as itself alone.
    """

    _fields = ("family", "params", "domain", "ctype", "step", "finalizer",
               "combine", "ctype_is_upper_bound")
    # no __slots__: the builder's inputs and the cached attributes live
    # beside the fields, set with object.__setattr__ (see _cached)
    blocks = block_env = leaf_fold = None

    def __init__(self, family: str, params: dict, domain: DomainInterval,
                 ctype: Optional[ComplexityType],
                 step: Callable[[tuple, float], tuple],
                 finalizer: Callable[[tuple, int], float],
                 combine: Callable[[tuple, tuple], tuple] = _vector_add,
                 ctype_is_upper_bound: bool = False):
        super().__init__(family, params, domain, ctype, step, finalizer,
                         combine, ctype_is_upper_bound)
        object.__setattr__(self, "kernels", _first_use(self))

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @_cached
    def k(self) -> int:
        """The state's length: its blocks' total size, else ``ctype.k``."""
        if self.blocks is not None:
            return sum([size for _, size, _ in self.blocks])
        return 0 if self.ctype is None else self.ctype.k

    @_cached
    def identity(self) -> tuple:
        return (0.0,) * self.k

    @property
    def has_counter(self) -> bool:
        return self.ctype.plus_counter if self.ctype is not None else True

    @_cached
    def family_id(self) -> str:
        """Family and sorted params as text, built once, like ``_blob_head``,
        so merge compares two equal descriptors without ``json.dumps``."""
        import json

        return f"{self.family}:{json.dumps(self.params, sort_keys=True)}"

    @_cached
    def _blob_head(self) -> str:
        """serialize_state's JSON text up to ``"k": ``, built once, so
        ``params`` must not change afterwards."""
        return _head(self.family, self.params)

    @property
    def name(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    @property
    def type_label(self) -> str:
        return self.ctype.label if self.ctype is not None else "no finite type"


def table_mean(family: str, params: dict, domain: DomainInterval,
               ctype: ComplexityType, blocks: tuple, finalizer,
               env: dict, **extra) -> MeanDescriptor:
    """A descriptor on a block table, its state layout: for each block
    (kind, m, expression), the state holds e_1..e_m of y = expression(x),
    with e_0 = 1 implicit, so zeros are the identity.  A "sum" block (m = 1)
    is a plain sum; no version 1 state parses for a table with an "esym".

    Expressions are Python text in ``x``; the names they use besides
    (``log``, an exponent, a user's ``forward``) come from ``env``, never
    from the source text.  Its kernels compile on first use (``_kernels``);
    ``step`` (a fold of one element) and ``combine`` call them.
    """

    def step(reals, x):
        return d.kernels[1]((x,), reals)

    def combine(a, b):
        return d.kernels[2](a, b)

    d = MeanDescriptor(family, params, domain, ctype, step, finalizer,
                       combine, **extra)
    object.__setattr__(d, "blocks", blocks)
    object.__setattr__(d, "block_env", env)
    return d


def _first_use(d: MeanDescriptor) -> tuple:
    """Stand-ins for d's kernels: the first call of one compiles all three
    into ``d.kernels``, then runs its own.

    ``kernels`` is a plain attribute set in ``__init__``, not a ``_cached``:
    absorb reads it once per element, and a ``_cached`` load took 37-42 ns
    against 22 (3-4 % of small_streams' elements per second, Python 3.11 on
    a 2-core host).  Compiling in ``__init__`` instead would add about
    3.8 ms to small_streams' setup of about 17 ms, for descriptors that
    never absorb."""

    def stand_in(i):
        def kernel(*args):
            if d.kernels is stand_ins:
                object.__setattr__(d, "kernels", _kernels(d))
            return d.kernels[i](*args)
        return kernel

    stand_ins = stand_in(0), stand_in(1), stand_in(2)
    return stand_ins


def _kernels(d: MeanDescriptor) -> tuple:
    """d's (checked step, leaf fold, combine), from one ``exec``.

    The checked step and the fold test each x before they encode it, by one
    generated line that raises absorb's DomainError unless ``lo < x < hi``
    (``<=`` at a closed end; NaN fails).  Without a block table they then
    call ``step``, and ``leaf_fold`` or ``partial(reduce, step)``.  A block
    table's kernels are straight-line code over the locals a<i>_<j> (e_j of
    block i) and y<i> (block i's encoded x).  The step pushes y by e_j +=
    y e_{j-1}; the fold does the same for each x, from j = m down to 1, so
    it has the step's bits; the combine multiplies two states' polynomials
    prod(1 + y t), truncated at t^m, left to right.  The sizes are ints,
    and values reach the code through its globals, never through its text.
    """
    # blocks (("esym", 2, "x ** p"), ("sum", 1, "x")) give the step's body
    #     a0_1, a0_2, a1_1, = reals; y0 = x ** p; y1 = x
    #     return (a0_1 + y0, a0_2 + y0 * a0_1, a1_1 + y1,)
    domain = d.domain
    env = {"DomainError": DomainError, "lo": domain.lo, "hi": domain.hi,
           "name": d.name}
    check = ("if not lo %s x %s hi: "
             "raise DomainError(f'{x} outside domain of {name}')"
             % ("<=" if domain.lo_closed else "<",
                "<=" if domain.hi_closed else "<"))
    if d.blocks is None:
        env.update(step=d.step, leaf=d.leaf_fold or partial(reduce, d.step))
        exec("def checked(reals, x):\n    %s\n    return step(reals, x)\n"
             "def fold(xs, reals):\n    for x in xs:\n        %s\n"
             "    return leaf(xs, reals)\n" % (check, check), env)
        return env["checked"], env["fold"], d.combine
    suffixes, encoded, pushed, folded, merged = [], [], [], [], []
    for i, (_, m, expression) in enumerate(d.blocks):
        encoded.append("y%d = %s" % (i, expression))
        block = []
        for j in range(1, m + 1):
            push = "y%d * a%d_%d" % (i, i, j - 1) if j > 1 else "y%d" % i
            suffixes.append("%d_%d" % (i, j))
            pushed.append("a%d_%d + %s" % (i, j, push))
            block.append("a%d_%d += %s" % (i, j, push))
            merged.append(" + ".join(
                ["a%d_%d + b%d_%d" % (i, j, i, j)]
                + ["a%d_%d * b%d_%d" % (i, h, i, j - h) for h in range(1, j)]))
        folded += reversed(block)
    a, b = (", ".join(side + suffix for suffix in suffixes) for side in "ab")
    env.update(d.block_env)
    exec("def checked(reals, x):\n    %s\n    %s, = reals\n    %s\n"
         "    return (%s,)\n" % (check, a, "\n    ".join(encoded),
                                 ", ".join(pushed))
         + "def fold(xs, reals):\n    %s, = reals\n    for x in xs:\n"
           "        %s\n    return (%s,)\n" % (
             a, "\n        ".join([check] + encoded + folded), a)
         + "def combine(a, b):\n    %s, = a\n    %s, = b\n    return (%s,)\n"
         % (a, b, ", ".join(merged)), env)
    return env["checked"], env["fold"], env["combine"]


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
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(AccumulatorState, (descriptor, descriptor.identity, 0))


def absorb(state: AccumulatorState, x: float) -> AccumulatorState:
    d, reals, count = state
    x = float(x)  # an int past the float range raises OverflowError here
    try:
        reals = d.kernels[0](reals, x)
    except OverflowError:  # every component inf, surfaced at finalize
        reals = (math.inf,) * d.k
    return tuple.__new__(AccumulatorState, (d, reals, count + 1))


def merge_tree(combine, nodes):
    """The combine of nodes, in order, by a tree that grows as a binary
    counter carries: two subtrees of 2**h nodes join as soon as both are
    there.  So the tree is balanced, and at most log2(n) + 1 subtrees of n
    nodes wait at once.  None for no nodes."""
    stack = []  # (height, node) of 2**height nodes, heights decreasing
    for node in nodes:
        height = 0
        while stack and stack[-1][0] == height:
            node = combine(stack.pop()[1], node)
            height += 1
        stack.append((height, node))
    node = stack.pop()[1] if stack else None
    while stack:
        node = combine(stack.pop()[1], node)
    return node


def absorb_many(state: AccumulatorState, xs) -> AccumulatorState:
    """Absorb a batch: the leaf fold takes each run of LEAF elements into a
    leaf, ``merge_tree`` joins the leaves by the combine, and the tree's
    result is combined into the state once.

    Same state as absorbing each element in turn, up to rounding (exactly,
    for one element).  The fold tests each element as absorb does, so the
    first one outside the domain raises absorb's DomainError.  An
    OverflowError, or a non-finite result, re-runs the batch through
    absorb, which decides every overflow: a leaf or node can overflow where
    the running totals do not (encodings of both signs).
    """
    d, reals, count = state
    xs = list(map(float, xs))
    if not xs:
        return state
    _, fold, combine = d.kernels
    identity = d.identity
    try:
        node = merge_tree(combine, (fold(xs[i:i + LEAF], identity)
                                    for i in range(0, len(xs), LEAF)))
        reals = combine(reals, node)
        if all(map(math.isfinite, reals)):
            return AccumulatorState(d, reals, count + len(xs))
    except OverflowError:
        pass
    return reduce(absorb, xs, state)


def merge(a: AccumulatorState, b: AccumulatorState) -> AccumulatorState:
    """The combine of two states of one family.  A result with a non-finite
    component is every component inf; absorb's need not be (it may keep a
    finite component), so an overflowed state's reals depend on its route.
    Its ``serialize_state`` bytes and finalize's NumericalFailure do not
    (the median's multiset is finite)."""
    d, reals_a, count_a = a
    db, reals_b, count_b = b
    if d is not db and d.family_id != db.family_id:
        raise FamilyMismatch(f"{d.family_id} vs {db.family_id}")
    reals = d.kernels[2](reals_a, reals_b)
    # a sum is finite if every term is; one that is not may have overflowed
    if (d.ctype is not None and not math.isfinite(sum(reals))
            and not all(map(math.isfinite, reals))):
        reals = (math.inf,) * len(reals)
    return tuple.__new__(AccumulatorState, (d, reals, count_a + count_b))


def finalize(state: AccumulatorState) -> float:
    d, reals, count = state
    if not count:
        raise EmptyStateError("finalize of the empty state")
    if not all(map(math.isfinite, reals)):
        raise NumericalFailure("state carries non-finite components")
    try:
        value = d.finalizer(reals, count)
    except (OverflowError, ZeroDivisionError, ValueError) as e:
        # e.g. a count whose C(n, r) exceeds binary64, a sum that underflowed
        # (and then a division by it, or its log)
        raise NumericalFailure(f"finalizer failed: {e}") from e
    # the ABC check costs more than the rest of a finalize: floats skip it
    if (not (type(value) is float or _is_real(value))
            or not math.isfinite(value)):
        raise NumericalFailure(f"finalizer produced {value}")
    return value


def _is_real(value) -> bool:
    """Whether a finalizer's non-float result is a real number; numbers is
    imported here, so that ``import meanstream`` does not load it."""
    import numbers

    return isinstance(value, numbers.Real)


def evaluate_stream(descriptor: MeanDescriptor, xs: Iterable[float]) -> float:
    """init, absorb each element, finalize at end of input."""
    return finalize(reduce(absorb, xs, init(descriptor)))


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


def _head(family, params) -> str:
    """A state blob's text up to ``"k": ``: its version, family and params."""
    import json

    return (f'{{"version": {STATE_FORMAT_VERSION}, '
            f'"family": {json.dumps(family)}, '
            f'"params": {json.dumps(params)}, "k": ')


# how every text _head writes starts: a version 1 blob, or one with its
# keys in another order, fails this before its head reaches _descriptor
_HEAD_START = f'{{"version": {STATE_FORMAT_VERSION}, "family": '


@lru_cache(maxsize=DESCRIPTOR_CACHE_SIZE)
def _descriptor(head: str) -> Optional[MeanDescriptor]:
    """The descriptor of a blob head, the text ``_head`` writes, or None for
    any other text.  A refusal is cached like a descriptor, so a blob whose
    head ``_head`` would not write pays its ``json.loads`` once, not on every
    parse; junk heads can then evict descriptors from the cache.  A failed
    build raises, and is not cached."""
    import json

    try:
        payload = json.loads(head[:-len(', "k": ')] + "}")
        family, params = payload["family"], payload["params"]
        written = _head(family, params)
    except Exception:
        return None
    if written != head:  # another version, key order, spacing or key
        return None
    from . import families  # deferred: families depends on core

    return families.descriptor_from_params(family, params)


def parse_state(data) -> AccumulatorState:
    """Inverse of serialize_state; raises ParseError, with the byte offset
    of a JSON syntax error.

    serialize_state's own text is read directly, by splitting it at its
    keys; any other JSON text (keys reordered or re-spaced, version 1, an
    extra key) and anything malformed goes through ``json.loads``.  Both
    give the same state or the same ParseError.

    Version 1 blobs are read where the layout did not change (vector sums
    and the median's multiset); a version 1 state of another combine held
    power sums and raises ParseError.  Only a version 1 blob of a
    counterless family may have a null counter.

    States parsed with the same head (serialize_state's text up to "k",
    which holds the family and params) share one descriptor (the last
    DESCRIPTOR_CACHE_SIZE of them are kept), so merging them skips the
    family_id comparison.  Params spelled differently, such as with their
    keys in another order, get a descriptor of their own, which still
    merges with the other by family_id.  A descriptor is a shared value,
    and its family_id and serialize_state's head cache its params' JSON
    text: do not mutate its ``params``.
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8", errors="replace")
    else:
        text = data
    fields = _read_own_text(text) if type(text) is str else None
    if fields is None:
        return _parse_json(text)
    head, k, reals, counter, overflow = fields
    try:  # the text is JSON, so a failed build is json's error too
        descriptor = _descriptor(head)
    except Exception as e:
        raise ParseError(f"cannot rebuild descriptor: {e}") from e
    if descriptor is None:
        return _parse_json(text)
    return _checked_state(descriptor, k, reals, counter, overflow)


def _read_own_text(text: str) -> Optional[tuple]:
    """(head, k, reals, counter, overflow) of a text laid out as
    serialize_state writes it, or None.  Whatever it accepts is JSON that
    ``json.loads`` reads as the same values, once ``_descriptor`` accepts
    the head: k and the counter are ints in canonical decimal, and the
    reals are printable strings that ``float.fromhex`` reads.  fromhex
    reads no quote, backslash or non-ASCII character, but it strips a
    control character, which JSON rejects.
    """
    if not text.startswith(_HEAD_START):
        return None
    head, sep, rest = text.partition(', "k": ')
    k_text, sep_reals, rest = rest.partition(', "reals": [')
    hexes, sep_counter, rest = rest.partition('], "counter": ')
    counter_text, sep_overflow, flag = rest.partition(', "overflow": ')
    if not (sep and sep_reals and sep_counter and sep_overflow):
        return None
    if flag == "false}":
        overflow = False
    elif flag == "true}":
        overflow = True
    else:
        return None
    try:
        k, counter = int(k_text), int(counter_text)
        if not hexes:
            reals = ()
        elif hexes[0] == hexes[-1] == '"' and hexes.isprintable():
            reals = tuple(map(float.fromhex, hexes[1:-1].split('", "')))
        else:
            return None
    except (ValueError, OverflowError):  # int digit limit, not hex, too big
        return None
    if str(k) != k_text or str(counter) != counter_text:  # "01", " 1", "+1"
        return None
    return head + sep, k, reals, counter, overflow


def _parse_json(text) -> AccumulatorState:
    """parse_state through ``json.loads``, for any text."""
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from e
    except (ValueError, RecursionError) as e:  # digit limit, deep nesting
        raise ParseError(f"invalid JSON: {e}") from e
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
        descriptor = _descriptor(_head(payload["family"], payload["params"]))
    except Exception as e:
        raise ParseError(f"cannot rebuild descriptor: {e}") from e
    if descriptor is None:  # not expected: _head's own text reads back
        raise ParseError("cannot rebuild descriptor: params do not read back")
    if version == 1 and any(kind == "esym"
                            for kind, _, _ in descriptor.blocks or ()):
        # version 1 held power sums where version 2 holds e_1..e_m; plain
        # sums and the median's multiset are unchanged
        raise ParseError(f"version 1 {descriptor.family} states hold power sums")
    if not isinstance(payload["reals"], list):
        raise ParseError("reals is not a list")
    try:
        reals = tuple(map(float.fromhex, payload["reals"]))
    except (ValueError, TypeError, OverflowError) as e:
        raise ParseError(f"bad hex float: {e}") from e
    counter = payload["counter"]
    if counter is None and version == 1 and not descriptor.has_counter:
        # files written before every family stored its count: counterless
        # families used the all-zero vector as the empty sentinel
        counter = 0 if all(v == 0.0 for v in reals) else 1
    return _checked_state(descriptor, payload["k"], reals, counter,
                          payload["overflow"])


def _checked_state(descriptor, k, reals, count, overflow) -> AccumulatorState:
    """The state of a blob's fields, after the checks that both parses
    run once they hold the descriptor and the reals."""
    if type(k) is not int or k != len(reals):
        raise ParseError(f"k {k!r} disagrees with {len(reals)} reals")
    if type(count) is not int or count < 0:
        raise ParseError(f"bad counter {count!r}")
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
    if count == 0 and reals != descriptor.identity:
        raise ParseError("an empty state must hold the identity reals")
    if overflow is not state.overflow:
        raise ParseError(
            f"overflow flag {overflow!r} disagrees with the reals")
    return state

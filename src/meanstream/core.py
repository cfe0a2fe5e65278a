"""Online-premean contract: accumulator state, absorb, merge, finalize.

Every mean in this package is evaluated as ``finalize(fold(absorb, init, xs))``
where the state lives in a commutative semigroup: the descriptor's
``step`` pushes one element into a state's reals, and its ``combine`` merges
two states.  Core calls each descriptor through three kernels
(``MeanDescriptor.kernels``): ``absorb`` calls a generated absorb, which
takes a state and an element and returns the next state, ``absorb_many`` a
checked leaf fold over runs of LEAF elements, which a pairwise tree of the
combine joins, and ``merge`` the combine; absorb decides every overflow.
``table_mean`` compiles all three from a block table; any other descriptor
derives them from its ``step``.  A state is an immutable ``NamedTuple``
(descriptor, reals, count); absorb and merge return new states, and
``init`` returns the descriptor's one empty state, so shard-parallel
accumulation followed by a merge tree needs no locking.  The state rule is
tested once, where a state is made by hand: ``AccumulatorState(...)``
refuses a malformed one, and the states core makes keep it by construction.
"""

# json and numbers are imported where they are used, and the state format
# lives in state_io, so that neither ``import meanstream`` nor a stream's
# absorb and finalize loads them
import importlib
import math
import operator
from functools import partial, reduce
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import (
    DomainError,
    EmptyStateError,
    FamilyMismatch,
    InvalidDescriptor,
    NumericalFailure,
)

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

    Three keyword-only inputs beside the fields: ``blocks``, the block
    table that ``table_mean`` gives a descriptor, its state layout, with
    ``block_env``, and ``leaf_fold``, a family's own fold (such as the
    median's sort).  ``__init__`` fixes the layout: ``k``, the blocks' total
    size, else ``ctype.k`` (0 for no finite type), ``identity``, k zeros,
    and ``init``'s one empty state.  ``kernels`` is what core calls:
    (absorb, leaf fold, combine), compiled on the first call of any of
    them.  The absorb maps (state, x) to the next state, whose reals
    are ``step(reals, float(x))``; it and the leaf fold raise absorb's
    DomainError at the first element outside the domain; else the fold maps
    (xs, reals) to ``reduce(step, xs, reals)``, bit for bit.  They are
    compiled from ``blocks`` and ``block_env``, else from ``step``,
    ``leaf_fold`` and ``combine``.  A descriptor's own step, combine and
    leaf fold are trusted to keep its state layout (k reals; the median's
    sorted multiset), as they are trusted to compute its values: core does
    not test the states they give.

    A descriptor is one shared value, as ``parse_state`` shares it: a copy
    or a deep copy of one is the descriptor itself, and it equals and
    hashes as itself alone.  A pickle loads it as ``parse_state`` does,
    from its family and params, through one shared descriptor per blob
    head; so only a descriptor that these rebuild (every built-in)
    pickles.  One whose family and params build another mean, such as a
    user's step under a built-in's name, neither pickles nor serializes.
    """

    _fields = ("family", "params", "domain", "ctype", "step", "finalizer",
               "combine", "ctype_is_upper_bound")
    # no __slots__: the keyword inputs blocks, block_env and leaf_fold, the
    # layout, the kernels and the cached attributes live beside the fields,
    # set with object.__setattr__ (see _cached)

    def __init__(self, family: str, params: dict, domain: DomainInterval,
                 ctype: Optional[ComplexityType],
                 step: Callable[[tuple, float], tuple],
                 finalizer: Callable[[tuple, int], float],
                 combine: Callable[[tuple, tuple], tuple] = _vector_add,
                 ctype_is_upper_bound: bool = False, *,
                 blocks: Optional[tuple] = None,
                 block_env: Optional[dict] = None,
                 leaf_fold: Optional[Callable] = None):
        super().__init__(family, params, domain, ctype, step, finalizer,
                         combine, ctype_is_upper_bound)
        k = (sum([size for _, size, _ in blocks]) if blocks is not None
             else 0 if ctype is None else ctype.k)
        identity = (0.0,) * k
        # tuple.__new__ skips AccumulatorState's test of the state rule
        empty = tuple.__new__(AccumulatorState, (self, identity, 0))
        for name, value in (("blocks", blocks), ("block_env", block_env),
                            ("leaf_fold", leaf_fold), ("k", k),
                            ("identity", identity), ("_empty", empty),
                            ("kernels", _first_use(self))):
            object.__setattr__(self, name, value)

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        _, why = self._twin
        if why:
            raise InvalidDescriptor(f"cannot pickle {self.name}: {why}")
        from .state_io import shared_descriptor

        return shared_descriptor, (self.family, self.params)

    @_cached
    def _twin(self) -> tuple:
        """(twin, why): the descriptor that ``parse_state`` and
        ``pickle.loads`` build from this one's family and params, or None
        when they build none, and why it is not this mean, or None; found
        once (``state_io._twin``)."""
        from .state_io import _twin

        return _twin(self)

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
        ``params`` must not change afterwards.  A descriptor whose family
        and params build another mean has none: its blob would parse as
        that mean."""
        from .state_io import _head

        twin, why = self._twin
        if twin is not None and why:
            raise InvalidDescriptor(f"cannot serialize {self.name}: {why}")
        return _head(self.family, self.params)

    @property
    def name(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"

    @property
    def type_label(self) -> str:
        return self.ctype.label if self.ctype is not None else "no finite type"


def table_mean(family: str, params: dict, domain: DomainInterval,
               ctype: ComplexityType, blocks: tuple, finalizer, env: dict, *,
               ctype_is_upper_bound: bool = False) -> MeanDescriptor:
    """A descriptor on a block table, its state layout: for each block
    (kind, m, expression), the state holds e_1..e_m of y = expression(x),
    with e_0 = 1 implicit, so zeros are the identity.  A "sum" block (m = 1)
    is a plain sum.

    Expressions are Python text in ``x``; the names they use besides
    (``log``, an exponent, a user's ``forward``) come from ``env``, never
    from the source text.  The descriptor gets the table and env as its
    ``blocks`` and ``block_env`` keywords, and ``ctype_is_upper_bound`` as
    given.  Its kernels compile on first use (``_kernels``); ``step`` (a
    fold of one element) and ``combine`` call them.
    """

    def step(reals, x):
        return d.kernels[1]((x,), reals)

    def combine(a, b):
        return d.kernels[2](a, b)

    d = MeanDescriptor(family, params, domain, ctype, step, finalizer,
                       combine, ctype_is_upper_bound, blocks=blocks,
                       block_env=env)
    return d


def _first_use(d: MeanDescriptor) -> tuple:
    """Stand-ins for d's kernels (absorb, leaf fold, combine): the first
    call of one compiles all three into ``d.kernels``, then runs its own.

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
    """d's (absorb, leaf fold, combine), from one ``exec``.

    The generated ``absorb(state, x)`` returns the next state: it reads
    reals and count by index (``state[1]``, ``state[2]``), and the
    descriptor is a constant, ``d`` in its globals, as core dispatches on
    ``state[0]``.  It runs ``x = float(x)``, then the domain check, then
    encodes and pushes x under ``try``, where an OverflowError gives k
    infs.  It and the fold test each x before they encode it, by one
    generated line that raises absorb's DomainError unless ``lo < x < hi``
    (``<=`` at a closed end; NaN fails).  Without a block table they then
    call ``step``, and ``leaf_fold`` or ``partial(reduce, step)``.  A block
    table's kernels are straight-line code over the locals a<i>_<j> (e_j of
    block i) and y<i> (block i's encoded x).  Absorb pushes y by
    e_j += y e_{j-1}; the fold does the same for each x, from j = m down to
    1, so it has absorb's bits; the combine multiplies two states'
    polynomials prod(1 + y t), truncated at t^m, as e_j = (a_j + b_j)
    + sum over h < j/2 of (a_h b_{j-h} + a_{j-h} b_h) [+ a_{j/2} b_{j/2}],
    left to right: each term commutes in a and b, so merge(a, b) and
    merge(b, a) have the same bits.  The sizes
    are ints, and values reach the code through its globals, never through
    its text.
    """
    # blocks (("esym", 2, "x ** p"), ("sum", 1, "x")) give absorb's body
    #     (a0_1, a0_2, a1_1,) = state[1]; n = state[2]; x = float(x)
    #     <check>
    #     try: y0 = x ** p; y1 = x
    #          return new(State, (d, (a0_1 + y0, a0_2 + y0 * a0_1,
    #                                 a1_1 + y1,), n + 1))
    #     except OverflowError: return new(State, (d, infs, n + 1))
    domain = d.domain
    env = {"DomainError": DomainError, "lo": domain.lo, "hi": domain.hi,
           "name": d.name, "new": tuple.__new__, "State": AccumulatorState,
           "infs": (math.inf,) * d.k}
    check = ("if not lo %s x %s hi: "
             "raise DomainError(f'{x} outside domain of {name}')"
             % ("<=" if domain.lo_closed else "<",
                "<=" if domain.hi_closed else "<"))
    absorb = ("def absorb(state, x):\n    %s = state[1]\n    n = state[2]\n"
              "    x = float(x)\n    %s\n    try:\n        %s\n"
              "    except OverflowError:\n"
              "        return new(State, (d, infs, n + 1))\n")
    if d.blocks is None:
        env.update(step=d.step, leaf=d.leaf_fold or partial(reduce, d.step),
                   d=d)
        exec(absorb % ("reals", check,
                       "return new(State, (d, step(reals, x), n + 1))")
             + "def fold(xs, reals):\n    for x in xs:\n        %s\n"
               "    return leaf(xs, reals)\n" % check, env)
        return env["absorb"], env["fold"], d.combine
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
                + ["(a%d_%d * b%d_%d + a%d_%d * b%d_%d)"
                   % (i, h, i, j - h, i, j - h, i, h)
                   for h in range(1, (j + 1) // 2)]
                + (["a%d_%d * b%d_%d" % (i, j // 2, i, j // 2)]
                   if j % 2 == 0 else [])))
        folded += reversed(block)
    a, b = (", ".join(side + suffix for suffix in suffixes) for side in "ab")
    env.update(d.block_env)
    env["d"] = d  # after block_env, whose names cannot shadow it
    exec(absorb % ("(%s,)" % a, check, "\n        ".join(
            encoded + ["return new(State, (d, (%s,), n + 1))"
                       % ", ".join(pushed)]))
         + "def fold(xs, reals):\n    %s, = reals\n    for x in xs:\n"
           "        %s\n    return (%s,)\n" % (
             a, "\n        ".join([check] + encoded + folded), a)
         + "def combine(a, b):\n    %s, = a\n    %s, = b\n    return (%s,)\n"
         % (a, b, ", ".join(merged)), env)
    return env["absorb"], env["fold"], env["combine"]


class _StateFields(NamedTuple):
    # typing.NamedTuple refuses __new__ and _make in its class body, so
    # AccumulatorState sets them in a subclass
    descriptor: MeanDescriptor
    reals: tuple
    count: int


class AccumulatorState(_StateFields):
    """A semigroup element: descriptor, reals tuple and element count.

    An immutable ``NamedTuple``, so ``d, reals, count = state`` unpacks it;
    core's per-element, merge and state I/O paths read it by index instead,
    as Python 3.11 specialises the unpack of an exact tuple only.
    ``count`` is always tracked for emptiness detection; ``counter`` exposes
    it only for counter-bearing (T_k^+) families.

    The constructor tests the state rule, and raises NumericalFailure for a
    state that breaks it: a non-negative int count, and ``d.k`` reals within
    the float range, ``d.identity`` at count 0; for no finite type (the
    median), the sorted multiset, ``count`` finite numbers in ascending
    order (an O(n) test).  It keeps the reals as a tuple, ``tuple(reals)``,
    which is the reals themselves when they are one, so that a state never
    shares a mutable container with its caller.  A first argument that is
    not a descriptor raises InvalidDescriptor.  ``_make``, ``_replace``,
    copy and pickle build through it.  Core's states keep the rule by
    construction and skip the test (``tuple.__new__``), so finalize and
    merge trust their operands.
    """

    __slots__ = ()

    def __new__(cls, descriptor: MeanDescriptor, reals: tuple, count: int):
        d, fault = descriptor, None
        try:
            size = d.k if d.ctype is not None else count
            if type(count) is not int or count < 0:
                fault = f"bad counter {count!r}: not a non-negative int"
            elif len(reals := tuple(reals)) != size:
                fault = f"expected {size} components, got {len(reals)}"
            elif not count and reals != d.identity:
                fault = "an empty state must hold the identity reals"
            elif d.ctype is not None:
                sum(reals, 0.0)  # for its TypeError or OverflowError alone
            elif not _finite(reals):
                fault = "state carries non-finite components"
            elif list(reals) != sorted(reals):
                fault = "components are not in ascending order"
        except TypeError:
            fault = "state carries non-numeric components"
        except OverflowError:
            fault = "state carries a component past the float range"
        except AttributeError:  # no ctype, k or identity to test the rule by
            if isinstance(descriptor, MeanDescriptor):
                raise
            raise InvalidDescriptor(f"a state's descriptor is not a "
                                    f"MeanDescriptor: {descriptor!r}") from None
        if fault is not None:
            raise NumericalFailure(fault)
        return tuple.__new__(cls, (descriptor, reals, count))

    # the NamedTuple's own _make, which _replace calls, skips __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def overflow(self) -> bool:
        """Sticky: a non-finite component stays non-finite under combine."""
        return not _finite(self.reals)

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
    """The empty state: k zero reals (none for the median), count 0.  It is
    the descriptor's one empty state, built once: states are immutable, so
    every stream can start from it."""
    return descriptor._empty


def absorb(state: AccumulatorState, x: float) -> AccumulatorState:
    """The state with x absorbed, by the descriptor's generated absorb
    (``_kernels``).  An OverflowError of float(x), an int past the float
    range, is the caller's; one of the step makes every component inf,
    surfaced at finalize.  A running sum loses digits with the length of
    the stream: ``absorb_many`` is the accurate route for a batch."""
    return state[0].kernels[0](state, x)


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
    return _absorb_floats(state, list(map(float, xs)))


def _absorb_floats(state: AccumulatorState, xs: list) -> AccumulatorState:
    """absorb_many of a list of floats, which it neither copies nor
    converts: eval's parsers hand it the floats they made."""
    d, reals, count = state
    if not xs:
        return state
    _, fold, combine = d.kernels
    try:
        node = merge_tree(combine, (fold(xs[i:i + LEAF], d.identity)
                                    for i in range(0, len(xs), LEAF)))
        reals = combine(reals, node)
        if _finite(reals):
            return tuple.__new__(AccumulatorState, (d, reals, count + len(xs)))
    except OverflowError:
        pass
    return reduce(absorb, xs, state)


def _finite(reals) -> bool:
    """Whether every real is finite: a finite sum proves every term finite.
    A non-number raises TypeError, an int past the float range OverflowError
    (the sum starts at 0.0, so ints that cancel convert too)."""
    return math.isfinite(sum(reals, 0.0)) or all(map(math.isfinite, reals))


def merge(a: AccumulatorState, b: AccumulatorState) -> AccumulatorState:
    """The combine of two states of one family, which are trusted to keep
    the state rule (``AccumulatorState``).  A result with a non-finite
    component is every component inf; absorb's need not be (it may keep a
    finite component), so an overflowed state's reals depend on its route,
    but not its ``serialize_state`` bytes nor its finalize."""
    d = a[0]
    db = b[0]
    if d is not db and d.family_id != db.family_id:
        raise FamilyMismatch(f"{d.family_id} vs {db.family_id}")
    try:
        reals = d.kernels[2](a[1], b[1])
        if d.ctype is None or _finite(reals):
            return tuple.__new__(AccumulatorState, (d, reals, a[2] + b[2]))
    except OverflowError:  # int reals whose products pass the float range
        pass
    return tuple.__new__(AccumulatorState, (d, (math.inf,) * d.k, a[2] + b[2]))


def finalize(state: AccumulatorState) -> float:
    """The mean of a state's elements, which is trusted to keep the state
    rule (``AccumulatorState``).  Raises EmptyStateError for count 0, and
    NumericalFailure for non-finite reals or a failed finalizer."""
    d = state[0]
    reals = state[1]
    count = state[2]
    if not count:
        raise EmptyStateError("finalize of the empty state")
    if not _finite(reals):
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
    """The mean of xs: ``absorb_many`` of each run of 64 leaves (4096
    elements), ``merge_tree`` of the runs' states, then finalize.  So a
    stream is summed by the pairwise tree of one ``absorb_many`` call, the
    accurate route for a batch, but only one run is held at a time: xs may
    be a generator of any length.  Up to LEAF elements, the state is the one
    that absorbing each in turn builds."""
    empty = init(descriptor)
    rest = iter(xs)
    runs = iter(lambda: list(islice(rest, 64 * LEAF)), [])
    # merge_tree gives None for no runs, and a state is a non-empty tuple
    return finalize(merge_tree(merge, map(partial(absorb_many, empty), runs))
                    or empty)


def _lazy_names(namespace: dict, table: dict):
    """A module ``__getattr__`` for names loaded on first use.  table maps
    a module of this package to the names it defines: the first lookup of
    one of them, or of the module's own name, imports the module and stores
    the value in namespace, the caller's globals, so only that first lookup
    gets here.  Any other name raises AttributeError."""
    owners = {name: module for module, names in table.items()
              for name in (module, *names)}

    def __getattr__(name):
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} "
                                 f"has no attribute {name!r}")
        loaded = importlib.import_module(f"{__package__}.{module}")
        value = namespace[name] = (
            loaded if name == module else getattr(loaded, name))
        return value

    return __getattr__


# the state format's functions, which bench/job.py wraps through core,
# load state_io on first use; its other names are state_io's alone
_LAZY = {"state_io": ("parse_state", "serialize_state")}
__getattr__ = _lazy_names(globals(), _LAZY)

"""The state format: ``serialize_state`` and ``parse_state``.

A state file is UTF-8 JSON, {version, family, params, k, reals, counter,
overflow} in that order, with the reals as hex floats, so it round-trips
bit-exactly.  This module loads on the first serialize, parse or pickle
(through ``meanstream``, ``core`` or ``cli``), so that neither ``import
meanstream`` nor a stream's absorb and finalize compiles it or loads
``json``.  A pickled descriptor loads as a parsed one does, through
``shared_descriptor``.
"""

import json
import math
from functools import lru_cache
from typing import Optional

from . import families
from .core import AccumulatorState, MeanDescriptor, _finite
from .errors import NumericalFailure, ParseError

STATE_FORMAT_VERSION = 2
DESCRIPTOR_CACHE_SIZE = 64  # parse_state's descriptors, by blob head


def serialize_state(state: AccumulatorState) -> bytes:
    """UTF-8 JSON with hex-float reals; round-trips bit-exactly.

    The text is ``json.dumps`` of {version, family, params, k, reals,
    counter, overflow}, in that order; the descriptor caches it up to "k".
    An overflowed state is written as k ``"inf"`` reals, whatever mix of
    inf, NaN and finite components it holds, so its bytes do not depend on
    the order, batching or merge tree that built it.
    """
    reals = state[1]
    if _finite(reals):
        overflow = "false"
    else:
        reals, overflow = (math.inf,) * len(reals), "true"
    hexes = '", "'.join(map(float.hex, map(float, reals)))
    if reals:
        hexes = f'"{hexes}"'
    return (f'{state[0]._blob_head}{len(reals)}, "reals": [{hexes}], '
            f'"counter": {state[2]}, "overflow": {overflow}}}').encode()


def _head(family, params) -> str:
    """A state blob's text up to ``"k": ``: its version, family and params."""
    return (f'{{"version": {STATE_FORMAT_VERSION}, '
            f'"family": {json.dumps(family)}, '
            f'"params": {json.dumps(params)}, "k": ')


# how every text _head writes starts: a blob of another version or key
# order fails this before its head reaches _descriptor
_HEAD_START = f'{{"version": {STATE_FORMAT_VERSION}, "family": '


@lru_cache(maxsize=DESCRIPTOR_CACHE_SIZE)
def _descriptor(head: str) -> Optional[MeanDescriptor]:
    """The descriptor of a blob head, the text ``_head`` writes, or None for
    any other text.  A refusal is cached like a descriptor, so a blob whose
    head ``_head`` would not write pays its ``json.loads`` once, not on every
    parse; junk heads can then evict descriptors from the cache.  A failed
    build raises, and is not cached."""
    try:
        payload = json.loads(head[:-len(', "k": ')] + "}")
        family, params = payload["family"], payload["params"]
        written = _head(family, params)
    except Exception:
        return None
    if written != head:  # another key order, spacing or key
        return None
    return families.descriptor_from_params(family, params)


def shared_descriptor(family: str, params: dict) -> MeanDescriptor:
    """The descriptor that ``parse_state`` gives a blob of this family and
    params, one shared value per blob head; ``pickle.loads`` builds a
    descriptor through it.  The head is this version's own text, so it
    always reads back; a failed build raises."""
    return _descriptor(_head(family, params))


def parse_state(data) -> AccumulatorState:
    """Inverse of serialize_state; raises ParseError, with the byte offset
    of a JSON syntax error.

    serialize_state's own text is read directly, by splitting it at its
    keys; any other JSON text (keys reordered or re-spaced, an extra key)
    and anything malformed goes through ``json.loads``.  Both give the same
    state or the same ParseError, which any version but
    STATE_FORMAT_VERSION raises.

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
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from e
    except (ValueError, RecursionError) as e:  # digit limit, deep nesting
        raise ParseError(f"invalid JSON: {e}") from e
    except TypeError as e:  # neither text nor bytes
        raise ParseError(f"a state is text or bytes, not "
                         f"{type(text).__name__}") from e
    if not isinstance(payload, dict):
        raise ParseError("top-level JSON value is not an object")
    for key in ("version", "family", "params", "k", "reals", "counter", "overflow"):
        if key not in payload:
            raise ParseError(f"missing field {key!r}")
    version = payload["version"]
    if type(version) is not int or version != STATE_FORMAT_VERSION:
        raise ParseError(f"unsupported version {version!r}")
    try:
        # the exact JSON text, as -0.0 == 0.0 and 1 == True would hash alike
        descriptor = _descriptor(_head(payload["family"], payload["params"]))
    except Exception as e:
        raise ParseError(f"cannot rebuild descriptor: {e}") from e
    if descriptor is None:  # not expected: _head's own text reads back
        raise ParseError("cannot rebuild descriptor: params do not read back")
    if not isinstance(payload["reals"], list):
        raise ParseError("reals is not a list")
    try:
        reals = tuple(map(float.fromhex, payload["reals"]))
    except (ValueError, TypeError, OverflowError) as e:
        raise ParseError(f"bad hex float: {e}") from e
    return _checked_state(descriptor, payload["k"], reals, payload["counter"],
                          payload["overflow"])


def _checked_state(descriptor, k, reals, count, overflow) -> AccumulatorState:
    """The state of a blob's fields, after the checks both parses run: k,
    the overflow flag and the state rule, which the ``AccumulatorState``
    constructor tests (its refusal is a ParseError with the same reason)."""
    if type(k) is not int or k != len(reals):
        raise ParseError(f"k {k!r} disagrees with {len(reals)} reals")
    try:
        state = AccumulatorState(descriptor, reals, count)
    except NumericalFailure as e:
        raise ParseError(str(e)) from e
    # an identity test: a flag that is not a bool (0, null, "false") fails
    if overflow is not (not _finite(reals)):
        raise ParseError(
            f"overflow flag {overflow!r} disagrees with the reals")
    return state

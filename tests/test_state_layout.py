"""Golden state bytes and the state layout of every built-in descriptor.

``serialize_state`` of one fixed stream is pinned by its SHA-256 for each
built-in, so a change to how a table is laid out, stepped, folded or
written shows here, whatever the finalizer makes of it.  The layout table
pins each built-in's state length, and which of them hold e-state blocks
(e_1..e_m of an encoding): a version 1 blob held power sums there, so it
must not parse as one of them, and parses as before for every other.
"""

import hashlib
import json
from functools import reduce

import pytest

import meanstream as ms
from meanstream.errors import ParseError
from test_core import all_families

# 40 values in [3, 4], the domain of piecewise_h, and so of every built-in
STREAM = [3.0 + (i * 17 % 40) / 40.0 + i / 4096.0 for i in range(40)]


def built_ins():
    return all_families() + [ms.piecewise_counterexample(),
                             ms.cube_over_square()]


def ids(descriptors):
    return [d.name for d in descriptors]


# SHA-256 of serialize_state after STREAM; absorb and absorb_many agree on
# 40 values, as one leaf folds them in absorb's order
GOLDEN_SHA256 = {
    "power(p=1.0)":
        "66083ea509c4fca0a05afb8bcf3d4f6168c6d2404af13bfbd1f6fe0456167f98",
    "power(p=0.0)":
        "0cb00b0833a8454557fc60f7a4adcedd6873acf0d8fb82204d3e0f6a08e9e833",
    "power(p=-2.0)":
        "4856225ffe4a3ca23e3bfde9e2a293b6d02dca08622b21e074ce232b731a7d04",
    "quasiarithmetic(f=ln)":
        "bda966dd8c4abfd9cdab268f4c89f1a3b0f0d460c070a451fbad8b44e60024a6",
    "gini(p=2.0,q=1.0)":
        "b94d9d0e0a9dab88657d45f073f04e32174a9d160fb0d0534ed37c390a2d0656",
    "gini(p=3.0,q=3.0)":
        "9ddfd6e87a2d665a7cb597a5b0a4b5f0fe421a08ddc8a081d6631453f1a3828c",
    "bajraktarevic(f=power:2,g=power:1)":
        "ede84ff9333b79871bd72008722cf9a6ab249435ffd4d8917a5133496c4248b8",
    "hamy(r=2)":
        "6f4355e0a096b9f7bbc1bba66540d5db759e0f16d84391fc5218487cdf81f453",
    "hamy(r=3)":
        "0bda53901f914efd43228bc51fd22aeba3cc134018f58e5e4c74cefbd9a26fb7",
    "sympoly(r=2)":
        "8ee72fbfd29a299bfb7dc47733f9b31d2bafec02ffad0e75c28fd3b027609e04",
    "sympoly(r=3)":
        "78551443dde433ec2ae99829c288073c7332f7cfae92c66b0c38499cae7e0962",
    "biplanar(c=3,d=3,p=2.0,q=3.0)":
        "7768546778e51657270271586832769ea4defd40b2eeef78b7d38bd7a005070f",
    "biplanar(c=1,d=1,p=2.0,q=1.0)":
        "6cdb0aba7381052cac0ae09e91f8b7b2ab9690bc7752e82f248f059bba78ba53",
    "median(kind=lower)":
        "8a8b0275248420f262f8b18aaa9fa574e6b8720a03b33c019669fecc73d335b6",
    "median(kind=upper)":
        "2111860703ad0a398d41087b89b2e79a918c4a48d9d3ea48068c9b2d78c56c9b",
    "piecewise_h()":
        "7f11dac932b014b9382b4b8d1777cf46fd5298501e1f9dd6c8cc3f9ea4ce4ea2",
    "cube_over_square()":
        "0ef5dd468b31309b339346f82b49c36814b7693fdbc3837e93b6ca7c3f5e48fd",
}

# name -> (state length, whether it holds an e-state block); hamy's and
# biplanar's last block, and every other family's blocks, are plain sums,
# and the median's state is its multiset (length 0 when empty)
LAYOUT = {
    "power(p=1.0)": (1, False),
    "power(p=0.0)": (1, False),
    "power(p=-2.0)": (1, False),
    "quasiarithmetic(f=ln)": (1, False),
    "gini(p=2.0,q=1.0)": (2, False),
    "gini(p=3.0,q=3.0)": (2, False),
    "bajraktarevic(f=power:2,g=power:1)": (2, False),
    "hamy(r=2)": (3, True),
    "hamy(r=3)": (4, True),
    "sympoly(r=2)": (2, True),
    "sympoly(r=3)": (3, True),
    "biplanar(c=3,d=3,p=2.0,q=3.0)": (6, True),
    # two blocks of size 1, each e_1 of its encoding
    "biplanar(c=1,d=1,p=2.0,q=1.0)": (2, True),
    "median(kind=lower)": (0, False),
    "median(kind=upper)": (0, False),
    "piecewise_h()": (2, False),
    "cube_over_square()": (2, False),
}


def test_every_built_in_is_pinned():
    assert sorted(ids(built_ins())) == sorted(GOLDEN_SHA256) == sorted(LAYOUT)


@pytest.mark.parametrize("d", built_ins(), ids=ids(built_ins()))
def test_golden_state_bytes(d):
    one_by_one = reduce(ms.absorb, STREAM, ms.init(d))
    batched = ms.absorb_many(ms.init(d), STREAM)
    for state in (one_by_one, batched):
        digest = hashlib.sha256(ms.serialize_state(state)).hexdigest()
        assert digest == GOLDEN_SHA256[d.name]


@pytest.mark.parametrize("d", built_ins(), ids=ids(built_ins()))
def test_state_length(d):
    k, _ = LAYOUT[d.name]
    assert d.k == len(ms.init(d).reals) == k
    assert ms.init(d).reals == (0.0,) * k
    if d.ctype is not None:
        assert len(ms.absorb(ms.init(d), STREAM[0]).reals) == k


@pytest.mark.parametrize("d", built_ins(), ids=ids(built_ins()))
def test_version_1_blob_parses_unless_an_e_state_block(d):
    state = ms.absorb_many(ms.init(d), STREAM)
    blob = json.loads(ms.serialize_state(state))
    blob["version"] = 1
    _, esym = LAYOUT[d.name]
    if esym:
        with pytest.raises(ParseError, match="^version 1 "):
            ms.parse_state(json.dumps(blob))
    else:
        parsed = ms.parse_state(json.dumps(blob))
        assert (parsed.family_id, parsed.reals, parsed.count) == (
            state.family_id, state.reals, state.count)

"""Distributed aggregation: shard a stream, merge the partial states.

Because the accumulator lives in a commutative semigroup, partial states
from different workers can be added in any order and any tree shape, and
the result matches a single sequential pass.  States serialize to small
JSON blobs with hex floats, so the round trip is bit-exact.
"""

import random

import meanstream as ms

rng = random.Random(42)
stream = [rng.uniform(0.5, 20.0) for _ in range(12_000)]
descriptor = ms.gini(2.0, 1.0)

single_pass = ms.evaluate_stream(descriptor, stream)
print(f"single-pass {descriptor.name} over {len(stream)} values: {single_pass!r}")

# Pretend four workers each saw one shard of the stream.
shards = []
size = len(stream) // 4
for worker in range(4):
    chunk = stream[worker * size:(worker + 1) * size]
    state = ms.init(descriptor)
    for x in chunk:
        state = state.absorb(x)
    blob = ms.serialize_state(state)
    print(f"  worker {worker}: {len(chunk)} values -> {len(blob)} byte state")
    shards.append(blob)

# The coordinator only ever sees the blobs.
states = [ms.parse_state(blob) for blob in shards]
merged = states[0].merge(states[1]).merge(states[2].merge(states[3]))
result = merged.finalize()
rel = abs(result - single_pass) / abs(single_pass)
print(f"merged result: {result!r}")
print(f"relative difference vs single pass: {rel:.2e}"
      "  (only float summation order differs)")

# Serialization is bit-exact: parse(serialize(s)) reproduces s.
blob = ms.serialize_state(merged)
assert ms.serialize_state(ms.parse_state(blob)) == blob
print("state blob round-trips bit-exactly")

# Merging states from different means is refused rather than silently wrong.
other = ms.init(ms.power_mean(1.0)).absorb(1.0)
try:
    merged.merge(other)
except ms.FamilyMismatch as e:
    print(f"mixing families raises FamilyMismatch: {e}")

"""Streaming evaluation of symmetric means in constant memory.

Every mean here is computed the same way: a step pushes each element into a
short real vector (for the additive families, it adds the element's
contribution), combine merges two such vectors, and a finalizer is applied
at the end of the stream.  The state never grows with the stream length,
so a million-element stream costs the same memory as a ten-element one.
"""

import numpy as np

import meanstream as ms

rng = np.random.default_rng(7)
stream = rng.lognormal(mean=1.0, sigma=0.6, size=100_000)

print(f"stream of {stream.size} lognormal samples")
print(f"  min={stream.min():.4f}  max={stream.max():.4f}\n")

descriptors = [
    ms.power_mean(1.0),                       # arithmetic
    ms.power_mean(0.0),                       # geometric
    ms.power_mean(-1.0),                      # harmonic
    ms.quasi_arithmetic("ln"),                # same as geometric
    ms.gini(2.0, 1.0),                        # ratio of power sums
    ms.bajraktarevic(ms.pair_power(2.0, 1.0)),  # same mean, different route
    ms.hamy(2),                               # pairwise geometric averages
    ms.sympoly(3),                            # elementary-symmetric root
]

for d in descriptors:
    value = ms.evaluate_stream(d, stream)
    state_size = d.k + (1 if d.has_counter else 0)
    print(f"  {d.name:<28} = {value:10.6f}   (state: {state_size} numbers)")

# The state really is just a handful of numbers.  Peek at one:
state = ms.init(ms.gini(2.0, 1.0))
for x in stream[:5]:
    state = state.absorb(x)
print(f"\ngini(2,1) state after 5 elements: reals={state.reals}")
print("finalize ->", state.finalize())

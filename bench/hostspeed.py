"""Host speed probe: a fixed pure-Python loop shaped like an absorb step.

On a shared 2-vCPU VM the same code was measured to run up to 1.7x slower
for stretches of a fraction of a second to tens of seconds (7.7 ms against
13.5 ms for one batch of streams).  No run is long enough to average that
away, so the harness times this loop interleaved with the work and divides
by its mean: a figure reads as on a host where one probe takes NOMINAL_S.
The loop uses no meanstream code, so no change to the program can move it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

NOMINAL_S = 5e-4

_EXPONENTS = (0.25, 0.5, 0.75, 1.0)
_VALUES = [random.Random(0).uniform(0.5, 20.0) for _ in range(150)]


@dataclass(frozen=True)
class _State:
    reals: tuple
    count: int


def _step(state: _State, x: float) -> _State:
    contribution = tuple(x ** e for e in _EXPONENTS)
    reals = tuple(a + b for a, b in zip(state.reals, contribution))
    if not all(math.isfinite(v) for v in reals):
        raise OverflowError(x)
    return _State(reals, state.count + 1)


class HostSpeed:
    """Mean probe time so far, as a factor of NOMINAL_S."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            state = _State((0.0,) * len(_EXPONENTS), 0)
            for x in _VALUES:
                state = _step(state, x)
            self.total_s += time.perf_counter() - start
            self.count += 1

    @property
    def factor(self) -> float:
        return self.total_s / self.count / NOMINAL_S

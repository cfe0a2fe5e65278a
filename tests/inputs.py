"""Seeded test inputs, drawn with ``random.Random`` as the package, the demos
and the benchmark draw theirs, and the built-in descriptors the tests share."""

import random

import meanstream as ms

SEED = 20260823


def random_vector(rng, n_min, n_max, lo=0.5, hi=20.0):
    """n_min..n_max values (a length drawn first), uniform in [lo, hi]."""
    return [rng.uniform(lo, hi) for _ in range(rng.randint(n_min, n_max))]


def seeded_vectors(count, n_max=12, lo=0.5, hi=20.0, seed=SEED):
    rng = random.Random(seed)
    return [random_vector(rng, 1, n_max, lo, hi) for _ in range(count)]


def all_families():
    return [ms.power_mean(1.0), ms.power_mean(0.0), ms.power_mean(-2.0),
            ms.quasi_arithmetic("ln"), ms.gini(2.0, 1.0), ms.gini(3.0, 3.0),
            ms.bajraktarevic(ms.pair_power(2.0, 1.0)), ms.hamy(2), ms.hamy(3),
            ms.sympoly(2), ms.sympoly(3), ms.biplanar(2.0, 3.0, 3, 3),
            ms.biplanar(2.0, 1.0, 1, 1), ms.median_mean("lower"),
            ms.median_mean("upper")]

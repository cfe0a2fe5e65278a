"""Generalized power-sum engine.

gamma_{p1,...,ps} is the sum of x_{i1}^{p1} * ... * x_{is}^{ps} over tuples
of pairwise-distinct indices.  It reduces, by the recursion

    gamma_{p0,p1,...,ps} = gamma_{p1,...,ps} * gamma_{p0}
                           - sum_i gamma_{p1,...,pi+p0,...,ps},

to single power sums gamma_q at the subset-sum closure of the exponents.
sigma_{s,p} = gamma_{p,...,p} / s! is the elementary symmetric polynomial in
the p-th powers.

Exponents may be ints, floats, or Fractions.  Subset sums computed here
must hit the table keys exactly, so float exponents are only safe when their
sums are exact (integers, dyadic rationals); pass Fractions otherwise.  The
families' finalizers index sigma's power sums by multiple of a base exponent
and call ``sigma_from_power(s, 1, table)`` with int keys 1..s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DomainError, MissingGamma

MAX_MULTI_EXPONENTS = 12


@dataclass(frozen=True)
class ExponentMultiset:
    """A sorted multiset of exponents; the canonical memoization key."""

    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(sorted(self.exponents)))
        if len(self.exponents) < 1:
            raise ValueError("at least one exponent required")

    def __len__(self):
        return len(self.exponents)


@dataclass(frozen=True)
class GammaTable:
    """Single power sums gamma_q keyed by exponent, plus the element count."""

    values: Mapping
    n: int

    def gamma(self, q):
        try:
            return self.values[q]
        except KeyError:
            raise MissingGamma(q) from None

    def __contains__(self, q):
        return q in self.values


def power_sums(xs: Sequence[float], exponents: Sequence) -> GammaTable:
    """gamma_q = sum(x**q) for each requested exponent q."""
    xs = list(xs)
    if not xs:
        raise DomainError("empty input vector")
    if any(x <= 0 for x in xs):
        raise DomainError("power sums require strictly positive entries")
    values = {}
    for q in exponents:
        fq = float(q)
        values[q] = float(len(xs)) if fq == 0.0 else sum(x ** fq for x in xs)
    return GammaTable(values, len(xs))


def subset_sum_closure(exponents: Sequence) -> set:
    """All nonempty subset sums of the exponent multiset."""
    exponents = tuple(exponents)
    if len(exponents) > MAX_MULTI_EXPONENTS:
        raise ValueError(f"at most {MAX_MULTI_EXPONENTS} exponents supported")
    closure = set()
    for e in exponents:
        closure |= {e} | {c + e for c in closure}
    return closure


def gamma_multi(ms: ExponentMultiset, table: GammaTable) -> float:
    """Distinct-index multi-power sum from single power sums.

    Uses exact integer arithmetic when every table value is an integer
    representable in binary64.  The memo cache is per-call, keyed on the
    sorted exponent tuple.
    """
    for q in subset_sum_closure(ms.exponents):
        if q not in table:
            raise MissingGamma(q)

    exact = all(
        isinstance(v, int) or (isinstance(v, float) and v.is_integer() and abs(v) <= 2.0 ** 53)
        for v in table.values.values()
    )

    def lookup(q):
        v = table.gamma(q)
        return int(v) if exact else v

    memo = {}

    def rec(key: tuple):
        if key in memo:
            return memo[key]
        if len(key) == 1:
            value = lookup(key[0])
        else:
            rest, p0 = key[:-1], key[-1]
            value = rec(rest) * lookup(p0)
            for i in range(len(rest)):
                bumped = tuple(sorted(rest[:i] + (rest[i] + p0,) + rest[i + 1:]))
                value -= rec(bumped)
        memo[key] = value
        return value

    result = rec(ms.exponents)
    return float(result) if exact else result


def sigma_from_power(s: int, p, table: GammaTable) -> float:
    """sigma_{s,p} = gamma_{p,...,p} / s!; zero when fewer than s elements."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if table.n < s:
        return 0.0
    return gamma_multi(ExponentMultiset((p,) * s), table) / math.factorial(s)

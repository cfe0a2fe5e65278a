"""Empirical state-complexity measurement via Myhill-type equivalence.

Two input words are equivalent when the mean agrees on them and on every
probe-extended word, within tolerance.  Symmetry lets us enumerate multisets
instead of words.  Tolerance-based equivalence is not transitive, so classes
are the connected components of the "within tolerance" graph (union-find);
counts are therefore lower bounds on the exact class counts.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Optional, Sequence

from .core import MeanDescriptor, Record, init, absorb
from .errors import BudgetExceeded, InsufficientData
from .verify import _subject

EVALUATION_BUDGET = 10 ** 7
DEFAULT_ATOL = 1e-12
DEFAULT_RTOL = 1e-9


class ClassProfile(Record):
    """Per-length Myhill class counts for one mean over a finite alphabet;
    ``counts[i]`` is the class count at word length i + 1."""

    __slots__ = _fields = ("subject", "alphabet", "max_len", "probes",
                           "counts", "value_atol", "value_rtol")

    def __init__(self, subject: str, alphabet: list, max_len: int,
                 probes: list, counts: list, value_atol: float,
                 value_rtol: float):
        super().__init__(subject, alphabet, max_len, probes, counts,
                         value_atol, value_rtol)


def default_probes(alphabet: Sequence[float], max_probe_len: int = 2,
                   two_sided: bool = True) -> list:
    """Probe extensions over the alphabet.

    The classical equivalence extends a word on both sides (p w q).  For a
    symmetric mean a prefix/suffix pair collapses, by symmetry, to a single
    suffix multiset of at most twice the per-side probe length; that is the
    default.  ``two_sided=False`` restricts to suffix-only probes of length
    up to ``max_probe_len``.  A probe count over EVALUATION_BUDGET raises
    BudgetExceeded before any probe is built.
    """
    if max_probe_len < 0:
        raise ValueError(f"max_probe_len must be non-negative, got "
                         f"{max_probe_len}")
    total = 2 * max_probe_len if two_sided else max_probe_len
    # words of length 0..total over n letters, less the empty word
    count = comb(total + len(alphabet), len(alphabet)) - 1
    if count > EVALUATION_BUDGET:
        raise BudgetExceeded(f"{count} probes would exceed "
                             f"{EVALUATION_BUDGET} evaluations")
    probes = []
    for length in range(1, total + 1):
        probes.extend(list(c) for c in
                      combinations_with_replacement(alphabet, length))
    return probes


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri

    def count(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


def enumerate_classes(m, alphabet: Sequence[float], max_len: int,
                      probes: Optional[list] = None,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> ClassProfile:
    """Per-length class counts of the probe-restricted Myhill relation.
    Raises BudgetExceeded, before the first evaluation, when they would take
    more than EVALUATION_BUDGET evaluations."""
    evaluate, domain, name = _subject(m)
    alphabet = sorted(set(float(a) for a in alphabet))
    if not 1 <= len(alphabet) <= 5:
        raise ValueError("alphabet size must be between 1 and 5")
    if max_len > 10:
        raise ValueError("max_len must be at most 10")
    for a in alphabet:
        if not domain.contains(a):
            raise ValueError(f"alphabet letter {a} outside the domain")
    if probes is None:
        probes = default_probes(alphabet)
    probes = [list(p) for p in probes]

    n = len(alphabet)  # C(L + n - 1, n - 1) words of each length L
    evaluations = sum(comb(length + n - 1, n - 1)
                      for length in range(1, max_len + 1)) * (1 + len(probes))
    if evaluations > EVALUATION_BUDGET:
        raise BudgetExceeded(f"would exceed {EVALUATION_BUDGET} evaluations")
    counts = []
    for length in range(1, max_len + 1):
        words = [list(w) for w in
                 combinations_with_replacement(alphabet, length)]
        signatures = [
            [evaluate(w)] + [evaluate(w + probe) for probe in probes]
            for w in words
        ]
        uf = _UnionFind(len(words))
        for i, j in combinations(range(len(words)), 2):
            if _signatures_close(signatures[i], signatures[j], atol, rtol):
                uf.union(i, j)
        counts.append(uf.count())
    return ClassProfile(name, alphabet, max_len, probes, counts, atol, rtol)


def _signatures_close(a, b, atol, rtol) -> bool:
    return all(abs(u - v) <= atol + rtol * max(abs(u), abs(v))
               for u, v in zip(a, b))


def state_counts(descriptor: MeanDescriptor, alphabet: Sequence[float],
                 max_len: int, atol: float = DEFAULT_ATOL,
                 rtol: float = DEFAULT_RTOL) -> list:
    """Distinct reachable state vectors per length; bounds the class count."""
    counts = []
    for length in range(1, max_len + 1):
        states = []
        for word in combinations_with_replacement(alphabet, length):
            s = reduce(absorb, word, init(descriptor))
            states.append(tuple(s.reals) + (s.count,))
        distinct = []
        for s in states:
            if not any(_signatures_close(s, t, atol, rtol) for t in distinct):
                distinct.append(s)
        counts.append(len(distinct))
    return counts


def growth_report(profile: ClassProfile, ratio_threshold: float = 1.2) -> dict:
    """Heuristic bounded-linear vs superlinear classification.

    Fits a line to the first half of the counts and extrapolates; a count at
    max_len exceeding the prediction by the threshold ratio is labeled
    superlinear.
    """
    import numpy as np

    if profile.max_len < 4:
        raise InsufficientData("growth classification needs max_len >= 4")
    counts = profile.counts
    # finite probe sets saturate the relation beyond some length; classify
    # on the pre-saturation segment (up to the last strict increase)
    end = 1
    for i in range(1, len(counts)):
        if counts[i] > counts[i - 1]:
            end = i + 1
    segment = counts[:end]
    if len(segment) < 4:
        return {
            "subject": profile.subject,
            "classification": "bounded-linear",
            "fit": f"heuristic: counts saturate after length {len(segment)}",
            "counts": counts,
        }
    half = max(2, len(segment) // 2)
    xs = np.arange(1, half + 1, dtype=float)
    ys = np.asarray(segment[:half], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * len(segment) + intercept
    actual = segment[-1]
    superlinear = predicted > 0 and actual > ratio_threshold * predicted
    return {
        "subject": profile.subject,
        "classification": "superlinear" if superlinear else "bounded-linear",
        "fit": (f"heuristic: linear fit on lengths 1..{half} "
                f"({slope:.3g}*n{intercept:+.3g}) predicts {predicted:.1f} "
                f"at length {len(segment)}, observed {actual}"),
        "counts": counts,
    }

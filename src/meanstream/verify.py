"""Property-based verification harness.

Every check is a black-box test of a mean: it only calls the mean on input
vectors and compares values at stated tolerances.  Means under test are
either MeanDescriptors (evaluated through the streaming path) or arbitrary
callables wrapped in FunctionMean (used for the harness self-tests);
``check_merge_commutes`` and ``oracle_direct``, which need a mean's states
or its family, take a MeanDescriptor only.
Sampling is seeded, so reports are reproducible: a ``seed`` is None (for
DEFAULT_SEED), an int, or a ``random.Random`` to draw from.
"""

import json
import math
import random
from itertools import combinations
from typing import Callable, Optional, Sequence

from .core import (DomainInterval, MeanDescriptor, Record, absorb_many,
                   evaluate_stream, init, merge)
from .errors import DomainError, EmptyStateError, InvalidDescriptor, TooLarge
from . import families

DEFAULT_SEED = 20260823
BRUTE_FORCE_MAX_N = 12


class PropertyReport(Record):
    """Outcome of one axiom check."""

    __slots__ = _fields = ("property", "subject", "holds", "tolerance",
                           "witness", "lhs", "rhs", "detail")

    def __init__(self, property: str, subject: str, holds: bool,
                 tolerance: float, witness: Optional[list] = None,
                 lhs: Optional[float] = None, rhs: Optional[float] = None,
                 detail: str = ""):
        super().__init__(property, subject, holds, tolerance, witness, lhs,
                         rhs, detail)

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


class FunctionMean(Record):
    """Adapter exposing an arbitrary tuple->real function as a mean."""

    __slots__ = _fields = ("fn", "domain", "name")

    def __init__(self, fn: Callable[[Sequence[float]], float],
                 domain: DomainInterval, name: str):
        super().__init__(fn, domain, name)

    def evaluate(self, xs: Sequence[float]) -> float:
        return self.fn(list(xs))


def _subject(m):
    """(evaluate, domain, name) for a descriptor or a FunctionMean."""
    if isinstance(m, MeanDescriptor):
        return (lambda xs: evaluate_stream(m, xs)), m.domain, m.name
    return m.evaluate, m.domain, m.name


def _descriptor_only(m, check: str) -> None:
    """Refuse anything but a MeanDescriptor for check, which needs its
    states or its family, not only its values."""
    if not isinstance(m, MeanDescriptor):
        raise InvalidDescriptor(f"{check} takes a MeanDescriptor, not "
                                f"{type(m).__name__}")


def _rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(DEFAULT_SEED if seed is None else seed)


def _sample_range(domain: DomainInterval, interval) -> tuple:
    lo = max(interval[0], domain.lo)
    hi = min(interval[1], domain.hi)
    if not lo < hi:
        raise ValueError("sampling interval does not meet the domain")
    return lo, hi


def sample_vector(rng, domain: DomainInterval, n_max: int,
                  interval=(0.5, 20.0), n_min: int = 1) -> list:
    lo, hi = _sample_range(domain, interval)
    n = rng.randint(n_min, n_max)
    return [rng.uniform(lo, hi) for _ in range(n)]


def _rel_close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# axiom checks

def check_mean_property(m, trials: int = 500, n_max: int = 16,
                        interval=(0.5, 20.0), slack: float = 1e-9,
                        seed=None) -> PropertyReport:
    evaluate, domain, name = _subject(m)
    rng = _rng(seed)
    for _ in range(trials):
        xs = sample_vector(rng, domain, n_max, interval)
        value = evaluate(xs)
        if not (min(xs) - slack <= value <= max(xs) + slack):
            return PropertyReport("mean_property", name, False, slack,
                                  witness=xs, lhs=value, rhs=min(xs),
                                  detail="value escapes [min, max]")
    return PropertyReport("mean_property", name, True, slack)


def check_reflexivity(m, grid=None, reps=range(1, 9),
                      rtol: float = 1e-10, interval=(0.5, 20.0)) -> PropertyReport:
    evaluate, domain, name = _subject(m)
    if grid is None:
        lo, hi = _sample_range(domain, interval)
        grid = [lo + i * (hi - lo) / 15 for i in range(16)]
    for v in grid:
        for k in reps:
            value = evaluate([v] * k)
            if not _rel_close(value, v, rtol):
                return PropertyReport("reflexivity", name, False, rtol,
                                      witness=[v] * k, lhs=value, rhs=v)
    return PropertyReport("reflexivity", name, True, rtol)


def check_symmetry(m, trials: int = 100, n_max: int = 12,
                   rtol: float = 1e-12, interval=(0.5, 20.0),
                   seed=None) -> PropertyReport:
    evaluate, domain, name = _subject(m)
    rng = _rng(seed)
    for _ in range(trials):
        xs = sample_vector(rng, domain, n_max, interval, n_min=2)
        base = evaluate(xs)
        perm = rng.sample(xs, len(xs))
        value = evaluate(perm)
        if not _rel_close(value, base, rtol):
            return PropertyReport("symmetry", name, False, rtol,
                                  witness=perm, lhs=value, rhs=base)
    return PropertyReport("symmetry", name, True, rtol)


def check_repetition_invariance(m, trials: int = 100, n_max: int = 8,
                                multiplicities=(2, 3), rtol: float = 1e-9,
                                interval=(0.5, 20.0), seed=None,
                                extra_vectors=None) -> PropertyReport:
    evaluate, domain, name = _subject(m)
    rng = _rng(seed)
    vectors = [list(v) for v in (extra_vectors or [])]
    vectors += [sample_vector(rng, domain, n_max, interval) for _ in range(trials)]
    for xs in vectors:
        base = evaluate(xs)
        for mult in multiplicities:
            repeated = [x for x in xs for _ in range(mult)]
            value = evaluate(repeated)
            if not _rel_close(value, base, rtol):
                return PropertyReport(
                    "repetition_invariance", name, False, rtol,
                    witness=xs, lhs=base, rhs=value,
                    detail=f"multiplicity {mult}")
    return PropertyReport("repetition_invariance", name, True, rtol)


def detect_negligible_element(m, candidates, trials: int = 100,
                              n_max: int = 6, interval=(0.5, 20.0),
                              rtol: float = 1e-9, atol: float = 1e-12,
                              seed=None) -> PropertyReport:
    """Reports the unique candidate whose presence never changes the mean."""
    evaluate, domain, name = _subject(m)
    rng = _rng(seed)
    found = []
    for e in candidates:
        if not domain.contains(e):
            continue
        vectors = [sample_vector(rng, domain, n_max, interval) for _ in range(trials)]
        if all(_rel_close(evaluate([e] + xs), evaluate(xs), rtol, atol)
               for xs in vectors):
            found.append(e)
    unique = found[0] if len(found) == 1 else None
    return PropertyReport(
        "negligible_element", name, unique is not None, rtol,
        detail=f"negligible={unique}" if unique is not None else "none found")


def check_homogeneity(m, trials: int = 100, n_max: int = 8,
                      lambdas=(0.5, 2.0, 10.0), rtol: float = 1e-9,
                      interval=(0.5, 20.0), seed=None) -> PropertyReport:
    evaluate, domain, name = _subject(m)
    rng = _rng(seed)
    for _ in range(trials):
        xs = sample_vector(rng, domain, n_max, interval)
        base = evaluate(xs)
        for lam in lambdas:
            scaled = [lam * x for x in xs]
            if not all(domain.contains(v) for v in scaled):
                continue
            value = evaluate(scaled)
            if not _rel_close(value, lam * base, rtol):
                return PropertyReport("homogeneity", name, False, rtol,
                                      witness=xs, lhs=value, rhs=lam * base,
                                      detail=f"lambda {lam}")
    return PropertyReport("homogeneity", name, True, rtol)


def check_concatenation_betweenness(m, trials: int = 200, n_max: int = 4,
                                    slack: float = 1e-12,
                                    interval=(0.5, 20.0), seed=None,
                                    extra_pairs=None) -> PropertyReport:
    """M(x) < M(y) must imply M(x) < M(x, y) < M(y); ties are skipped."""
    evaluate, domain, name = _subject(m)
    rng = _rng(seed)
    pairs = [(list(a), list(b)) for a, b in (extra_pairs or [])]
    pairs += [(sample_vector(rng, domain, n_max, interval),
               sample_vector(rng, domain, n_max, interval))
              for _ in range(trials)]
    tie_tol = 1e-9
    for xs, ys in pairs:
        mx, my = evaluate(xs), evaluate(ys)
        if mx > my:
            xs, ys, mx, my = ys, xs, my, mx
        if my - mx <= tie_tol * max(1.0, abs(mx), abs(my)):
            continue
        mid = evaluate(xs + ys)
        if not (mx + slack < mid < my - slack):
            return PropertyReport("concatenation_betweenness", name, False,
                                  slack, witness=[xs, ys], lhs=mid, rhs=mx,
                                  detail=f"M(x)={mx} M(x,y)={mid} M(y)={my}")
    return PropertyReport("concatenation_betweenness", name, True, slack)


def check_g23_inequality(trials: int = 1000, n_max: int = 32,
                         interval=(-10.0, 10.0), slack: float = 1e-12,
                         seed=None) -> PropertyReport:
    """|sum x^3| <= (sum x^2)^(3/2) on arbitrary real vectors."""
    rng = _rng(seed)
    for _ in range(trials):
        xs = sample_vector(rng, DomainInterval.reals(), n_max, interval)
        lhs = abs(math.fsum(x ** 3 for x in xs))
        rhs = math.fsum(x ** 2 for x in xs) ** 1.5
        if lhs > rhs + slack * max(1.0, rhs):
            return PropertyReport("g23_inequality", "cube_vs_square_sums",
                                  False, slack, witness=xs, lhs=lhs, rhs=rhs)
    return PropertyReport("g23_inequality", "cube_vs_square_sums", True, slack)


def check_merge_commutes(m: MeanDescriptor, trials: int = 100,
                         n_max: int = 16, interval=(0.5, 20.0),
                         seed=None) -> PropertyReport:
    """merge(a, b) and merge(b, a) of the states of random vectors hold the
    same count and reals, by ``float.hex`` (-0.0 is not 0.0), not by
    ``serialize_state`` bytes, so a user-built descriptor is checked too."""
    _descriptor_only(m, "check_merge_commutes")
    rng = _rng(seed)
    empty = init(m)
    for _ in range(trials):
        xs = sample_vector(rng, m.domain, n_max, interval)
        ys = sample_vector(rng, m.domain, n_max, interval)
        a, b = absorb_many(empty, xs), absorb_many(empty, ys)
        ab, ba = (([float(v).hex() for v in s.reals], s.count)
                  for s in (merge(a, b), merge(b, a)))
        if ab != ba:
            return PropertyReport(
                "merge_commutes", m.name, False, 0.0, witness=[xs, ys],
                detail=f"merge(a, b) gave {ab}, merge(b, a) {ba}")
    return PropertyReport("merge_commutes", m.name, True, 0.0)


# ---------------------------------------------------------------------------
# independent non-streaming oracle

def oracle_direct(m: MeanDescriptor, xs: Sequence[float]) -> float:
    """Reference value computed from the family's closed-form definition,
    with brute-force symmetric sums for hamy/sympoly/biplanar (n <= 12).
    Refuses as the streaming path does: EmptyStateError for no values, and
    DomainError, with absorb's text, at the first value outside the domain
    (NaN included)."""
    _descriptor_only(m, "oracle_direct")
    xs = [float(x) for x in xs]
    n = len(xs)
    if n == 0:
        raise EmptyStateError("oracle_direct of no values")
    for x in xs:
        if not m.domain.contains(x):
            raise DomainError(f"{x} outside domain of {m.name}")
    fam = m.family
    p_ = m.params

    if fam == "power":
        return _power_direct(p_["p"], xs)
    if fam == "quasiarithmetic":
        gen = families.generator_by_name(p_["f"])
        return gen.inverse(sum(gen.forward(x) for x in xs) / n)
    if fam == "gini":
        return _gini_direct(p_["p"], p_["q"], xs)
    if fam == "bajraktarevic":
        pair = families.pair_from_names(p_["f"], p_["g"])
        return pair.ratio_inverse(sum(pair.f(x) for x in xs)
                                  / sum(pair.g(x) for x in xs))
    if fam == "median":
        ordered = sorted(xs)
        idx = (n - 1) // 2 if p_["kind"] == "lower" else n // 2
        return ordered[idx]
    if fam == "piecewise_h":
        if n == 1:
            return xs[0]
        if n == 2:
            return sum(xs) / 2.0
        return sum(x * x for x in xs) / sum(xs)
    if fam == "cube_over_square":
        v = sum(x * x for x in xs)
        return 0.0 if v == 0.0 else sum(x ** 3 for x in xs) / v

    # brute-force families
    if n > BRUTE_FORCE_MAX_N:
        raise TooLarge(f"brute-force oracle limited to n <= {BRUTE_FORCE_MAX_N}")
    if fam == "hamy":
        r = p_["r"]
        if n < r:
            return sum(xs) / n
        total = sum(math.prod(c) ** (1.0 / r) for c in combinations(xs, r))
        return total / math.comb(n, r)
    if fam == "sympoly":
        r = p_["r"]
        if n < r:
            return sum(xs) / n
        total = sum(math.prod(c) for c in combinations(xs, r))
        return (total / math.comb(n, r)) ** (1.0 / r)
    if fam == "biplanar":
        p, q, c, d = p_["p"], p_["q"], p_["c"], p_["d"]
        if n < max(c, d):
            return _power_direct(p, xs)
        sig_cp = sum(math.prod(v ** p for v in t) for t in combinations(xs, c))
        sig_dq = sum(math.prod(v ** q for v in t) for t in combinations(xs, d))
        value = (math.comb(n, d) * sig_cp) / (math.comb(n, c) * sig_dq)
        return value ** (1.0 / (c * p - d * q))
    raise InvalidDescriptor(f"no oracle for family {fam!r}")


def _power_direct(p: float, xs) -> float:
    n = len(xs)
    if p == 0:
        return math.exp(sum(math.log(x) for x in xs) / n)
    return (sum(x ** p for x in xs) / n) ** (1.0 / p)


def _gini_direct(p: float, q: float, xs) -> float:
    if p == q:
        return math.exp(sum(x ** p * math.log(x) for x in xs)
                        / sum(x ** p for x in xs))
    return (sum(x ** p for x in xs) / sum(x ** q for x in xs)) ** (1.0 / (p - q))


# ---------------------------------------------------------------------------
# standard suite

def standard_descriptors() -> list:
    return [
        families.power_mean(1.0),
        families.power_mean(0.0),
        families.power_mean(2.0),
        families.quasi_arithmetic("ln"),
        families.gini(2.0, 1.0),
        families.gini(3.0, 3.0),
        families.bajraktarevic(families.pair_power(2.0, 1.0)),
        families.hamy(2),
        families.sympoly(2),
        families.biplanar(2.0, 3.0, 3, 3),
        families.median_mean("lower"),
        families.piecewise_counterexample(),
        families.cube_over_square(),
    ]


def run_suite(seed=None, trials: int = 200) -> list:
    """Axiom checks over the standard family roster; returns reports."""
    rng = _rng(seed)
    reports = []
    for m in standard_descriptors():
        reports.append(check_mean_property(m, trials=trials, seed=rng))
        reports.append(check_reflexivity(m))
        reports.append(check_symmetry(m, trials=min(trials, 100), seed=rng))
        reports.append(check_repetition_invariance(
            m, trials=min(trials, 50), seed=rng))
    reports.append(check_g23_inequality(trials=1000, seed=rng))
    for m in standard_descriptors():  # last: earlier reports keep their draws
        reports.append(check_merge_commutes(m, trials=min(trials, 100),
                                            seed=rng))
    return reports

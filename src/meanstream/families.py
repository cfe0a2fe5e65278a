"""Concrete generating pairs for each mean family.

Each constructor returns a MeanDescriptor: a state layout (the per-element
encoder, and a numpy batch encoder where the encoder needs no user
callable) plus a finalization formula.  Parameters are validated at build
time; branch selection (p = 0, p = q) uses exact parameter comparison, never
runtime tolerance.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .core import ComplexityType, DomainInterval, MeanDescriptor
from .errors import (
    DegenerateExponents,
    FinalizeOutsideBranches,
    GeneratorInvalid,
    InvalidDescriptor,
    NumericalFailure,
    PairInvalid,
)
# sigma_from_power is no longer called here; the name stays for callers
# that look it up through this module (bench/job.py traces it)
from .symfun import MAX_MULTI_EXPONENTS, sigma_from_power  # noqa: F401

GRID_POINTS = 64
ROUNDTRIP_RTOL = 1e-10
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


# ---------------------------------------------------------------------------
# generator functions (the f of quasi-arithmetic means)

@dataclass(frozen=True)
class GeneratorFunction:
    """A strictly monotone continuous bijection with explicit inverse."""

    name: str
    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    domain: DomainInterval
    increasing: bool

    def validate(self) -> None:
        grid = self.domain.sample_grid(GRID_POINTS)
        prev = None
        for x in grid:
            y = self.forward(x)
            if not math.isfinite(y):
                raise GeneratorInvalid(f"{self.name}: non-finite value at {x}")
            back = self.inverse(y)
            if abs(back - x) > ROUNDTRIP_RTOL * max(1.0, abs(x)):
                raise GeneratorInvalid(
                    f"{self.name}: inverse round-trip fails at {x} (got {back})")
            if prev is not None:
                if self.increasing and y <= prev:
                    raise GeneratorInvalid(f"{self.name}: not strictly increasing")
                if not self.increasing and y >= prev:
                    raise GeneratorInvalid(f"{self.name}: not strictly decreasing")
            prev = y


def _affine(a: float, b: float) -> GeneratorFunction:
    if a == 0:
        raise GeneratorInvalid("affine generator needs a != 0")
    return GeneratorFunction(
        f"affine:{a:g},{b:g}",
        lambda x: a * x + b,
        lambda y: (y - b) / a,
        DomainInterval.reals(),
        a > 0,
    )


def _power(p: float) -> GeneratorFunction:
    if p == 0:
        raise GeneratorInvalid("power generator needs p != 0")
    return GeneratorFunction(
        f"power:{p:g}",
        lambda x: x ** p,
        lambda y: y ** (1.0 / p),
        DomainInterval.positive(),
        p > 0,
    )


def generator_by_name(name: str) -> GeneratorFunction:
    """Registry lookup: identity, ln, exp, power:<p>, affine:<a>,<b>."""
    if name == "identity":
        return GeneratorFunction("identity", lambda x: x, lambda y: y,
                                 DomainInterval.reals(), True)
    if name == "ln":
        return GeneratorFunction("ln", math.log, math.exp,
                                 DomainInterval.positive(), True)
    if name == "exp":
        return GeneratorFunction("exp", math.exp, math.log,
                                 DomainInterval.reals(), True)
    if name.startswith("power:"):
        try:
            return _power(float(name.split(":", 1)[1]))
        except ValueError:
            raise GeneratorInvalid(f"bad power generator {name!r}") from None
    if name.startswith("affine:"):
        try:
            a, b = (float(t) for t in name.split(":", 1)[1].split(","))
        except ValueError:
            raise GeneratorInvalid(f"bad affine generator {name!r}") from None
        return _affine(a, b)
    raise GeneratorInvalid(f"unknown generator {name!r}")


# ---------------------------------------------------------------------------
# Bajraktarevic pairs

def _bisect_inverse(h: Callable[[float], float], domain: DomainInterval,
                    increasing: bool) -> Callable[[float], float]:
    """Bracketed bisection inverse of a strictly monotone h on the domain."""

    def clip(x: float) -> float:
        lo, hi = domain.lo, domain.hi
        if x <= lo:
            x = lo if domain.lo_closed else lo + max(1e-12, abs(lo) * 1e-12)
        if x >= hi:
            x = hi if domain.hi_closed else hi - max(1e-12, abs(hi) * 1e-12)
        return x

    def inverse(t: float) -> float:
        a = clip(domain.lo if math.isfinite(domain.lo) else -1.0)
        b = clip(domain.hi if math.isfinite(domain.hi) else 1.0)
        lo_is_below = increasing  # whether h(a) should sit below t

        def below(x):
            return h(x) < t if lo_is_below else h(x) > t

        for _ in range(BISECT_MAX_ITER):
            if below(a):
                break
            if math.isfinite(domain.lo):
                break  # already at the domain edge
            a = a * 2 if a < 0 else -1.0
        for _ in range(BISECT_MAX_ITER):
            if not below(b):
                break
            if math.isfinite(domain.hi):
                break
            b = b * 2 if b > 0 else 1.0
        for _ in range(BISECT_MAX_ITER):
            mid = 0.5 * (a + b)
            if b - a <= BISECT_TOL * max(1.0, abs(mid)):
                return mid
            if below(mid):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    return inverse


@dataclass(frozen=True)
class BajraktarevicPair:
    """(f, g) with g positive and f/g strictly monotone, plus (f/g)^-1."""

    f: Callable[[float], float]
    g: Callable[[float], float]
    ratio_inverse: Callable[[float], float]
    domain: DomainInterval
    f_name: str = "<custom>"
    g_name: str = "<custom>"

    def validate(self) -> None:
        grid = self.domain.sample_grid(GRID_POINTS)
        ratios = []
        for x in grid:
            gx = self.g(x)
            if not gx > 0:
                raise PairInvalid(f"g({x}) = {gx} is not positive")
            ratios.append(self.f(x) / gx)
        increasing = ratios[-1] > ratios[0]
        for a, b in zip(ratios, ratios[1:]):
            if (b <= a) if increasing else (b >= a):
                raise PairInvalid("f/g is not strictly monotone on the grid")
        for x, r in zip(grid, ratios):
            back = self.ratio_inverse(r)
            if abs(back - x) > ROUNDTRIP_RTOL * max(1.0, abs(x)):
                raise PairInvalid(
                    f"ratio_inverse round-trip fails at {x} (got {back})")


def pair_from_functions(f, g, domain: DomainInterval,
                        ratio_inverse=None,
                        f_name: str = "<custom>",
                        g_name: str = "<custom>") -> BajraktarevicPair:
    """Build a pair from raw callables; bisection inverse if none given."""
    if ratio_inverse is None:
        grid = domain.sample_grid(GRID_POINTS)
        increasing = f(grid[-1]) / g(grid[-1]) > f(grid[0]) / g(grid[0])
        ratio_inverse = _bisect_inverse(lambda x: f(x) / g(x), domain, increasing)
    pair = BajraktarevicPair(f, g, ratio_inverse, domain, f_name, g_name)
    pair.validate()
    return pair


def pair_power(pf: float, pg: float) -> BajraktarevicPair:
    """(x^pf, x^pg) on (0, inf); f/g = x^(pf-pg) has a closed-form inverse."""
    if pf == pg:
        raise PairInvalid("pair_power needs pf != pg")
    diff = pf - pg
    pair = BajraktarevicPair(
        lambda x: x ** pf,
        lambda x: x ** pg,
        lambda t: t ** (1.0 / diff),
        DomainInterval.positive(),
        f_name=f"power:{pf:g}",
        g_name=f"power:{pg:g}",
    )
    pair.validate()
    return pair


def _pair_component(name: str):
    """A pair component by name: registry generators plus the constant 'one'."""
    if name == "one":
        return (lambda x: 1.0), DomainInterval.reals()
    gen = generator_by_name(name)
    return gen.forward, gen.domain


def pair_from_names(f_name: str, g_name: str) -> BajraktarevicPair:
    f, f_dom = _pair_component(f_name)
    g, g_dom = _pair_component(g_name)
    lo = max(f_dom.lo, g_dom.lo)
    hi = min(f_dom.hi, g_dom.hi)
    domain = DomainInterval(lo, hi,
                            f_dom.lo_closed and g_dom.lo_closed,
                            f_dom.hi_closed and g_dom.hi_closed)
    ratio_inverse = None
    if (f_name.startswith("power:") or f_name == "identity") and \
            (g_name.startswith("power:") or g_name in ("identity", "one")):
        pf = 1.0 if f_name == "identity" else float(f_name.split(":")[1])
        pg = (1.0 if g_name == "identity"
              else 0.0 if g_name == "one"
              else float(g_name.split(":")[1]))
        if pf != pg:
            diff = pf - pg
            ratio_inverse = lambda t: t ** (1.0 / diff)
    elif f_name == "ln" and g_name == "one":
        ratio_inverse = math.exp
    return pair_from_functions(f, g, domain, ratio_inverse, f_name, g_name)


# ---------------------------------------------------------------------------
# the seven families

def _sums(*columns) -> tuple:
    """A batch's contribution to an additive state: each column's sum."""
    return tuple(float(c.sum()) for c in columns)


def _exponent(family: str, name: str, value) -> float:
    """value as a finite float; an infinite or NaN exponent has no mean."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidDescriptor(
            f"{family}: {name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise InvalidDescriptor(f"{family} needs a finite {name}, got {value}")
    return value


def _nonzero(s: float) -> float:
    """s, which on the positive domain (a power sum, or an e_j with j <= n)
    is 0.0 only if it underflowed."""
    if s == 0.0:
        raise NumericalFailure("a state sum underflowed to 0")
    return s


def power_mean(p: float) -> MeanDescriptor:
    p = _exponent("power", "p", p)
    if p == 0.0:
        encode = lambda x: (math.log(x),)
        encode_many = lambda xs: _sums(np.log(xs))
        fin = lambda reals, n: math.exp(reals[0] / n)
    else:
        encode = lambda x: (x ** p,)
        encode_many = lambda xs: _sums(xs ** p)
        fin = lambda reals, n: (_nonzero(reals[0]) / n) ** (1.0 / p)
    return MeanDescriptor(
        family="power", params={"p": p}, domain=DomainInterval.positive(),
        ctype=ComplexityType(1, True), encode=encode, finalizer=fin,
        encode_many=encode_many)


def quasi_arithmetic(f) -> MeanDescriptor:
    """f may be a GeneratorFunction or a registry name."""
    if isinstance(f, str):
        f = generator_by_name(f)
    f.validate()
    return MeanDescriptor(
        family="quasiarithmetic", params={"f": f.name}, domain=f.domain,
        ctype=ComplexityType(1, True), encode=lambda x: (f.forward(x),),
        finalizer=lambda reals, n: f.inverse(reals[0] / n))


def gini(p: float, q: float) -> MeanDescriptor:
    p, q = _exponent("gini", "p", p), _exponent("gini", "q", q)
    if p == q:
        encode = lambda x: (x ** p * math.log(x), x ** p)
        encode_many = lambda xs: _sums(xs ** p * np.log(xs), xs ** p)
        # reals[0] sums x^p ln x, which may be 0
        fin = lambda reals, n: math.exp(reals[0] / _nonzero(reals[1]))
    else:
        inv = 1.0 / (p - q)
        encode = lambda x: (x ** p, x ** q)
        encode_many = lambda xs: _sums(xs ** p, xs ** q)
        fin = lambda reals, n: (_nonzero(reals[0]) / _nonzero(reals[1])) ** inv
    return MeanDescriptor(
        family="gini", params={"p": p, "q": q}, domain=DomainInterval.positive(),
        ctype=ComplexityType(2, False), encode=encode, finalizer=fin,
        encode_many=encode_many)


def bajraktarevic(pair: BajraktarevicPair) -> MeanDescriptor:
    pair.validate()
    return MeanDescriptor(
        family="bajraktarevic",
        params={"f": pair.f_name, "g": pair.g_name},
        domain=pair.domain, ctype=ComplexityType(2, False),
        encode=lambda x: (pair.f(x), pair.g(x)),
        finalizer=lambda reals, n: pair.ratio_inverse(reals[0] / reals[1]))


def _esym_combine(sizes: tuple, a: tuple, b: tuple) -> tuple:
    """The elementary-symmetric families' combine.

    A state holds, for each block size m in ``sizes``, e_1..e_m of one
    column of encoded values (e_0 = 1 is implicit, so zeros are the
    identity), then plain sums.  Two states multiply their generating
    polynomials prod(1 + y t), truncated at t^m.  A shorter ``b`` is one
    element: a y per block, then its sums; it takes the O(m) recurrence
    e_j += y e_{j-1}.  Entries may be floats or numpy columns.
    """
    out, i, one = [], 0, len(b) < len(a)
    for block, m in enumerate(sizes):
        ea = a[i:i + m]
        if one:  # a plain loop: this is every absorb's cost
            y, prev = b[block], 1.0
            for e in ea:
                out.append(e + y * prev)
                prev = e
        else:
            eb = b[i:i + m]
            for j in range(m):
                v = ea[j] + eb[j]
                for h in range(j):
                    v = v + ea[h] * eb[j - 1 - h]
                out.append(v)
        i += m
    out += map(operator.add, a[i:], b[len(sizes):] if one else b[i:])
    return tuple(out)


def _esym_mean(family: str, params: dict, ctype: ComplexityType,
               sizes: tuple, sums: int, encode, encode_columns, fin,
               **extra) -> MeanDescriptor:
    """A descriptor on the e-state of ``_esym_combine``.

    ``encode`` gives one element's y per block, then its ``sums`` summands;
    ``encode_columns`` does the same for a numpy batch, which is folded by a
    pairwise tree of the same combine.
    """
    combine, slots = partial(_esym_combine, sizes), sum(sizes) + sums

    def encode_many(xs) -> tuple:
        # each element's state: the identity combined with its compact form
        cols = combine((np.zeros_like(xs),) * slots, tuple(encode_columns(xs)))
        while len(cols[0]) > 1:
            if len(cols[0]) % 2:  # pad with the identity
                cols = [np.append(c, 0.0) for c in cols]
            cols = combine(tuple(c[0::2] for c in cols),
                           tuple(c[1::2] for c in cols))
        return tuple(float(c.sum()) for c in cols)  # 0 or 1 entries left

    return MeanDescriptor(
        family=family, params=params, domain=DomainInterval.positive(),
        ctype=ctype, encode=encode, finalizer=fin, combine=combine,
        encode_many=encode_many, slots=slots, **extra)


def hamy(r: int) -> MeanDescriptor:
    """Mean of r-th roots of r-element products; arithmetic mean for n < r.

    State holds e_1..e_r of the x^(1/r), then the plain sum of x for the
    small-n fallback.
    """
    if not isinstance(r, int) or not 1 <= r <= MAX_MULTI_EXPONENTS:
        raise InvalidDescriptor(
            f"hamy needs an integer r in 1..{MAX_MULTI_EXPONENTS}")
    inv_r = 1.0 / r
    fin = lambda reals, n: (reals[-1] / n if n < r else
                            _nonzero(reals[r - 1]) / math.comb(n, r))
    return _esym_mean(
        "hamy", {"r": r}, ComplexityType(r, True), (r,), 1,
        lambda x: (x ** inv_r, x), lambda xs: [xs ** inv_r, xs], fin,
        ctype_is_upper_bound=True)


def sympoly(r: int) -> MeanDescriptor:
    """r-th root of the normalized elementary symmetric polynomial.

    State holds e_1..e_r of the x; e_1 is the small-n fallback's sum.
    """
    if not isinstance(r, int) or not 1 <= r <= MAX_MULTI_EXPONENTS:
        raise InvalidDescriptor(
            f"sympoly needs an integer r in 1..{MAX_MULTI_EXPONENTS}")
    inv_r = 1.0 / r
    fin = lambda reals, n: (reals[0] / n if n < r else
                            (_nonzero(reals[r - 1]) / math.comb(n, r)) ** inv_r)
    return _esym_mean(
        "sympoly", {"r": r}, ComplexityType(r, True), (r,), 0,
        lambda x: (x,), lambda xs: [xs], fin, ctype_is_upper_bound=True)


@dataclass(frozen=True)
class BiplanarParams:
    p: float
    q: float
    c: int
    d: int

    def __post_init__(self):
        if not all(isinstance(v, int) and 1 <= v <= MAX_MULTI_EXPONENTS
                   for v in (self.c, self.d)):
            raise InvalidDescriptor(
                f"biplanar needs integers c, d in 1..{MAX_MULTI_EXPONENTS}")
        if self.c * Fraction(self.p) == self.d * Fraction(self.q):
            raise DegenerateExponents(f"c*p == d*q == {self.c * self.p}")

    @property
    def exponent_set(self) -> list:
        P, Q = Fraction(self.p), Fraction(self.q)
        exps = {j * P for j in range(1, self.c + 1)}
        exps |= {j * Q for j in range(1, self.d + 1)}
        return sorted(exps)

    @property
    def k(self) -> int:
        return len(self.exponent_set)


def biplanar(p: float, q: float, c: int, d: int) -> MeanDescriptor:
    """Ratio of scaled elementary symmetric polynomials in p-th and q-th
    powers, to the power 1/(cp-dq); the p-th power mean for n < max(c, d).

    State holds e_1..e_c of the x^p and e_1..e_d of the x^q, then, when
    p = 0, the sum of ln x for the fallback's geometric mean.  The type is
    the paper's: one real per nonzero exponent j*p, j*q, and the log sum.
    """
    params = BiplanarParams(_exponent("biplanar", "p", p),
                            _exponent("biplanar", "q", q), int(c), int(d))
    p, q, c, d = params.p, params.q, params.c, params.d
    ln = p == 0  # the fallback is then the geometric mean
    ctype = ComplexityType(sum(e != 0 for e in params.exponent_set) + ln, True)
    n_min = max(c, d)
    exponent = 1.0 / (c * p - d * q)
    encode = lambda x: (x ** p, x ** q, math.log(x)) if ln else (x ** p, x ** q)
    encode_columns = lambda xs: [xs ** p, xs ** q] + ([np.log(xs)] if ln else [])

    def fin(reals, n):
        if n < n_min:
            if ln:
                return math.exp(reals[-1] / n)
            return (_nonzero(reals[0]) / n) ** (1.0 / p)
        # E_c(x^p) / E_d(x^q), E_j = e_j / C(n, j)
        ratio = (reals[c - 1] / reals[c + d - 1]
                 * (math.comb(n, d) / math.comb(n, c)))
        if not 0.0 < ratio < math.inf:
            raise NumericalFailure(f"biplanar ratio {ratio} left the float range")
        return ratio ** exponent

    return _esym_mean(
        "biplanar", {"p": p, "q": q, "c": c, "d": d}, ctype, (c, d),
        int(ln), encode, encode_columns, fin, paper_k=params.k)


# ---------------------------------------------------------------------------
# counterexample means and the median contrast

def piecewise_counterexample() -> MeanDescriptor:
    """Type-T2 mean on [3, 4] that is not repetition invariant.

    The finalizer agrees with the identity on sums in [3, 4] (n = 1), halves
    sums in [6, 8] (n = 2), and switches to the square-sum ratio from 9 up
    (n >= 3); inputs in [3, 4] can never land between the branches.
    """
    domain = DomainInterval(3.0, 4.0, True, True)

    def fin(reals, n):
        sq, s = reals
        if 3.0 <= s <= 4.0:
            return s
        if 6.0 <= s <= 8.0:
            return s / 2.0
        if s >= 9.0:
            return sq / s
        raise FinalizeOutsideBranches(f"second component {s} in a branch gap")

    return MeanDescriptor(
        family="piecewise_h", params={}, domain=domain,
        ctype=ComplexityType(2, False),
        encode=lambda x: (x * x, x), finalizer=fin)


def cube_over_square() -> MeanDescriptor:
    """Repetition-invariant T2 mean on all reals with negligible element 0."""

    def fin(reals, n):
        u, v = reals
        return 0.0 if v == 0.0 else u / v

    return MeanDescriptor(
        family="cube_over_square", params={}, domain=DomainInterval.reals(),
        ctype=ComplexityType(2, False),
        encode=lambda x: (x ** 3, x * x), finalizer=fin)


def _sorted_merge(a: tuple, b: tuple) -> tuple:
    """The median's combine: multiset union of two sorted tuples."""
    if len(b) == 1:  # absorb: an O(n) insert beats re-sorting
        values = list(a)
        bisect.insort(values, b[0])
        return tuple(values)
    return tuple(sorted(a + b))


def median_mean(kind: str = "lower") -> MeanDescriptor:
    """Lower or upper median; the state is the full sorted multiset."""
    if kind not in ("lower", "upper"):
        raise InvalidDescriptor(f"median kind must be lower/upper, got {kind!r}")

    def fin(reals, n):
        idx = (n - 1) // 2 if kind == "lower" else n // 2
        return reals[idx]

    return MeanDescriptor(
        family="median", params={"kind": kind}, domain=DomainInterval.reals(),
        ctype=None, encode=lambda x: (x,), combine=_sorted_merge,
        encode_many=lambda xs: tuple(np.sort(xs).tolist()), finalizer=fin)


# ---------------------------------------------------------------------------

_PARAM_KINDS = {str: ((str,), "a string"), float: ((int, float), "a number"),
                int: ((int,), "an integer")}


def _param(family: str, params: dict, key: str, kind: type):
    """params[key], checked to be a kind: str, float (any number) or int."""
    value = params[key]
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)  # 4.0 names the integer 4
    types, what = _PARAM_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise InvalidDescriptor(f"{family}: {key} must be {what}, got {value!r}")
    return value


def descriptor_from_params(family: str, params: dict) -> MeanDescriptor:
    """Rebuild a descriptor from the CLI/state-file parameter schema."""
    if not isinstance(params, dict):
        raise InvalidDescriptor(f"{family}: params must be an object")
    get = partial(_param, family, params)
    try:
        if family == "power":
            return power_mean(get("p", float))
        if family == "quasiarithmetic":
            return quasi_arithmetic(get("f", str))
        if family == "gini":
            return gini(get("p", float), get("q", float))
        if family == "bajraktarevic":
            return bajraktarevic(pair_from_names(get("f", str), get("g", str)))
        if family == "hamy":
            return hamy(get("r", int))
        if family == "sympoly":
            return sympoly(get("r", int))
        if family == "biplanar":
            return biplanar(get("p", float), get("q", float),
                            get("c", int), get("d", int))
        if family == "median":
            return median_mean(params.get("kind", "lower"))
        if family == "piecewise_h":
            return piecewise_counterexample()
        if family == "cube_over_square":
            return cube_over_square()
    except KeyError as e:
        raise InvalidDescriptor(f"{family}: missing parameter {e}") from None
    raise InvalidDescriptor(f"unknown family {family!r}")

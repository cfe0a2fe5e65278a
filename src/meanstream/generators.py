"""The generator registry and the Bajraktarevic pairs, loaded on first use.

The paper characterizes two families by their generating functions: a
quasi-arithmetic mean (type T1+) by one strictly monotone f, and a
Bajraktarevic mean (type T2) by a pair (f, g) with g positive.  This module
holds that machinery: the registry of named generators, the check that a
generator (or the ratio f/g) is invertible on its domain, the pair
builders with their bisection inverse, and the two builders that need
them, ``quasi_arithmetic`` and ``bajraktarevic``.  ``import meanstream``
does not load it, so a process that evaluates only a power, gini, Hamy,
symmetric-polynomial, biplanar or median mean never compiles it; it loads
on the first lookup of one of its names through ``meanstream`` or
``meanstream.families``, when ``descriptor_from_params`` builds one of its
two families, or when a ``GeneratorFunction`` is validated.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import (ComplexityType, DomainInterval, MeanDescriptor, Record,
                   table_mean)
from .errors import GeneratorInvalid, PairInvalid
from .families import (GeneratorFunction, _ctype_of_two_sums, _exact,
                       _mean_of_one_sum, _power)

GRID_POINTS = 64
ROUNDTRIP_RTOL = 1e-10
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200


# ---------------------------------------------------------------------------
# generator functions (the f of quasi-arithmetic means)

def _check_invertible(label: str, domain: DomainInterval, h, inverse,
                      increasing, error: type) -> None:
    """Raise ``error`` unless h is finite and strictly monotone (either way
    if ``increasing`` is None) on the domain's grid, and inverse(h(x)) gives
    x back there within ROUNDTRIP_RTOL; an OverflowError there is ``error``
    too."""

    def call(fn, v):
        try:
            return fn(v)
        except OverflowError as e:
            raise error(f"{label}: overflow on the domain grid ({e})") from None

    grid = domain.sample_grid(GRID_POINTS)
    values = [call(h, x) for x in grid]
    for x, y in zip(grid, values):
        if not math.isfinite(y):
            raise error(f"{label}: non-finite value at {x}")
    if increasing is None:
        increasing = values[-1] > values[0]
    for a, b in zip(values, values[1:]):
        if (b <= a) if increasing else (b >= a):
            raise error(f"{label}: not strictly "
                        + ("increasing" if increasing else "decreasing"))
    for x, y in zip(grid, values):
        back = call(inverse, y)
        if abs(back - x) > ROUNDTRIP_RTOL * max(1.0, abs(x)):
            raise error(f"{label}: inverse round-trip fails at {x} (got {back})")


def _affine(a: float, b: float) -> GeneratorFunction:
    if a == 0:
        raise GeneratorInvalid("affine generator needs a != 0")
    return GeneratorFunction(
        f"affine:{_exact(a)},{_exact(b)}",
        lambda x: a * x + b,
        lambda y: (y - b) / a,
        DomainInterval.reals(),
        a > 0,
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


class BajraktarevicPair(Record):
    """(f, g) with g positive and f/g strictly monotone, plus (f/g)^-1.  The
    names are the mean's identity: name different functions differently, or
    leave "<custom>", which becomes "<custom 0x...>" after the function's id."""

    __slots__ = _fields = ("f", "g", "ratio_inverse", "domain", "f_name",
                           "g_name")

    def __init__(self, f: Callable[[float], float],
                 g: Callable[[float], float],
                 ratio_inverse: Callable[[float], float],
                 domain: DomainInterval, f_name: str = "<custom>",
                 g_name: str = "<custom>"):
        if f_name == "<custom>":
            f_name = f"<custom {id(f):#x}>"
        if g_name == "<custom>":
            g_name = f"<custom {id(g):#x}>"
        super().__init__(f, g, ratio_inverse, domain, f_name, g_name)

    def validate(self) -> None:
        _check_positive(self.g, self.domain)
        _check_invertible("f/g", self.domain, lambda x: self.f(x) / self.g(x),
                          self.ratio_inverse, None, PairInvalid)


def _check_positive(g, domain: DomainInterval) -> None:
    """Raise PairInvalid unless g > 0 on the domain's grid."""
    for x in domain.sample_grid(GRID_POINTS):
        if not g(x) > 0:
            raise PairInvalid(f"g({x}) = {g(x)} is not positive")


def pair_from_functions(f, g, domain: DomainInterval,
                        ratio_inverse=None,
                        f_name: str = "<custom>",
                        g_name: str = "<custom>") -> BajraktarevicPair:
    """Build a pair from raw callables; bisection inverse if none given.
    Different functions need different names (see BajraktarevicPair)."""
    if ratio_inverse is None:
        _check_positive(g, domain)  # before f/g picks the bisection direction
        grid = domain.sample_grid(GRID_POINTS)
        try:
            increasing = f(grid[-1]) / g(grid[-1]) > f(grid[0]) / g(grid[0])
        except OverflowError as e:
            raise PairInvalid(f"f/g: overflow on the domain grid ({e})") from None
        ratio_inverse = _bisect_inverse(lambda x: f(x) / g(x), domain, increasing)
    pair = BajraktarevicPair(f, g, ratio_inverse, domain, f_name, g_name)
    pair.validate()
    return pair


def pair_power(pf: float, pg: float) -> BajraktarevicPair:
    """``pair_from_names`` of "power:<p>" ("one" for p = 0): (x^pf, x^pg)."""
    if pf == pg:
        raise PairInvalid("pair_power needs pf != pg")
    return pair_from_names(*(f"power:{_exact(p)}" if p else "one"
                             for p in (pf, pg)))


def _one(x: float) -> float:
    """The constant pair component "one"."""
    return 1.0


def _pair_component(name: str):
    """A pair component by name (registry generators plus the constant
    'one'): its function, its inverse (None for 'one'), its domain, and p
    if it is x^p, else None."""
    if name == "one":
        return _one, None, DomainInterval.reals(), 0.0
    gen = generator_by_name(name)
    p = (float(name[6:]) if name.startswith("power:")
         else 1.0 if name == "identity" else None)
    return gen.forward, gen.inverse, gen.domain, p


def pair_from_names(f_name: str, g_name: str) -> BajraktarevicPair:
    f, f_inverse, f_dom, pf = _pair_component(f_name)
    g, _, g_dom, pg = _pair_component(g_name)
    lo = max(f_dom.lo, g_dom.lo)
    hi = min(f_dom.hi, g_dom.hi)
    domain = DomainInterval(lo, hi,
                            f_dom.lo_closed and g_dom.lo_closed,
                            f_dom.hi_closed and g_dom.hi_closed)
    ratio_inverse = None
    if g is _one:
        # f/1 is f: the pair's mean is f's quasi-arithmetic mean
        ratio_inverse = f_inverse
    elif pf is not None and pg is not None and pf != pg:
        diff = pf - pg
        ratio_inverse = lambda t: t ** (1.0 / diff)
    return pair_from_functions(f, g, domain, ratio_inverse, f_name, g_name)


# ---------------------------------------------------------------------------
# the two families built on them

def quasi_arithmetic(f) -> MeanDescriptor:
    """f may be a GeneratorFunction or a registry name."""
    if isinstance(f, str):
        f = generator_by_name(f)
    f.validate()
    return table_mean(
        "quasiarithmetic", {"f": f.name}, f.domain, ComplexityType(1, True),
        (("sum", 1, "forward(x)"),),
        _mean_of_one_sum(f.inverse, f.name.startswith("power:")),
        {"forward": f.forward})


def bajraktarevic(pair: BajraktarevicPair) -> MeanDescriptor:
    pair.validate()
    if pair.g is _one:  # the second sum is the count: f's quasi-arithmetic mean
        fin = _mean_of_one_sum(pair.ratio_inverse,
                               pair.f_name.startswith("power:"))
    else:
        fin = lambda reals, n: pair.ratio_inverse(reals[0] / reals[1])
    return table_mean(
        "bajraktarevic", {"f": pair.f_name, "g": pair.g_name}, pair.domain,
        _ctype_of_two_sums(_one in (pair.f, pair.g)),
        (("sum", 1, "f(x)"), ("sum", 1, "g(x)")), fin,
        {"f": pair.f, "g": pair.g})

"""The generators and the Bajraktarevic pairs, loaded on first use.

The paper characterizes two families by their generating functions: a
quasi-arithmetic mean (type T1+) by one strictly monotone f, and a
Bajraktarevic mean (type T2) by a pair (f, g) with g positive.  This module
holds that machinery: ``GeneratorFunction``, the registry, which names
every generator, in a pair too, the check that a generator (or f/g) is
invertible on its domain, the pair builders with their bisection inverse,
and the two builders that need them, ``quasi_arithmetic`` and
``bajraktarevic``.  Each of them refuses an argument of the wrong type
with an InvalidDescriptor subclass, never a bare exception.  A pair names
each component as the registry does, with one spelling for x: "power:1"
where the pair's domain is positive, "identity" on the whole line.
``import meanstream`` does not load this module, so a process that
evaluates only a power, gini, Hamy, symmetric-polynomial, biplanar or
median mean never compiles it; it loads on the first lookup of one of its
names through ``meanstream`` or ``meanstream.families``, or when
``descriptor_from_params`` builds one of its two families.
"""

import math
from typing import Callable

from .core import (ComplexityType, DomainInterval, MeanDescriptor, Record,
                   table_mean)
from .errors import GeneratorInvalid, PairInvalid
from .families import _ctype_of_two_sums, _exponent, _mean_of_one_sum, _shown

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


def _exact(v: float) -> str:
    """v as %g if that reads back as v, else in full, so names are exact."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(float(v))


class GeneratorFunction(Record):
    """A strictly monotone continuous bijection with explicit inverse."""

    __slots__ = _fields = ("name", "forward", "inverse", "domain", "increasing")

    def __init__(self, name: str, forward: Callable[[float], float],
                 inverse: Callable[[float], float], domain: DomainInterval,
                 increasing: bool):
        super().__init__(name, forward, inverse, domain, increasing)

    def validate(self) -> None:
        _check_invertible(self.name, self.domain, self.forward, self.inverse,
                          self.increasing, GeneratorInvalid)


def _power(p: float) -> GeneratorFunction:
    if p == 0:
        raise GeneratorInvalid("power generator needs p != 0")
    return GeneratorFunction(
        f"power:{_exact(p)}",
        lambda x: x ** p,
        lambda y: y ** (1.0 / p),
        DomainInterval.positive(),
        p > 0,
    )


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


def _x(x: float) -> float:
    """x: the identity generator both ways, and "power:1" in a pair."""
    return x


def generator_by_name(name: str) -> GeneratorFunction:
    """Registry lookup: identity, ln, exp, power:<p>, affine:<a>,<b>."""
    if not isinstance(name, str):
        raise GeneratorInvalid(f"a generator name is a string, got {_shown(name)}")
    if name == "identity":
        return GeneratorFunction("identity", _x, _x, DomainInterval.reals(),
                                 True)
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
    pf = _exponent("pair_power", "pf", pf)
    pg = _exponent("pair_power", "pg", pg)
    if pf == pg:
        raise PairInvalid("pair_power needs pf != pg")
    return pair_from_names(*(f"power:{_exact(p)}" if p else "one"
                             for p in (pf, pg)))


def _one(x: float) -> float:
    """The constant pair component "one"."""
    return 1.0


def _pair_component(name: str):
    """A pair component by name (registry generators plus the constant
    'one'): its registry name, its function, its inverse (None for 'one'),
    its domain, and p if it is x^p, else None."""
    if name == "one":
        return name, _one, None, DomainInterval.reals(), 0.0
    gen = generator_by_name(name)
    if gen.name in ("identity", "power:1"):
        return gen.name, _x, _x, gen.domain, 1.0
    p = float(gen.name[6:]) if gen.name.startswith("power:") else None
    return gen.name, gen.forward, gen.inverse, gen.domain, p


def pair_from_names(f_name: str, g_name: str) -> BajraktarevicPair:
    """The pair of two registry names or "one".  A component x has one
    spelling per domain: "power:1" where the pair's domain is positive (as
    a power or ln component makes it), "identity" on the whole line."""
    f_name, f, f_inverse, f_dom, pf = _pair_component(f_name)
    g_name, g, _, g_dom, pg = _pair_component(g_name)
    domain = DomainInterval(max(f_dom.lo, g_dom.lo), min(f_dom.hi, g_dom.hi),
                            f_dom.lo_closed and g_dom.lo_closed,
                            f_dom.hi_closed and g_dom.hi_closed)
    if domain.lo >= 0:
        f_name, g_name = (("power:1" if name == "identity" else name)
                          for name in (f_name, g_name))
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
    if not isinstance(f, GeneratorFunction):
        f = generator_by_name(f)
    f.validate()
    return table_mean(
        "quasiarithmetic", {"f": f.name}, f.domain, ComplexityType(1, True),
        (("sum", 1, "forward(x)"),),
        _mean_of_one_sum(f.inverse, f.name.startswith("power:")),
        {"forward": f.forward})


def bajraktarevic(pair: BajraktarevicPair) -> MeanDescriptor:
    if not isinstance(pair, BajraktarevicPair):
        raise PairInvalid(f"a Bajraktarevic mean needs a pair, got {_shown(pair)}")
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

"""Concrete generating pairs for each mean family.

Each constructor returns a MeanDescriptor: a state layout (the per-element
step, and the combine when it is not vector addition) plus a finalization
formula.  Parameters are validated at build time; branch selection (p = 0,
p = q) uses exact parameter comparison, never runtime tolerance.  hamy,
sympoly and biplanar compile their step and combine to straight-line code
(``_esym_mean``).
"""

from __future__ import annotations

import bisect
import math
import sys
from functools import partial
from typing import Callable

from .core import ComplexityType, DomainInterval, MeanDescriptor, Record
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
# the seven families

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


def _degree(family: str, name: str, value) -> int:
    """value, an int in 1..MAX_MULTI_EXPONENTS; a bool or a float is not a
    degree (``parse_state`` would reject ``true`` as one)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or not 1 <= value <= MAX_MULTI_EXPONENTS):
        raise InvalidDescriptor(f"{family} needs an integer {name} in "
                                f"1..{MAX_MULTI_EXPONENTS}, got {value!r}")
    return value


def _nonzero(s: float) -> float:
    """s, which on the positive domain (a power sum, or an e_j with j <= n)
    is 0.0 only if it underflowed; a subnormal s has lost digits."""
    if abs(s) < sys.float_info.min:
        raise NumericalFailure("a state sum underflowed below the normal range")
    return s


def power_mean(p: float) -> MeanDescriptor:
    p = _exponent("power", "p", p)
    if p == 0.0:
        step = lambda r, x: (r[0] + math.log(x),)
        fin = lambda reals, n: math.exp(reals[0] / n)
    else:
        step = lambda r, x: (r[0] + x ** p,)
        fin = lambda reals, n: (_nonzero(reals[0]) / n) ** (1.0 / p)
    return MeanDescriptor(
        family="power", params={"p": p}, domain=DomainInterval.positive(),
        ctype=ComplexityType(1, True), step=step, finalizer=fin)


def quasi_arithmetic(f) -> MeanDescriptor:
    """f may be a GeneratorFunction or a registry name."""
    if isinstance(f, str):
        f = generator_by_name(f)
    f.validate()
    return MeanDescriptor(
        family="quasiarithmetic", params={"f": f.name}, domain=f.domain,
        ctype=ComplexityType(1, True), step=lambda r, x: (r[0] + f.forward(x),),
        finalizer=lambda reals, n: f.inverse(reals[0] / n))


def _ctype_of_two_sums(constant: bool) -> ComplexityType:
    """T2 for a ratio of two sums, or T1+ when one summand is constant: that
    sum is the count, and the mean is quasi-arithmetic (the state keeps both
    slots, so its layout does not depend on the parameters)."""
    return ComplexityType(1, True) if constant else ComplexityType(2, False)


def gini(p: float, q: float) -> MeanDescriptor:
    p, q = _exponent("gini", "p", p), _exponent("gini", "q", q)
    if p == q:
        step = lambda r, x: (r[0] + x ** p * math.log(x), r[1] + x ** p)
        # reals[0] sums x^p ln x, which may be 0
        fin = lambda reals, n: math.exp(reals[0] / _nonzero(reals[1]))
    else:
        inv = 1.0 / (p - q)
        step = lambda r, x: (r[0] + x ** p, r[1] + x ** q)
        fin = lambda reals, n: (_nonzero(reals[0]) / _nonzero(reals[1])) ** inv
    return MeanDescriptor(
        family="gini", params={"p": p, "q": q}, domain=DomainInterval.positive(),
        ctype=_ctype_of_two_sums(0.0 in (p, q)), step=step, finalizer=fin,
        slots=2)


def bajraktarevic(pair: BajraktarevicPair) -> MeanDescriptor:
    pair.validate()
    return MeanDescriptor(
        family="bajraktarevic",
        params={"f": pair.f_name, "g": pair.g_name},
        domain=pair.domain,
        ctype=_ctype_of_two_sums(_one in (pair.f, pair.g)),
        step=lambda r, x: (r[0] + pair.f(x), r[1] + pair.g(x)),
        finalizer=lambda reals, n: pair.ratio_inverse(reals[0] / reals[1]),
        slots=2)


def _esym_mean(family: str, params: dict, ctype: ComplexityType,
               blocks: tuple, fin, env: dict, **extra) -> MeanDescriptor:
    """A descriptor on the elementary-symmetric state (e-state): for each
    block (m, expression), e_1..e_m of the y = expression(x), with e_0 = 1
    implicit, so zeros are the identity (a block of size 1 is a plain sum).
    ``step`` pushes y by e_j += y e_{j-1}; ``combine`` multiplies two
    states' polynomials prod(1 + y t), truncated at t^m, left to right.

    Both are straight-line code generated from the sizes (validated ints)
    and compiled once.  Parameter values reach the constant expressions
    through ``env`` (an exponent, ``log``), never through the source text.
    """
    # hamy(2): a0_1, a0_2, a1_1 = reals; y0 = x ** inv_r; y1 = x
    # return (a0_1 + y0, a0_2 + y0 * a0_1, a1_1 + y1)
    slots, pushed, merged = [], [], []
    for i, (m, _) in enumerate(blocks):
        for j in range(1, m + 1):
            slots.append("%d_%d" % (i, j))
            pushed.append("a%d_%d + y%d" % (i, j, i)
                          + (" * a%d_%d" % (i, j - 1) if j > 1 else ""))
            merged.append(" + ".join(
                ["a%d_%d + b%d_%d" % (i, j, i, j)]
                + ["a%d_%d * b%d_%d" % (i, h, i, j - h) for h in range(1, j)]))
    a, b = (", ".join(side + slot for slot in slots) for side in "ab")
    exec("def step(reals, x):\n    %s, = reals\n%s    return (%s,)\n"
         "def combine(a, b):\n    %s, = a\n    %s, = b\n    return (%s,)\n"
         % (a, "".join("    y%d = %s\n" % (i, expression)
                       for i, (_, expression) in enumerate(blocks)),
            ", ".join(pushed), a, b, ", ".join(merged)), env)
    return MeanDescriptor(
        family=family, params=params, domain=DomainInterval.positive(),
        ctype=ctype, step=env["step"], finalizer=fin, combine=env["combine"],
        slots=len(slots), **extra)


def hamy(r: int) -> MeanDescriptor:
    """Mean of r-th roots of r-element products; arithmetic mean for n < r.

    State holds e_1..e_r of the x^(1/r), then the plain sum of x for the
    small-n fallback.
    """
    r = _degree("hamy", "r", r)
    fin = lambda reals, n: (reals[-1] / n if n < r else
                            _nonzero(reals[r - 1]) / math.comb(n, r))
    return _esym_mean(
        "hamy", {"r": r}, ComplexityType(r, True),
        ((r, "x ** inv_r"), (1, "x")), fin, {"inv_r": 1.0 / r},
        ctype_is_upper_bound=True)


def sympoly(r: int) -> MeanDescriptor:
    """r-th root of the normalized elementary symmetric polynomial.

    State holds e_1..e_r of the x; e_1 is the small-n fallback's sum.
    """
    r = _degree("sympoly", "r", r)
    inv_r = 1.0 / r
    fin = lambda reals, n: (reals[0] / n if n < r else
                            (_nonzero(reals[r - 1]) / math.comb(n, r)) ** inv_r)
    return _esym_mean(
        "sympoly", {"r": r}, ComplexityType(r, True), ((r, "x"),), fin, {},
        ctype_is_upper_bound=True)


class BiplanarParams(Record):
    """biplanar's exponents p and q and degrees c and d, where c*p != d*q
    exactly: the exponents are compared as Fractions, imported on use, so
    that ``import meanstream`` does not load fractions and decimal."""

    __slots__ = _fields = ("p", "q", "c", "d")

    def __init__(self, p: float, q: float, c: int, d: int):
        from fractions import Fraction

        _degree("biplanar", "c", c)
        _degree("biplanar", "d", d)
        if c * Fraction(p) == d * Fraction(q):
            raise DegenerateExponents(f"c*p == d*q == {c * p}")
        super().__init__(p, q, c, d)

    @property
    def exponent_set(self) -> list:
        from fractions import Fraction

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
                            _exponent("biplanar", "q", q), c, d)
    p, q, c, d = params.p, params.q, params.c, params.d
    ln = p == 0  # the fallback is then the geometric mean
    ctype = ComplexityType(sum(e != 0 for e in params.exponent_set) + ln, True)
    n_min = max(c, d)
    exponent = 1.0 / (c * p - d * q)

    def fin(reals, n):
        if n < n_min:
            if ln:
                return math.exp(reals[-1] / n)
            return (_nonzero(reals[0]) / n) ** (1.0 / p)
        # E_c(x^p) / E_d(x^q), E_j = e_j / C(n, j)
        ratio = (_nonzero(reals[c - 1]) / _nonzero(reals[c + d - 1])
                 * (math.comb(n, d) / math.comb(n, c)))
        if not sys.float_info.min <= ratio < math.inf:  # subnormal: lost digits
            raise NumericalFailure(f"biplanar ratio {ratio} left the float range")
        return ratio ** exponent

    blocks = ((c, "x ** p"), (d, "x ** q")) + (((1, "log(x)"),) if ln else ())
    return _esym_mean(
        "biplanar", {"p": p, "q": q, "c": c, "d": d}, ctype, blocks, fin,
        {"p": p, "q": q, "log": math.log}, paper_k=params.k)


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
        step=lambda r, x: (r[0] + x * x, r[1] + x), finalizer=fin)


def cube_over_square() -> MeanDescriptor:
    """Repetition-invariant T2 mean on all reals with negligible element 0."""

    def fin(reals, n):
        u, v = reals
        return 0.0 if v == 0.0 else u / v

    return MeanDescriptor(
        family="cube_over_square", params={}, domain=DomainInterval.reals(),
        ctype=ComplexityType(2, False),
        step=lambda r, x: (r[0] + x ** 3, r[1] + x * x), finalizer=fin)


def _insort(a: tuple, x: float) -> tuple:
    """The median's step: an O(n) insert into the sorted tuple."""
    values = list(a)
    bisect.insort(values, x)
    return tuple(values)


def _sorted_merge(a: tuple, b: tuple) -> tuple:
    """The median's combine: multiset union of two sorted tuples."""
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
        ctype=None, step=_insort, combine=_sorted_merge, finalizer=fin)


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

"""Concrete generating pairs for each mean family.

The paper writes every mean as M(x) = F(f(x_1) + ... + f(x_n)).  Each
fixed-length family here is a block table of (kind, size, expression)
triples, the encoded columns of f, plus a finalizer F: ``core.table_mean``
compiles its checked step, leaf fold and combine on first use.  A "sum"
block is a plain sum; an "esym" block of size m holds e_1..e_m of its
expression (hamy, sympoly, biplanar).  The median keeps the sorted multiset.
Each builder is its family's one parameter check, raising an
InvalidDescriptor subclass; ``descriptor_from_params`` calls it by family
name, with the params as keywords.  Branch selection (p = 0, p = q) uses
exact parameter comparison, never runtime tolerance.

The quasi-arithmetic and Bajraktarevic families, with everything of
their generators (``GeneratorFunction``, the registry and the pair
builders), live in ``generators``, which loads on first use: a lookup of
one of its names here (such as ``families.quasi_arithmetic``) or through
``meanstream``, or a ``descriptor_from_params`` of one of those two
families.
"""

import bisect
import math
import sys
from functools import partial

from .core import (ComplexityType, DomainInterval, MeanDescriptor, Record,
                   _lazy_names, table_mean)
from .errors import (
    DegenerateExponents,
    FinalizeOutsideBranches,
    InvalidDescriptor,
    NumericalFailure,
)

MAX_MULTI_EXPONENTS = 12  # the largest degree of hamy, sympoly and biplanar
# the public names of ``generators``, which resolve here (and through
# ``meanstream``) on first lookup
_GENERATOR_NAMES = ("BajraktarevicPair", "GeneratorFunction",
                    "bajraktarevic", "generator_by_name",
                    "pair_from_functions", "pair_from_names", "pair_power",
                    "quasi_arithmetic")


# ---------------------------------------------------------------------------
# five of the seven families (quasi_arithmetic and bajraktarevic are in
# generators)

def _shown(value) -> str:
    """repr(value) for a refusal's message, without raising: an int past
    the int-to-str digit limit, whose repr raises, shows its bit length."""
    try:
        return repr(value)
    except Exception:
        bits = f" of {value.bit_length()} bits" if isinstance(value, int) else ""
        return f"<{type(value).__name__}{bits}>"


def _exponent(family: str, name: str, value) -> float:
    """value as a finite float; an infinite or NaN exponent has no mean.  A
    bool is no number here, and a str or bytes is text, which ``float``
    would parse."""
    try:
        if isinstance(value, (bool, str, bytes, bytearray)):
            raise TypeError
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidDescriptor(
            f"{family}: {name} must be a number, got {_shown(value)}") from None
    if not math.isfinite(value):
        raise InvalidDescriptor(f"{family} needs a finite {name}, got {value}")
    return value


def _degree(family: str, name: str, value) -> int:
    """value, an int in 1..MAX_MULTI_EXPONENTS; a bool or a float is not a
    degree (``parse_state`` would reject ``true`` as one)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or not 1 <= value <= MAX_MULTI_EXPONENTS):
        raise InvalidDescriptor(f"{family} needs an integer {name} in "
                                f"1..{MAX_MULTI_EXPONENTS}, got {_shown(value)}")
    return value


def _nonzero(s: float) -> float:
    """s, which on the positive domain (a power sum, or an e_j with j <= n)
    is 0.0 only if it underflowed; a subnormal s has lost digits."""
    if abs(s) < sys.float_info.min:
        raise NumericalFailure("a state sum underflowed below the normal range")
    return s


def _mean_of_one_sum(inverse, positive: bool):
    """The finalizer inverse(s / n) of a mean of one sum s (the power and
    quasi-arithmetic means, and Bajraktarevic with g = 1).  A sum of
    positive terms, the x^p of a power generator, that reads 0 underflowed:
    ``_nonzero`` raises there, where the inverse would return 0.0."""
    if positive:
        return lambda reals, n: inverse(_nonzero(reals[0]) / n)
    return lambda reals, n: inverse(reals[0] / n)


def power_mean(p: float) -> MeanDescriptor:
    p = _exponent("power", "p", p)
    if p == 0.0:
        encoded, fin = "log(x)", _mean_of_one_sum(math.exp, False)
    else:
        encoded = "x ** p"
        fin = _mean_of_one_sum(lambda y: y ** (1.0 / p), True)
    return table_mean("power", {"p": p}, DomainInterval.positive(),
                      ComplexityType(1, True), (("sum", 1, encoded),), fin,
                      {"p": p, "log": math.log})


def _ctype_of_two_sums(constant: bool) -> ComplexityType:
    """T2 for a ratio of two sums, or T1+ when one summand is constant: that
    sum is the count, and the mean is quasi-arithmetic (the state keeps both
    sums, so its layout does not depend on the parameters)."""
    return ComplexityType(1, True) if constant else ComplexityType(2, False)


def gini(p: float, q: float) -> MeanDescriptor:
    p, q = _exponent("gini", "p", p), _exponent("gini", "q", q)
    if p == q:
        blocks = (("sum", 1, "x ** p * log(x)"), ("sum", 1, "x ** p"))
        # reals[0] sums x^p ln x, which may be 0
        fin = lambda reals, n: math.exp(reals[0] / _nonzero(reals[1]))
    else:
        inv = 1.0 / (p - q)
        blocks = (("sum", 1, "x ** p"), ("sum", 1, "x ** q"))
        fin = lambda reals, n: (_nonzero(reals[0]) / _nonzero(reals[1])) ** inv
    return table_mean("gini", {"p": p, "q": q}, DomainInterval.positive(),
                      _ctype_of_two_sums(0.0 in (p, q)), blocks, fin,
                      {"p": p, "q": q, "log": math.log})


def hamy(r: int) -> MeanDescriptor:
    """Mean of r-th roots of r-element products; arithmetic mean for n < r.

    State holds e_1..e_r of the x^(1/r), then the plain sum of x for the
    small-n fallback.
    """
    r = _degree("hamy", "r", r)
    fin = lambda reals, n: (reals[-1] / n if n < r else
                            _nonzero(reals[r - 1]) / math.comb(n, r))
    return table_mean(
        "hamy", {"r": r}, DomainInterval.positive(), ComplexityType(r, True),
        (("esym", r, "x ** inv_r"), ("sum", 1, "x")), fin,
        {"inv_r": 1.0 / r}, ctype_is_upper_bound=True)


def sympoly(r: int) -> MeanDescriptor:
    """r-th root of the normalized elementary symmetric polynomial.

    State holds e_1..e_r of the x; e_1 is the small-n fallback's sum.
    """
    r = _degree("sympoly", "r", r)
    inv_r = 1.0 / r
    fin = lambda reals, n: (reals[0] / n if n < r else
                            (_nonzero(reals[r - 1]) / math.comb(n, r)) ** inv_r)
    return table_mean(
        "sympoly", {"r": r}, DomainInterval.positive(), ComplexityType(r, True),
        (("esym", r, "x"),), fin, {}, ctype_is_upper_bound=True)


class BiplanarParams(Record):
    """biplanar's exponents p and q (finite numbers, kept as floats) and
    degrees c and d, where c*p != d*q exactly.  The check and the count
    ``k`` of the exponent set run on the exponents' exact integer ratios
    (``as_integer_ratio``): with p = a/b and q = e/f, c*p != d*q is
    c*a*f != d*e*b.  So building one loads neither fractions nor decimal;
    ``exponent_set`` imports Fraction when called."""

    __slots__ = _fields = ("p", "q", "c", "d")

    def __init__(self, p: float, q: float, c: int, d: int):
        p, q = _exponent("biplanar", "p", p), _exponent("biplanar", "q", q)
        _degree("biplanar", "c", c)
        _degree("biplanar", "d", d)
        (a, b), (e, f) = p.as_integer_ratio(), q.as_integer_ratio()
        if c * a * f == d * e * b:
            raise DegenerateExponents(f"c*p == d*q == {c * p}")
        super().__init__(p, q, c, d)

    def _ratios(self) -> set:
        """The exponents j*p (j = 1..c) and j*q (j = 1..d), as distinct
        (numerator, denominator) pairs in lowest terms."""
        ratios = set()
        for exponent, degree in ((self.p, self.c), (self.q, self.d)):
            a, b = exponent.as_integer_ratio()
            for j in range(1, degree + 1):
                g = math.gcd(j * a, b)
                ratios.add((j * a // g, b // g))
        return ratios

    @property
    def exponent_set(self) -> list:
        from fractions import Fraction

        return sorted(Fraction(*ratio) for ratio in self._ratios())

    @property
    def k(self) -> int:
        return len(self._ratios())


def biplanar(p: float, q: float, c: int, d: int) -> MeanDescriptor:
    """Ratio of scaled elementary symmetric polynomials in p-th and q-th
    powers, to the power 1/(cp-dq); the p-th power mean for n < max(c, d).

    State holds e_1..e_c of the x^p and e_1..e_d of the x^q, then, when
    p = 0, the sum of ln x for the fallback's geometric mean.  The type is
    the paper's: one real per nonzero exponent j*p, j*q, and the log sum.
    """
    params = BiplanarParams(p, q, c, d)
    p, q = params.p, params.q
    ln = p == 0  # the fallback is then the geometric mean
    ctype = ComplexityType(sum(a != 0 for a, _ in params._ratios()) + ln,
                           True)
    n_min = max(c, d)
    if c * p == d * q:  # in floats, though not exactly: 3 * (1/3) == 1.0
        raise DegenerateExponents(f"c*p == d*q == {c * p} in floats")
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

    blocks = ((("esym", c, "x ** p"), ("esym", d, "x ** q"))
              + ((("sum", 1, "log(x)"),) if ln else ()))
    return table_mean(
        "biplanar", {"p": p, "q": q, "c": c, "d": d}, DomainInterval.positive(),
        ctype, blocks, fin, {"p": p, "q": q, "log": math.log})


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

    return table_mean("piecewise_h", {}, domain, ComplexityType(2, False),
                      (("sum", 1, "x * x"), ("sum", 1, "x")), fin, {})


def cube_over_square() -> MeanDescriptor:
    """Repetition-invariant T2 mean on all reals with negligible element 0."""

    def fin(reals, n):
        u, v = reals
        return 0.0 if v == 0.0 else u / v

    return table_mean("cube_over_square", {}, DomainInterval.reals(),
                      ComplexityType(2, False),
                      (("sum", 1, "x ** 3"), ("sum", 1, "x * x")), fin, {})


def _insort(a: tuple, x: float) -> tuple:
    """The median's step: an O(n) insert into the sorted tuple, after the
    values equal to x, but -0.0 before 0.0."""
    values = list(a)
    if x or math.copysign(1.0, x) > 0:
        bisect.insort(values, x)
    else:
        bisect.insort_left(values, x)
    return tuple(values)


def _zeros_in_order(values: list) -> tuple:
    """values, sorted, as a tuple with every -0.0 before every 0.0, so that
    a median state's bytes do not depend on the order that built it: a
    bisect finds the zero run, which a sort left in arrival order."""
    lo = bisect.bisect_left(values, 0.0)
    hi = bisect.bisect_right(values, 0.0, lo)
    if hi - lo > 1:
        values[lo:hi] = sorted(values[lo:hi], key=partial(math.copysign, 1.0))
    return tuple(values)


def _sort_leaf(xs: list, a: tuple) -> tuple:
    """The median's leaf fold: one sort."""
    return _zeros_in_order(sorted([*a, *xs]))


def _sorted_merge(a: tuple, b: tuple) -> tuple:
    """The median's combine: multiset union of two sorted tuples."""
    return _zeros_in_order(sorted(a + b))


def median_mean(kind: str = "lower") -> MeanDescriptor:
    """Lower or upper median; the state is the full sorted multiset."""
    if kind not in ("lower", "upper"):
        raise InvalidDescriptor(
            f"median kind must be lower/upper, got {_shown(kind)}")

    def fin(reals, n):
        idx = (n - 1) // 2 if kind == "lower" else n // 2
        return reals[idx]

    return MeanDescriptor(
        family="median", params={"kind": kind}, domain=DomainInterval.reals(),
        ctype=None, step=_insort, combine=_sorted_merge, finalizer=fin,
        leaf_fold=_sort_leaf)


# ---------------------------------------------------------------------------
# the families by name: each builder is its family's one parameter check

def _quasiarithmetic(f: str) -> MeanDescriptor:
    from .generators import quasi_arithmetic

    return quasi_arithmetic(f)


def _bajraktarevic(f: str, g: str) -> MeanDescriptor:
    from .generators import bajraktarevic, pair_from_names

    return bajraktarevic(pair_from_names(f, g))


_BUILDERS = {"power": power_mean, "quasiarithmetic": _quasiarithmetic,
             "gini": gini, "bajraktarevic": _bajraktarevic, "hamy": hamy,
             "sympoly": sympoly, "biplanar": biplanar, "median": median_mean,
             "piecewise_h": piecewise_counterexample,
             "cube_over_square": cube_over_square}


def descriptor_from_params(family: str, params: dict) -> MeanDescriptor:
    """Rebuild a descriptor from the CLI/state-file parameter schema: the
    family's builder called with params as keywords.  The builder's
    signature names the parameters, and a default makes one optional."""
    builder = _BUILDERS.get(family) if isinstance(family, str) else None
    if builder is None:
        raise InvalidDescriptor(f"unknown family {_shown(family)}")
    if not isinstance(params, dict):
        raise InvalidDescriptor(f"{family}: params must be an object")
    code = builder.__code__
    names = code.co_varnames[:code.co_argcount]
    unused = [key for key in params if key not in names]
    if unused:
        raise InvalidDescriptor(f"{family} takes no parameter "
                                + ", ".join(map(_shown, unused)))
    for key in names[:len(names) - len(builder.__defaults__ or ())]:
        if key not in params:
            raise InvalidDescriptor(f"{family}: missing parameter {key!r}")
    # JSON has one number type: an integral nonzero float is the int it
    # names ("r": 4.0 is hamy(4)), and -0.0 keeps its sign
    return builder(**{key: int(value) if type(value) is float and value
                      and value.is_integer() else value
                      for key, value in params.items()})


# sigma_from_power loads symfun on its first lookup here (bench/job.py
# traces it as families.sigma_from_power), and a public name of generators
# loads generators (verify looks them up here)
_LAZY = {"symfun": ("sigma_from_power",), "generators": _GENERATOR_NAMES}
__getattr__ = _lazy_names(globals(), _LAZY)

"""Golden finalize bits for the elementary-symmetric families (hamy,
sympoly, biplanar), checked against an exact reference.

The state holds e_1..e_r of the encoded powers, and finalize is a closed
form in them.  Each case must finalize without raising, within 4 ulp of a
reference that runs the same e-recurrence in ``Fraction`` over the same
float powers (the final root correctly rounded through ``Decimal``), and to
the ``float.hex`` pinned below.  The pins guard the e-state: a change to
how it is combined or finalized must reproduce every bit or re-record them
against the reference.  The log-uniform input is the one on which the
former power-sum route cancelled (sympoly(8) failed on its first 8 values).
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import meanstream as ms

DESCRIPTORS = {
    "hamy(2)": lambda: ms.hamy(2),
    "hamy(8)": lambda: ms.hamy(8),
    "hamy(12)": lambda: ms.hamy(12),
    "sympoly(4)": lambda: ms.sympoly(4),
    "sympoly(8)": lambda: ms.sympoly(8),
    "biplanar(2,3,3,3)": lambda: ms.biplanar(2, 3, 3, 3),
    "biplanar(0,1,2,1)": lambda: ms.biplanar(0, 1, 2, 1),
    "biplanar(2,0,2,3)": lambda: ms.biplanar(2, 0, 2, 3),
    "biplanar(-0.5,1,4,3)": lambda: ms.biplanar(-0.5, 1, 4, 3),
}

INPUTS = {
    "ints": [float(i) for i in range(1, 15)],
    "uniform": [0.5 + (i * 7919 % 101) / 29.0 for i in range(1, 17)],
    # 10 ** u for u on a grid in [-3, 3]
    "loguniform": [10.0 ** ((i * 37 % 61) / 10.0 - 3.0) for i in range(1, 15)],
}

PREFIXES = (1, 2, 3, 5, 8, 12, 14)

MAX_ULP = 4

GOLDEN = {
    "biplanar(-0.5,1,4,3)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.5f619980c4337p+0",
        ("ints", 3): "0x1.b97c4c1a7a955p+0",
        ("ints", 5): "0x1.5b48e0b0c911dp+1",
        ("ints", 8): "0x1.ff34dba66c606p+1",
        ("ints", 12): "0x1.6a847dbbaea76p+2",
        ("ints", 14): "0x1.9f587feed7a9ap+2",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.21404f7618beep-4",
        ("loguniform", 3): "0x1.3cedf7c9834d8p-3",
        ("loguniform", 5): "0x1.d4b0a3c49e03cp-1",
        ("loguniform", 8): "0x1.3810dcc7c398cp+1",
        ("loguniform", 12): "0x1.8e7b112d8fac3p+0",
        ("loguniform", 14): "0x1.50445e4a68098p+1",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.3cea452cb0a63p+1",
        ("uniform", 3): "0x1.ecb9f673a6720p+0",
        ("uniform", 5): "0x1.bf27b4cd8033cp+0",
        ("uniform", 8): "0x1.e6a67157f6d37p+0",
        ("uniform", 12): "0x1.f4f59cc10104fp+0",
        ("uniform", 14): "0x1.f9f3be2bae4b9p+0",
    },
    "biplanar(0,1,2,1)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.8000000000000p+0",
        ("ints", 3): "0x1.0000000000000p+1",
        ("ints", 5): "0x1.8000000000000p+1",
        ("ints", 8): "0x1.2000000000000p+2",
        ("ints", 12): "0x1.a000000000000p+2",
        ("ints", 14): "0x1.e000000000000p+2",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.42096b8dfa9c6p+1",
        ("loguniform", 3): "0x1.1815b9d0951bdp+5",
        ("loguniform", 5): "0x1.51617fadc6f61p+4",
        ("loguniform", 8): "0x1.0fe54f4ed5247p+5",
        ("loguniform", 12): "0x1.7c398b0c4860bp+4",
        ("loguniform", 14): "0x1.330faf8b7cb8dp+5",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.4f72c234f72c2p+1",
        ("uniform", 3): "0x1.1555555555555p+1",
        ("uniform", 5): "0x1.f4862de74862ep+0",
        ("uniform", 8): "0x1.09611a7b9611bp+1",
        ("uniform", 12): "0x1.12640bc52640cp+1",
        ("uniform", 14): "0x1.12ea8fc377cd9p+1",
    },
    "biplanar(2,0,2,3)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.94c583ada5b53p+0",
        ("ints", 3): "0x1.0152b2d890fd6p+1",
        ("ints", 5): "0x1.97144458535fap+1",
        ("ints", 8): "0x1.3af432339bdebp+2",
        ("ints", 12): "0x1.cf1301f761aebp+2",
        ("ints", 14): "0x1.0c8894cb45b06p+3",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.c5a06208ae2e1p+1",
        ("loguniform", 3): "0x1.102bb3f8ef84bp+4",
        ("loguniform", 5): "0x1.937e481ad940cp+3",
        ("loguniform", 8): "0x1.b72bfb0dd48bcp+5",
        ("loguniform", 12): "0x1.645e99227cc49p+5",
        ("loguniform", 14): "0x1.2157abd837088p+6",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.5b6ff2b32f81cp+1",
        ("uniform", 3): "0x1.12fafcdaccd77p+1",
        ("uniform", 5): "0x1.0ae2165d6deffp+1",
        ("uniform", 8): "0x1.1cf91c1abac88p+1",
        ("uniform", 12): "0x1.29ca33a2cabedp+1",
        ("uniform", 14): "0x1.2947ec8f578dap+1",
    },
    "biplanar(2,3,3,3)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.94c583ada5b53p+0",
        ("ints", 3): "0x1.d12ed0af1a27fp+0",
        ("ints", 5): "0x1.c38f48c91c63cp+1",
        ("ints", 8): "0x1.77c7a1c5cc385p+2",
        ("ints", 12): "0x1.1d6e5cc6468c5p+3",
        ("ints", 14): "0x1.4ddbfb3f0e4a3p+3",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.c5a06208ae2e1p+1",
        ("loguniform", 3): "0x1.13c4841387050p+1",
        ("loguniform", 5): "0x1.75ad79a2fda7cp+2",
        ("loguniform", 8): "0x1.81da791dd89b8p+5",
        ("loguniform", 12): "0x1.b84fd17c8c818p+5",
        ("loguniform", 14): "0x1.3958d767cbf7ep+7",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.5b6ff2b32f81cp+1",
        ("uniform", 3): "0x1.0029b8be44ce0p+1",
        ("uniform", 5): "0x1.29c51e8311cf9p+1",
        ("uniform", 8): "0x1.4a937951812e4p+1",
        ("uniform", 12): "0x1.61a2e536dda69p+1",
        ("uniform", 14): "0x1.5f7a0c7f6a56ap+1",
    },
    "hamy(12)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.8000000000000p+0",
        ("ints", 3): "0x1.0000000000000p+1",
        ("ints", 5): "0x1.8000000000000p+1",
        ("ints", 8): "0x1.2000000000000p+2",
        ("ints", 12): "0x1.527c8d13037b4p+2",
        ("ints", 14): "0x1.84574cdfeeb00p+2",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.42096b8dfa9c6p+1",
        ("loguniform", 3): "0x1.1815b9d0951bdp+5",
        ("loguniform", 5): "0x1.51617fadc6f62p+4",
        ("loguniform", 8): "0x1.0fe54f4ed5247p+5",
        ("loguniform", 12): "0x1.009b9cf334253p-1",
        ("loguniform", 14): "0x1.cd8721da10c94p-1",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.4f72c234f72c2p+1",
        ("uniform", 3): "0x1.1555555555555p+1",
        ("uniform", 5): "0x1.f4862de74862ep+0",
        ("uniform", 8): "0x1.09611a7b9611bp+1",
        ("uniform", 12): "0x1.ddebf63ec0bcfp+0",
        ("uniform", 14): "0x1.e56c077c5477fp+0",
    },
    "hamy(2)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.6a09e667f3bcdp+0",
        ("ints", 3): "0x1.dd811d24dee45p+0",
        ("ints", 5): "0x1.61afb60ec989ap+1",
        ("ints", 8): "0x1.06b9f954e5522p+2",
        ("ints", 12): "0x1.78f8c5ba39667p+2",
        ("ints", 14): "0x1.b20894d03def2p+2",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.43d1362484910p-2",
        ("loguniform", 3): "0x1.013cb1963dec9p+3",
        ("loguniform", 5): "0x1.9f4c63caebb4dp+1",
        ("loguniform", 8): "0x1.3938903cdce67p+3",
        ("loguniform", 12): "0x1.8dda4063a7603p+2",
        ("loguniform", 14): "0x1.5ade3c7b8ec41p+3",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.4303bb3d22eedp+1",
        ("uniform", 3): "0x1.053544f2b4714p+1",
        ("uniform", 5): "0x1.c884af508f565p+0",
        ("uniform", 8): "0x1.efa48151a324dp+0",
        ("uniform", 12): "0x1.00159e62b1ec6p+1",
        ("uniform", 14): "0x1.023dcd6a86fc7p+1",
    },
    "hamy(8)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.8000000000000p+0",
        ("ints", 3): "0x1.0000000000000p+1",
        ("ints", 5): "0x1.8000000000000p+1",
        ("ints", 8): "0x1.e1d63d8dc59f9p+1",
        ("ints", 12): "0x1.5694d30401b58p+2",
        ("ints", 14): "0x1.89384ddb76c24p+2",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.42096b8dfa9c6p+1",
        ("loguniform", 3): "0x1.1815b9d0951bdp+5",
        ("loguniform", 5): "0x1.51617fadc6f62p+4",
        ("loguniform", 8): "0x1.aecb5810c240ep-1",
        ("loguniform", 12): "0x1.5f71615cfdaf3p-1",
        ("loguniform", 14): "0x1.3e3fcae311634p+0",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.4f72c234f72c2p+1",
        ("uniform", 3): "0x1.1555555555555p+1",
        ("uniform", 5): "0x1.f4862de74862ep+0",
        ("uniform", 8): "0x1.d2a0b5f02a785p+0",
        ("uniform", 12): "0x1.e17b9c5d81a59p+0",
        ("uniform", 14): "0x1.e8a710c981461p+0",
    },
    "sympoly(4)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.8000000000000p+0",
        ("ints", 3): "0x1.0000000000000p+1",
        ("ints", 5): "0x1.5c42dee762cbep+1",
        ("ints", 8): "0x1.0ed5bf8df48dap+2",
        ("ints", 12): "0x1.8f393edf17f63p+2",
        ("ints", 14): "0x1.cf55a1c66ee81p+2",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.42096b8dfa9c6p+1",
        ("loguniform", 3): "0x1.1815b9d0951bdp+5",
        ("loguniform", 5): "0x1.ed77e813d6002p-1",
        ("loguniform", 8): "0x1.433a77955f3eep+3",
        ("loguniform", 12): "0x1.2cf703d88a5ccp+3",
        ("loguniform", 14): "0x1.30abcfe829334p+4",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.4f72c234f72c2p+1",
        ("uniform", 3): "0x1.1555555555555p+1",
        ("uniform", 5): "0x1.c0a553ab86d7ep+0",
        ("uniform", 8): "0x1.fa123c268214ap+0",
        ("uniform", 12): "0x1.0a382d2f58659p+1",
        ("uniform", 14): "0x1.0c8b719c4eb34p+1",
    },
    "sympoly(8)": {
        ("ints", 1): "0x1.0000000000000p+0",
        ("ints", 2): "0x1.8000000000000p+0",
        ("ints", 3): "0x1.0000000000000p+1",
        ("ints", 5): "0x1.8000000000000p+1",
        ("ints", 8): "0x1.e1d63d8dc59f9p+1",
        ("ints", 12): "0x1.74e0d6c2ea362p+2",
        ("ints", 14): "0x1.b5d72fd7da590p+2",
        ("loguniform", 1): "0x1.40c28430012e9p+2",
        ("loguniform", 2): "0x1.42096b8dfa9c6p+1",
        ("loguniform", 3): "0x1.1815b9d0951bdp+5",
        ("loguniform", 5): "0x1.51617fadc6f62p+4",
        ("loguniform", 8): "0x1.aecb5810c240ep-1",
        ("loguniform", 12): "0x1.15e71d3d3e417p+1",
        ("loguniform", 14): "0x1.6c8cfaee8a4efp+2",
        ("uniform", 1): "0x1.e9ee58469ee58p+0",
        ("uniform", 2): "0x1.4f72c234f72c2p+1",
        ("uniform", 3): "0x1.1555555555555p+1",
        ("uniform", 5): "0x1.f4862de74862ep+0",
        ("uniform", 8): "0x1.d2a0b5f02a787p+0",
        ("uniform", 12): "0x1.fb8ef1a4e14d4p+0",
        ("uniform", 14): "0x1.03220aef39c2ap+1",
    },
}


def _e(ys, m: int) -> Fraction:
    """e_m of the ys, exactly, by the recurrence e_j += y e_{j-1}."""
    e = [Fraction(1)] + [Fraction(0)] * m
    for y in map(Fraction, ys):
        for j in range(m, 0, -1):
            e[j] += y * e[j - 1]
    return e[m]


def _decimal(v: Fraction) -> Decimal:
    return Decimal(v.numerator) / Decimal(v.denominator)


def _power(v: Fraction, exponent: float) -> float:
    """v ** exponent (the same float exponent finalize uses), rounded once."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(_decimal(v) ** Decimal(exponent))


def _reference(d, xs) -> float:
    n, params = len(xs), d.params
    if d.family in ("hamy", "sympoly"):
        r = params["r"]
        if n < r:
            return float(sum(map(Fraction, xs)) / n)
        if d.family == "hamy":
            return float(_e([x ** (1.0 / r) for x in xs], r) / math.comb(n, r))
        return _power(_e(xs, r) / math.comb(n, r), 1.0 / r)
    p, q, c, dd = params["p"], params["q"], params["c"], params["d"]
    if n < max(c, dd):  # the p-th power mean
        if p == 0:
            with localcontext() as ctx:
                ctx.prec = 60
                return float(_decimal(sum(map(Fraction, map(math.log, xs))) / n).exp())
        return _power(sum(Fraction(x ** p) for x in xs) / n, 1.0 / p)
    ratio = (_e([x ** p for x in xs], c) * math.comb(n, dd)
             / (_e([x ** q for x in xs], dd) * math.comb(n, c)))
    return _power(ratio, 1.0 / (c * p - dd * q))


def _cases(label):
    d = DESCRIPTORS[label]()
    for name, xs in INPUTS.items():
        for n in PREFIXES:
            yield d, name, xs[:n]


@pytest.mark.parametrize("label", sorted(DESCRIPTORS))
def test_finalize_bits(label):
    got = {(name, len(xs)): ms.evaluate_stream(d, xs).hex()
           for d, name, xs in _cases(label)}
    assert got == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(DESCRIPTORS))
def test_within_4_ulp_of_the_exact_reference(label):
    for d, name, xs in _cases(label):
        want = _reference(d, xs)
        got = ms.evaluate_stream(d, xs)
        assert abs(got - want) <= MAX_ULP * math.ulp(want), (name, len(xs))


def test_case_count():
    assert sum(1 for label in DESCRIPTORS for _ in _cases(label)) == 189

"""Seeded inputs and exact references for the benchmark workloads.

Standard library only: the harness never imports meanstream, so a reference
cannot share a defect with the code it checks.  Every reference is exact up
to one final rounding (or, for the geometric mean, up to ``math.log`` and
``math.exp``), far below the 1e-9 relative tolerance the harness applies.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("cli_eval", "shard_merge", "small_streams")

# full: the measured sizes.  smoke: every code path on a tiny input.
SIZES = {
    "full": {"cli_lines": 100_000, "median_lines": 10_000, "shards": 2000,
             "shard_len": 16, "streams": 4000, "setup_repeats": 7},
    "smoke": {"cli_lines": 2000, "median_lines": 200, "shards": 20,
              "shard_len": 16, "streams": 90, "setup_repeats": 1},
}

# (family, params) exactly as meanstream.descriptor_from_params takes them.
SHARD_SPECS = [
    ("quasiarithmetic", {"f": "ln"}),
    ("bajraktarevic", {"f": "power:2", "g": "identity"}),
    ("power", {"p": 0.0}),
    ("hamy", {"r": 4}),
    ("sympoly", {"r": 4}),
    ("median", {"kind": "lower"}),
]
STREAM_SPECS = [
    ("hamy", {"r": 2}), ("hamy", {"r": 4}), ("hamy", {"r": 8}),
    ("sympoly", {"r": 2}), ("sympoly", {"r": 4}), ("sympoly", {"r": 8}),
    ("biplanar", {"p": 2.0, "q": 3.0, "c": 3, "d": 3}),
    ("power", {"p": 0.0}),
    ("gini", {"p": 2.0, "q": 1.0}),
]
CLI_SPECS = [
    ("power", {"p": 1.0}),
    ("hamy", {"r": 4}),
    ("median", {"kind": "lower"}),
]

# small_streams families that recover elementary symmetric polynomials from
# power sums by Newton's identities.  That recovery cancels catastrophically
# on spread-out inputs, so their wrong or raised results are a known defect:
# counted in `failed` and itemised, but they do not clear `correct`.
NEWTON_FAMILIES = {"hamy", "sympoly", "biplanar"}


def uniform(rng: random.Random) -> float:
    return rng.uniform(0.5, 20.0)


def log_uniform(rng: random.Random) -> float:
    return math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))


# ---------------------------------------------------------------------------
# exact references

def _dyadic(xs):
    """Integers m_i and a shift s with xs[i] == m_i / 2**s exactly."""
    ratios = [x.as_integer_ratio() for x in xs]
    shift = max(den.bit_length() for _, den in ratios) - 1
    return [num << (shift - den.bit_length() + 1) for num, den in ratios], shift


def _elementary(ints, r: int) -> int:
    """e_r of integers by the recurrence e_j += e_{j-1} * y."""
    e = [1] + [0] * r
    for y in ints:
        for j in range(r, 0, -1):
            e[j] += e[j - 1] * y
    return e[r]


def _geometric(xs) -> float:
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


def _arithmetic(xs) -> float:
    ints, s = _dyadic(xs)
    return float(Fraction(sum(ints), len(xs) << s))


def reference(family: str, params: dict, xs) -> float:
    """The exact value of the named mean of xs, rounded once to a float."""
    n = len(xs)
    if family == "median":
        return sorted(xs)[(n - 1) // 2 if params["kind"] == "lower" else n // 2]
    if family == "quasiarithmetic" and params["f"] == "ln":
        return _geometric(xs)
    if family == "power":
        if params["p"] == 0.0:
            return _geometric(xs)
        if params["p"] == 1.0:
            return _arithmetic(xs)
    ints, s = _dyadic(xs)
    if family in ("gini", "bajraktarevic"):
        if family == "gini":
            p, q = int(params["p"]), int(params["q"])
        else:  # only the pair (power:<p>, identity) is used
            p, q = int(float(params["f"].split(":")[1])), 1
        ratio = Fraction(sum(m ** p for m in ints) << (s * q),
                         sum(m ** q for m in ints) << (s * p))
        return float(ratio) ** (1.0 / (p - q))
    if family == "hamy":
        r = params["r"]
        if n < r:
            return _arithmetic(xs)
        # the mean of r-subset geometric means is e_r(x^(1/r)) / C(n, r),
        # taken exactly over the float roots
        ints, s = _dyadic([x ** (1.0 / r) for x in xs])
        return float(Fraction(_elementary(ints, r), math.comb(n, r) << (s * r)))
    if family == "sympoly":
        r = params["r"]
        if n < r:
            return _arithmetic(xs)
        e = Fraction(_elementary(ints, r), math.comb(n, r) << (s * r))
        return float(e) ** (1.0 / r)
    if family == "biplanar":
        p, q, c, d = (int(params["p"]), int(params["q"]), params["c"], params["d"])
        if n < max(c, d):
            return float(Fraction(sum(m ** p for m in ints), n << (s * p))) ** (1.0 / p)
        num = math.comb(n, d) * _elementary([m ** p for m in ints], c) << (s * q * d)
        den = math.comb(n, c) * _elementary([m ** q for m in ints], d) << (s * p * c)
        return float(Fraction(num, den)) ** (1.0 / (c * p - d * q))
    raise ValueError(f"no reference for {family} {params}")


def label(family: str, params: dict) -> str:
    args = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in params.items())
    return f"{family}({args})"


def _op(what, family, params, xs, witness, exempt=False) -> dict:
    return {"name": f"{what} {label(family, params)}", "family": family,
            "ref": reference(family, params, xs), "lo": min(xs), "hi": max(xs),
            "witness": witness, "exempt": exempt}


# ---------------------------------------------------------------------------
# generation: inputs for the program, ops (with references) for the harness

def _cli_eval(rng, size, workdir: Path):
    xs = [uniform(rng) for _ in range(size["cli_lines"])]
    med = xs[:size["median_lines"]]
    values = workdir / "values.txt"
    values.write_text("".join(f"{x!r}\n" for x in xs))
    table = workdir / "values.csv"
    table.write_text("id,value\n" + "".join(f"{i},{x!r}\n" for i, x in enumerate(xs)))
    median = workdir / "median.txt"
    median.write_text("".join(f"{x!r}\n" for x in med))
    runs = [
        ["eval", "--family", "power", "--p", "1", "--input", str(values)],
        ["eval", "--family", "hamy", "--r", "4", "--input", str(table),
         "--column", "value"],
        ["eval", "--family", "median", "--kind", "lower", "--input", str(median)],
    ]
    ops = [_op("eval", fam, params, data, f"{path.name}, {len(data)} lines")
           for (fam, params), data, path in zip(CLI_SPECS, (xs, xs, med),
                                                (values, table, median))]
    return {"runs": runs}, ops, 2 * len(xs) + len(med)


def _shard_merge(rng, size, workdir):
    shard_sets = [[[uniform(rng) for _ in range(size["shard_len"])]
                   for _ in range(size["shards"])] for _ in SHARD_SPECS]
    ops = [_op("shards", fam, params, [x for sh in shards for x in sh],
               f"{len(shards)} shards x {size['shard_len']} values")
           for (fam, params), shards in zip(SHARD_SPECS, shard_sets)]
    elements = len(SHARD_SPECS) * size["shards"] * size["shard_len"]
    return {"specs": SHARD_SPECS, "shards": shard_sets}, ops, elements


def _small_streams(rng, size, workdir):
    # The log-uniform half is where the known defect shows (see
    # NEWTON_FAMILIES).  It is drawn from a fixed seed, so every run, on any
    # --seed, meets the same failing streams and counts the same failures;
    # the seed draws the uniform half.
    panel = random.Random("small_streams:log-uniform")
    streams, ops = [], []
    for i in range(size["streams"]):
        k, j = i % len(STREAM_SPECS), i // len(STREAM_SPECS)
        family, params = STREAM_SPECS[k]
        # lengths 2..32 and the two value distributions cycle through every
        # family alike, so every seed does the same amount of work
        draw, source = (uniform, rng) if j % 2 == 0 else (log_uniform, panel)
        xs = [draw(source) for _ in range(2 + j % 31)]
        streams.append([k, xs])
        ops.append(_op(f"stream {i}", family, params, xs, xs,
                       exempt=family in NEWTON_FAMILIES))
    elements = sum(len(xs) for _, xs in streams)
    return {"specs": STREAM_SPECS, "streams": streams}, ops, elements


GENERATORS = {"cli_eval": _cli_eval, "shard_merge": _shard_merge,
              "small_streams": _small_streams}
SETUP_SPECS = {"cli_eval": CLI_SPECS, "shard_merge": SHARD_SPECS,
               "small_streams": STREAM_SPECS}


def prepare(workload: str, size_name: str, seed: int, workdir: Path) -> None:
    """Write inputs.json (all the program sees) and reference.json (the ops
    with their references, for the harness) to workdir, unless cached.

    reference.json is written last, so a cut-short preparation is redone
    rather than reused.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if (workdir / "reference.json").exists():
        return
    rng = random.Random(f"{workload}:{seed}")
    inputs, ops, elements = GENERATORS[workload](rng, SIZES[size_name], workdir)
    (workdir / "inputs.json").write_text(json.dumps({"workload": workload, **inputs}))
    tmp = workdir / "reference.json.tmp"
    tmp.write_text(json.dumps({"ops": ops, "elements": elements}))
    tmp.replace(workdir / "reference.json")


def load(workdir: Path):
    """(inputs path, ops, elements per round) of a prepared workdir."""
    ref = json.loads((workdir / "reference.json").read_text())
    return workdir / "inputs.json", ref["ops"], ref["elements"]


if __name__ == "__main__":
    import sys
    prepare(sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))

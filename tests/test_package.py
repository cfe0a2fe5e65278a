"""The package surface: every exported name resolves, every demo runs, and
numpy loads only for batches."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanstream as ms

ROOT = Path(__file__).resolve().parent.parent

# one spec per built-in family and branch, with two inputs in its domain
BUILT_IN = [
    ("power", {"p": 1.0}), ("power", {"p": 0.0}),
    ("quasiarithmetic", {"f": "ln"}), ("gini", {"p": 2.0, "q": 1.0}),
    ("gini", {"p": 3.0, "q": 3.0}),
    ("bajraktarevic", {"f": "power:2", "g": "identity"}),
    ("bajraktarevic", {"f": "ln", "g": "one"}), ("hamy", {"r": 3}),
    ("sympoly", {"r": 2}), ("biplanar", {"p": 2.0, "q": 3.0, "c": 3, "d": 3}),
    ("biplanar", {"p": 0.0, "q": 1.0, "c": 1, "d": 2}),
    ("median", {"kind": "lower"}), ("piecewise_h", {}),
    ("cube_over_square", {}),
]

NUMPY_PROBE = """
import sys
import meanstream as ms
from meanstream import cli

def loaded(step):
    if "numpy" in sys.modules:
        raise SystemExit(f"numpy loaded by {step}")

loaded("import meanstream")
for i, (family, params) in enumerate(SPECS):
    d = ms.descriptor_from_params(family, params)
    a = ms.absorb(ms.init(d), 3.25)
    b = ms.parse_state(ms.serialize_state(ms.absorb(ms.init(d), 3.5)))
    ms.finalize(ms.merge(a, b))
    loaded(f"the {family} {params} pass")
    with open(f"{i}.json", "wb") as fh:
        fh.write(ms.serialize_state(a))
assert cli.main(["classify", "--family", "hamy", "--r", "3"]) == 0
loaded("cli classify")
assert cli.main(["merge", "--out", "merged.json", "0.json", "0.json"]) == 0
loaded("cli merge")
ms.absorb_many(ms.init(ms.power_mean(1.0)), [1.0, 2.0])
print("numpy" in sys.modules)
"""


def src_env() -> dict:
    """The environment with src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_all_names_resolve():
    missing = [name for name in ms.__all__ if not hasattr(ms, name)]
    assert missing == []


@pytest.mark.parametrize("demo", [
    "01_streaming_means", "02_sharded_merge", "03_property_checks",
    "04_state_complexity"])
def test_demo_exits_zero(demo):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=src_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_numpy_loads_only_for_batches(tmp_path):
    probe = f"SPECS = {BUILT_IN!r}\n{NUMPY_PROBE}"
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "True"  # absorb_many loads it

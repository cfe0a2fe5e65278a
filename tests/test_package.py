"""The package surface: every exported name resolves and every demo runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanstream as ms

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve():
    missing = [name for name in ms.__all__ if not hasattr(ms, name)]
    assert missing == []


@pytest.mark.parametrize("demo", [
    "01_streaming_means", "02_sharded_merge", "03_property_checks",
    "04_state_complexity"])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr

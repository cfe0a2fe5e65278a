"""Smoke test of the benchmark: every workload on a tiny input, both modes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the correctness path ran, and that the benchmark refuses to produce a
result without the program's sources.  It has no timing gate.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# report-only metrics the run prints beside the gated ones, per workload
REPORTED = {
    "cli_eval": {"digits_min", "wrong_share", "failed_share"},
    "shard_merge": {"digits_min", "wrong_share", "failed_share", "coord_ms"},
    "small_streams": {"digits_min", "wrong_share", "failed_share",
                      "streams_per_s", "stream_us_p50", "stream_us_p99",
                      "stream_samples"},
}


def bench(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))

    assert report["workload"] == workload and report["seed"] == 3
    assert {"nproc", "python", "numpy"} <= set(report)
    if not trace:
        assert REPORTED[workload] <= set(report["metrics"])
        for m in report["metrics"].values():
            assert m["unit"] and m["better"] in ("higher", "lower")


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "shard_merge", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""meanstream benchmark: three closed-loop batch workloads, one client each.

    python3 bench/run.py --workload {cli_eval,shard_merge,small_streams,all}
                         --seed N --seconds S --trace {0,1} [--size smoke]

Run from the root of a checkout.  Inputs are generated from the seed (and
cached under .bench_work/) before any timing starts.  The program runs in
child processes, one at a time and all on one CPU: `meanstream eval` for
cli_eval, bench/job.py for the rest and for every traced run.  Every outcome
is checked against an exact reference.  Times are divided by the host speed
factor measured alongside them (see hostspeed.py).

Output: a report line (every named metric with unit and direction, sample
counts, failure witnesses, seed, nproc and versions), then, as the last
line, {"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from job import percentile  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
JOB = BENCH_DIR / "job.py"
REL_TOL = 1e-9
CHILD_TIMEOUT_S = 150
PROBES_PER_GAP = 200  # host speed probes between two child processes


def mb(maxrss_kib: int) -> float:
    return maxrss_kib * 1024 / 1e6


class Harness:
    def __init__(self, root: Path, size: str):
        self.root = root
        self.size = size
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = root / ".bench_work"

    def child(self, argv, name: str):
        """Run one child to completion: (exit code, stdout, stderr, wall s,
        peak RSS MB).  os.wait4 gives this child's own ru_maxrss, where
        RUSAGE_CHILDREN would keep a maximum over every child so far."""
        out_path = self.work / f"{name}.out"
        err_path = self.work / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_text(), err_path.read_text(),
                wall, mb(usage.ru_maxrss))

    def setup_probes(self, workload: str, count: int, speed: HostSpeed) -> list:
        """Seconds to import meanstream and build the workload's descriptors,
        each in a fresh interpreter, with host speed probes around each."""
        # a bare interpreter, so the stdlib modules meanstream imports are
        # paid for inside the timed region, as a user pays for them
        probe = ("import time\nstart = time.perf_counter()\nimport meanstream\n"
                 f"for family, params in {workloads.SETUP_SPECS[workload]!r}:\n"
                 "    meanstream.descriptor_from_params(family, params)\n"
                 "print(time.perf_counter() - start)\n")
        times = []
        for _ in range(count):
            speed.probe(PROBES_PER_GAP)
            code, out, err, _, _ = self.child(["-c", probe], "setup")
            if code != 0:
                raise RuntimeError(f"setup probe failed: {err.strip()}")
            times.append(float(out))
        speed.probe(PROBES_PER_GAP)
        return times

    def job(self, inputs_path: Path, seconds: float, trace: bool):
        code, out, err, _, rss = self.child(
            [str(JOB), str(inputs_path), str(seconds), str(int(trace))],
            "job")
        if code != 0:
            raise RuntimeError(f"job exited {code}: {err.strip()[-2000:]}")
        return json.loads(out.splitlines()[-1]), rss

    def cli_rounds(self, inputs_path: Path, seconds: float):
        """`meanstream eval` child processes, one after another, with host
        speed probes between them; shaped like a job result."""
        runs = json.loads(inputs_path.read_text())["runs"]
        speed = HostSpeed()
        rounds, rss, walls = [], [], []
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < seconds:
            got = []
            for argv in runs:
                speed.probe(PROBES_PER_GAP)
                code, out, err, wall, peak = self.child(
                    ["-m", "meanstream.cli", *argv], "cli")
                got.append([code, out, err])
                walls.append(wall)
                rss.append(peak)
            rounds.append(got)
        speed.probe(PROBES_PER_GAP)
        first = rounds[0]
        return {"rounds": len(rounds), "first": first,
                "diverged": [[r, i, got] for r, outcomes in enumerate(rounds)
                             for i, got in enumerate(outcomes) if got != first[i]],
                "phase_s": {"cli": sum(walls)}, "speed_factor": speed.factor,
                "child_wall_s": walls, "child_rss_mb": rss}


# ---------------------------------------------------------------------------
# correctness

def judge(outcome, op) -> tuple:
    """('ok', digits) | ('raised', what) | ('wrong', digits)."""
    if isinstance(outcome, list):
        if len(outcome) == 3:  # cli: [exit code, stdout, stderr]
            code, out, err = outcome
            try:
                value = float(out.strip())
            except ValueError:
                return "raised", f"exit {code}: {err.strip()[-200:] or out[:200]!r}"
            if code != 0:
                return "raised", f"exit {code}: {err.strip()[-200:]}"
        else:
            return "raised", f"{outcome[0]}: {outcome[1]}"
    else:
        value = outcome
    ref = op["ref"]
    rel = abs(value - ref) / ref  # every mean here is positive
    if rel == 0:
        digits = 16.0
    elif math.isfinite(rel):
        digits = min(max(-math.log10(rel), 0.0), 16.0)
    else:
        digits = 0.0
    in_range = op["lo"] <= value <= op["hi"]
    if rel > REL_TOL or not in_range:
        return "wrong", digits
    return "ok", digits


def check(result, ops) -> dict:
    """Every op against its reference.  Rounds repeat the same inputs, so an
    op is attempted once however many rounds fit the run: it is judged on
    each distinct outcome its rounds gave, and fails when one of them raised
    or was wrong.  `attempted` and `failed` therefore do not depend on the
    host's speed.  Only failures of known-defect ops (small_streams
    Newton-identity families) leave `correct` true."""
    outcomes = [[got] for got in result["first"]]
    for _, i, got in result["diverged"]:
        if got not in outcomes[i]:
            outcomes[i].append(got)
    raised = wrong = unexpected = 0
    digits_min = 16.0
    witnesses = []
    for op, got in zip(ops, outcomes):
        failure = None
        for outcome in got:
            kind, detail = judge(outcome, op)
            if kind != "raised":
                digits_min = min(digits_min, detail)
            if kind != "ok" and (failure is None or kind == "raised"):
                failure = kind, detail, outcome
        if failure is None:
            continue
        kind, detail, outcome = failure
        raised += kind == "raised"
        wrong += kind == "wrong"
        unexpected += not op["exempt"]
        witnesses.append({
            "op": op["name"], "kind": kind,
            "what": detail if kind == "raised" else
            f"got {outcome!r}, exact {op['ref']!r}, range [{op['lo']!r}, {op['hi']!r}]",
            "witness": op["witness"]})
    attempted = len(outcomes)
    return {"correct": attempted == len(ops) and unexpected == 0 and attempted > 0,
            "attempted": attempted, "raised": raised, "wrong": wrong,
            "digits_min": digits_min, "witnesses": witnesses}


def failure_groups(witnesses) -> list:
    """Failures grouped by family and exception type, with the first witness."""
    groups = {}
    for w in witnesses:
        family = w["op"].split()[-1]
        what = w["what"].split(":")[0] if w["kind"] == "raised" else "wrong"
        key = (family, what)
        if key not in groups:
            groups[key] = {"family": family, "failure": what, "count": 0,
                           "first": w}
        groups[key]["count"] += 1
    return list(groups.values())


# ---------------------------------------------------------------------------
# metrics

def metric(value, unit, better) -> dict:
    return {"value": value, "unit": unit, "better": better}


def end_to_end(workload, result, rss, elements, setup, checked) -> dict:
    """Times are per round, divided by the run's host speed factor (see
    hostspeed.py); the report keeps the undivided figures beside them."""
    rounds, factor = result["rounds"], result["speed_factor"]
    phase = {k: v / rounds / factor for k, v in result["phase_s"].items()}
    if workload == "cli_eval":
        rss = max(result["child_rss_mb"])
    n = checked["attempted"]
    m = {
        "setup_s": metric(setup, "s", "lower"),
        "elems_per_s": metric(elements / sum(phase.values()), "1/s", "higher"),
        "peak_rss_mb": metric(rss, "MB", "lower"),
        "digits_min": metric(checked["digits_min"], "digits", "higher"),
        "wrong_share": metric(checked["wrong"] / n, "share", "lower"),
        "failed_share": metric(checked["raised"] / n, "share", "lower"),
    }
    if workload == "shard_merge":
        m["coord_ms"] = metric(1e3 * phase["coordinator"], "ms", "lower")
    if workload == "small_streams":
        per_stream = sorted(t / rounds / factor for t in result["stream_s"])
        m["streams_per_s"] = metric(len(per_stream) / phase["streams"], "1/s", "higher")
        m["stream_us_p50"] = metric(1e6 * percentile(per_stream, 50), "us", "lower")
        m["stream_us_p99"] = metric(1e6 * percentile(per_stream, 99), "us", "lower")
        m["stream_samples"] = metric(len(per_stream), "count", "higher")
    m["host_speed_factor"] = metric(factor, "x", "lower")
    m["elems_per_s_undivided"] = metric(
        m["elems_per_s"]["value"] / factor, "1/s", "higher")
    return m


def per_layer(result) -> dict:
    """Per-round span totals of the traced rounds; a layer a workload does
    not reach reads 0."""
    tr = result["trace"]
    rounds = len(result["round_wall_s"])
    calls = Counter({k: v // rounds for k, v in tr["calls"].items()})
    self_s = Counter({k: v / 1e9 / rounds for k, v in tr["self_ns"].items()})
    failed = Counter({k: v // rounds for k, v in tr["failed"].items()})
    p50 = {k: v["p50_ns"] for k, v in tr["percentiles"].items()}
    traced = statistics.median(result["round_wall_s"])
    untraced = result["untraced_wall_s"]
    return {
        "absorb.calls": metric(calls["absorb"] + calls["absorb.median"], "count", "lower"),
        "absorb.self_s": metric(self_s["absorb"] + self_s["absorb.median"], "s", "lower"),
        "absorb.ns_p50": metric(p50["absorb"], "ns", "lower"),
        "absorb.median.ns_p50": metric(p50["absorb.median"], "ns", "lower"),
        "finalize.calls": metric(calls["finalize"], "count", "lower"),
        "finalize.self_s": metric(self_s["finalize"], "s", "lower"),
        "finalize.us_p50": metric(p50["finalize"] / 1e3, "us", "lower"),
        "finalize.us_p99": metric(tr["percentiles"]["finalize"]["p99_ns"] / 1e3,
                                  "us", "lower"),
        "finalize.failed": metric(failed["finalize"], "count", "lower"),
        "sigma_from_power.calls": metric(calls["sigma_from_power"], "count", "lower"),
        "sigma_from_power.self_s": metric(self_s["sigma_from_power"], "s", "lower"),
        "merge.calls": metric(calls["merge"], "count", "lower"),
        "merge.self_s": metric(self_s["merge"], "s", "lower"),
        "merge.us_p50": metric(p50["merge"] / 1e3, "us", "lower"),
        "serialize.calls": metric(calls["serialize"], "count", "lower"),
        "serialize.self_s": metric(self_s["serialize"], "s", "lower"),
        "serialize.bytes_mean": metric(result["blob_bytes_mean"], "B", "lower"),
        "parse.calls": metric(calls["parse"], "count", "lower"),
        "parse.self_s": metric(self_s["parse"], "s", "lower"),
        "parse.us_p50": metric(p50["parse"] / 1e3, "us", "lower"),
        "parse.failed": metric(failed["parse"], "count", "lower"),
        "descriptor.calls": metric(calls["descriptor"], "count", "lower"),
        "descriptor.self_s": metric(self_s["descriptor"], "s", "lower"),
        # cli.main minus its library spans: argument parsing, reading the
        # input, init and printing; reading is nearly all of it
        "cli.read_self_s": metric(self_s["cli.main"], "s", "lower"),
        "trace.traced_round_s": metric(traced, "s", "lower"),
        "trace.untraced_round_s": metric(untraced, "s", "lower"),
        "trace.overhead_share": metric(traced / untraced - 1, "share", "lower"),
    }


def run_workload(h: Harness, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
    workdir = h.work / f"{workload}-{h.size}-{seed}"
    # Generating holds every input in memory, so it runs in a child: a
    # child's ru_maxrss starts at its parent's peak RSS, and this process
    # must stay below the peak of every program process it measures.
    code, _, err, _, _ = h.child([str(BENCH_DIR / "workloads.py"), workload,
                                  h.size, str(seed), str(workdir)], "prepare")
    if code != 0:
        raise RuntimeError(f"preparing inputs failed: {err.strip()[-2000:]}")
    inputs_path, ops, elements = workloads.load(workdir)
    # Set-up is probed before and after the timed rounds, so one slow
    # stretch of the host does not decide it.  The first probe writes the
    # bytecode cache and is discarded.
    repeats = workloads.SIZES[h.size]["setup_repeats"]
    setup_speed = HostSpeed()
    probes = [] if trace else h.setup_probes(workload, 1 + (repeats + 1) // 2,
                                             setup_speed)[1:]
    if workload == "cli_eval" and not trace:
        result, rss = h.cli_rounds(inputs_path, seconds), None
    else:
        result, rss = h.job(inputs_path, seconds, trace)
    if not trace:
        probes += h.setup_probes(workload, repeats // 2, setup_speed)
    setup = statistics.median(probes) / setup_speed.factor if probes else None
    checked = check(result, ops)
    if trace:
        named = metrics = per_layer(result)
    else:
        named = end_to_end(workload, result, rss, elements, setup, checked)
        metrics = {k: named[k] for k in ("setup_s", "elems_per_s", "peak_rss_mb")}
    report = {
        "workload": workload, "seed": seed, "size": h.size, "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "rounds": result["rounds"], "elements_per_round": elements,
        "metrics": named,
        "failures": failure_groups(checked["witnesses"]),
    }
    if workload == "cli_eval" and not trace:
        runs = json.loads(inputs_path.read_text())["runs"]
        report["children"] = [
            {"argv": argv[:5],
             "wall_s": statistics.median(result["child_wall_s"][i::len(runs)]),
             "peak_rss_mb": max(result["child_rss_mb"][i::len(runs)])}
            for i, argv in enumerate(runs)]
    if trace:
        report["trace_edges"] = result["trace"]["edges"]
    (workdir / f"failures-trace{int(trace)}.json").write_text(
        json.dumps(checked["witnesses"], indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checked["correct"], "attempted": checked["attempted"],
        "failed": checked["raised"] + checked["wrong"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "meanstream" / "__init__.py").is_file():
        print(f"error: {root} has no src/meanstream; run from a checkout root",
              file=sys.stderr)
        return 2

    def timeout(signum, frame):
        raise TimeoutError(f"child ran longer than {CHILD_TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, timeout)
    # One CPU for the harness and every child it starts (children inherit
    # the mask), so the host speed probes time the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    h = Harness(root, args.size)
    h.work.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(h, name, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

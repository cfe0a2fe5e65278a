"""Program side of the benchmark: runs one workload against meanstream.

run.py starts it with PYTHONPATH set to the checkout's src/, one process
at a time:

    job.py INPUTS_JSON SECONDS TRACE

runs rounds of the workload until SECONDS have passed (at least one) and
prints one JSON object with the time per phase, the host speed factor, the
outcomes and, when TRACE is 1, per-layer aggregates.

The job sees only the generated inputs, never the reference values.  An
outcome is the finalized float, or [exception type, message] when the
library raised; for cli_eval it is [exit code, stdout, stderr].
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from array import array
from collections import Counter

from hostspeed import HostSpeed

# layer -> the (module, attribute) names callers look the layer up through;
# cli imports the core functions by name, so it needs shims of its own.
LAYERS = {
    "absorb": [("core", "absorb"), ("cli", "absorb")],
    "finalize": [("core", "finalize"), ("cli", "finalize")],
    "merge": [("core", "merge"), ("cli", "merge")],
    "serialize": [("core", "serialize_state"), ("cli", "serialize_state")],
    "parse": [("core", "parse_state"), ("cli", "parse_state")],
    "descriptor": [("families", "descriptor_from_params")],
    "sigma_from_power": [("families", "sigma_from_power")],
}
# spans whose per-call durations are kept for percentiles
PERCENTILE_SPANS = ("absorb", "absorb.median", "finalize", "merge", "parse")


def percentile(sorted_values, q: float):
    """Nearest-rank q-th percentile of an ascending sequence."""
    if not sorted_values:
        return 0
    return sorted_values[max(math.ceil(q / 100 * len(sorted_values)) - 1, 0)]


class Tracer:
    """Spans recorded by timing shims around the library's public functions.

    A span is (name code, parent span, start, end) in flat arrays, so a round
    of half a million absorb calls stays small; ``collect`` folds one round
    into per-layer totals.  Self time is a span's duration minus the
    durations of its child spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self.code = array("B")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.failed: Counter = Counter()
        self.edges: Counter = Counter()
        self.durations = {name: array("q") for name in PERCENTILE_SPANS}

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """A shim recording one span per call of fn.  Absorb calls on median
        states are recorded as absorb.median: that path is O(n) per call."""
        code = self._code(name)
        median = self._code("absorb.median") if name == "absorb" else None
        codes, parents, starts, ends = self.code, self.parent, self.start, self.end
        stack, failed, clock = self.stack, self.failed, time.perf_counter_ns

        def shim(*args, **kwargs):
            i = len(starts)
            if median is not None and args[0].descriptor.family == "median":
                codes.append(median)
            else:
                codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed[name] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return shim

    def install(self, modules: dict) -> None:
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                original = getattr(modules[module], attr)
                setattr(modules[module], attr, self.wrap(layer, original))

    def collect(self) -> None:
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        names = self.names
        for i, (c, p) in enumerate(zip(self.code, self.parent)):
            name = names[c]
            self.calls[name] += 1
            self.self_ns[name] += dur[i] - child[i]
            self.edges[(names[self.code[p]] if p >= 0 else "-", name)] += 1
            if name in self.durations:
                self.durations[name].append(dur[i])
        for a in (self.code, self.parent, self.start, self.end):
            del a[:]

    def summary(self) -> dict:
        pct = {}
        for name, values in self.durations.items():
            ordered = sorted(values)
            pct[name] = {"p50_ns": percentile(ordered, 50),
                         "p99_ns": percentile(ordered, 99), "n": len(ordered)}
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "failed": dict(self.failed), "percentiles": pct,
                "edges": sorted([p, c, k] for (p, c), k in self.edges.items())}


def _raised(e: Exception) -> list:
    return [type(e).__name__, str(e)[:200]]


def cli_round(job):
    """One in-process `meanstream eval` per run (traced runs only)."""
    outcomes = []
    for argv in job.inputs["runs"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.tracer:
                code = job.tracer.wrap("cli.main", job.ms.cli.main)(argv)
            else:
                code = job.ms.cli.main(argv)
        job.spent("cli", t0)
        outcomes.append([code, out.getvalue(), err.getvalue()])
    return outcomes


def shard_round(job):
    """Workers: init/absorb/serialize per shard.  Coordinator: parse every
    blob, merge in a balanced pairwise tree, finalize."""
    core = job.ms.core
    init, absorb, serialize = core.init, core.absorb, core.serialize_state
    parse, merge, finalize = core.parse_state, core.merge, core.finalize
    clock, spent = time.perf_counter, job.spent
    outcomes, sizes = [], []
    for d, shards in zip(job.descriptors, job.inputs["shards"]):
        blobs = []
        try:
            for shard in shards:
                t0 = clock()
                s = init(d)
                for x in shard:
                    s = absorb(s, x)
                blobs.append(serialize(s))
                spent("workers", t0)
            states = []
            for blob in blobs:
                t0 = clock()
                states.append(parse(blob))
                spent("coordinator", t0)
            while len(states) > 1:
                paired = []
                for j in range(0, len(states) - 1, 2):
                    t0 = clock()
                    paired.append(merge(states[j], states[j + 1]))
                    spent("coordinator", t0)
                if len(states) % 2:
                    paired.append(states[-1])
                states = paired
            t0 = clock()
            outcomes.append(finalize(states[0]))
            spent("coordinator", t0)
        except Exception as e:
            outcomes.append(_raised(e))
        sizes += [len(b) for b in blobs]
    job.blob_bytes = sum(sizes) / max(len(sizes), 1)
    return outcomes


def stream_round(job):
    """init + absorb x n + finalize per stream, each stream timed alone."""
    core = job.ms.core
    init, absorb, finalize = core.init, core.absorb, core.finalize
    clock, spent, stream_s = time.perf_counter, job.spent, job.stream_s
    outcomes = []
    for i, (k, xs) in enumerate(job.inputs["streams"]):
        d = job.descriptors[k]
        t0 = clock()
        try:
            s = init(d)
            for x in xs:
                s = absorb(s, x)
            outcomes.append(finalize(s))
        except Exception as e:
            outcomes.append(_raised(e))
        stream_s[i] += spent("streams", t0)
    return outcomes


ROUNDS = {"cli_eval": cli_round, "shard_merge": shard_round,
          "small_streams": stream_round}
PROBE_EVERY_S = 0.01


class Job:
    """The program under test plus what one run has measured so far.

    Work is timed per unit (a run, a shard's worker, a parse, a merge, a
    finalize, a stream) and summed per phase; a host speed probe runs between
    units every PROBE_EVERY_S, outside the units' time.  Rounds repeat the
    same inputs, so only the first round's outcomes are kept in full and a
    later one only where it differs: memory does not grow with the number
    of rounds, and peak RSS is the workload's own.
    """

    def __init__(self, inputs: dict):
        import meanstream
        import meanstream.cli  # noqa: F401  (makes meanstream.cli available)
        self.ms = meanstream
        self.inputs = inputs
        self.descriptors = [meanstream.descriptor_from_params(f, p)
                            for f, p in inputs.get("specs", [])]
        self.tracer = None
        self.speed = HostSpeed()
        self.next_probe = 0.0
        self.phase_s = Counter()
        self.stream_s = [0.0] * len(inputs.get("streams", []))
        self.blob_bytes = 0.0
        self.first = None
        self.diverged = []
        self.rounds = 0

    def spent(self, phase: str, t0: float) -> float:
        now = time.perf_counter()
        self.phase_s[phase] += now - t0
        if now >= self.next_probe:
            self.speed.probe()
            self.next_probe = time.perf_counter() + PROBE_EVERY_S
        return now - t0

    def round(self) -> float:
        start = time.perf_counter()
        outcomes = ROUNDS[self.inputs["workload"]](self)
        wall = time.perf_counter() - start
        if self.first is None:
            self.first = outcomes
        else:
            self.diverged += [[self.rounds, i, got] for i, (got, want)
                              in enumerate(zip(outcomes, self.first)) if got != want]
        self.rounds += 1
        return wall


def run(inputs_path: str, seconds: float, trace: bool) -> None:
    with open(inputs_path) as fh:
        job = Job(json.load(fh))
    untraced = None
    if trace:
        # one untraced round in this same process, for the tracing overhead
        untraced = job.round()
        job.tracer = Tracer()
        job.tracer.install({"core": job.ms.core, "cli": job.ms.cli,
                            "families": job.ms.families})
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        walls.append(job.round())
        if job.tracer:
            job.tracer.collect()
    print(json.dumps({
        "rounds": job.rounds, "first": job.first, "diverged": job.diverged,
        "phase_s": job.phase_s, "speed_factor": job.speed.factor,
        "stream_s": job.stream_s, "blob_bytes_mean": job.blob_bytes,
        "round_wall_s": walls, "untraced_wall_s": untraced,
        "trace": job.tracer.summary() if job.tracer else None,
    }))


if __name__ == "__main__":
    run(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1")

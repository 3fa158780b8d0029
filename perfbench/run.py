"""Benchmark of the tropicurve pipelines and kernels.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tate-leaf --seed 0 --seconds 30 --trace 0

Runs one workload (see ``perfbench/README.md``) in this process with one
thread, for whole passes over its inputs until ``--seconds`` have elapsed.
Every output is re-certified outside the timed region.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the details
(tail percentile, per-operation medians, output sizes, outcomes by error
type).  Everything is also written to ``.perfbench/`` at the repository
root, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 20
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# Set-up as a child process sees it: import the library and build the
# corpus.  Interpreter start-up is outside the measured interval.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


class SetupProbes:
    """`SETUP_PROBES` set-up samples, each in a fresh process, spread over
    the run so that one slow moment of the machine does not set them all."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)]
        self.interval = seconds / SETUP_PROBES
        self.start = time.perf_counter()
        self.samples: list[float] = []

    def _probe(self):
        proc = subprocess.run(
            self.args, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        self.samples.append(float(proc.stdout.strip().splitlines()[-1]))

    def between_passes(self):
        """Take the next sample if its share of the run has elapsed."""
        due = self.start + len(self.samples) * self.interval
        if len(self.samples) < SETUP_PROBES and time.perf_counter() >= due:
            self._probe()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return self.samples


def tail(times: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "samples": n}
    return None


class Tally:
    """Outcomes of the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.certified = 0
        self.wrong = 0
        self.raised: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self.times: dict[str, list[float]] = {}
        self.pass_times: list[float] = []
        self.outcomes: dict[str, str] = {}  # op name -> last outcome

    @property
    def failed(self) -> int:
        return self.wrong + sum(self.raised.values())

    def record(self, op, output, error, seconds=None):
        """Re-certify `output` and count the outcome."""
        self.attempted += 1
        if seconds is not None:
            self.times.setdefault(op.name, []).append(seconds)
        if error is not None:
            name = type(error).__name__
            self.raised[name] = self.raised.get(name, 0) + 1
            self.outcomes[op.name] = name
            return
        ok, sizes = op.certify(output)
        if not ok:
            self.wrong += 1
            self.outcomes[op.name] = "wrong"
            return
        self.certified += 1
        self.outcomes[op.name] = "certified"
        for key, value in sizes.items():
            self.sizes[key] = self.sizes.get(key, 0) + value

    def all_times(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]


def call(op):
    """Run one operation; a raised error is an outcome, not a crash."""
    try:
        return op.run(), None
    except Exception as exc:  # counted by type; the run goes on
        return None, exc


def timed(op):
    t0 = time.perf_counter()
    output, error = call(op)
    return output, error, time.perf_counter() - t0


def run_untraced(workload, seconds: float, probes: SetupProbes):
    tally = Tally()
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        probes.between_passes()
        pass_time = 0.0
        for op in workload.ops:
            output, error, dt = timed(op)
            tally.record(op, output, error, dt)
            pass_time += dt
        tally.pass_times.append(pass_time)
        passes += 1
    return tally, passes


def run_traced(workload, seconds: float, probes: SetupProbes):
    """Each operation runs once untraced and once traced, in alternating
    order, so the tracing overhead is measured on the same inputs."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    passes = 0
    op_id = 0
    while passes == 0 or time.perf_counter() < deadline:
        probes.between_passes()
        for op in workload.ops:
            for traced_mode in ((False, True) if op_id % 2 == 0 else (True, False)):
                if traced_mode:
                    with tracer.op(op_id, f"op.{op.name}") as root:
                        output, error = call(op)
                    traced.record(op, output, error, root[2] - root[1])
                else:
                    plain.record(op, *timed(op))
            op_id += 1
        passes += 1
    return tracer, plain, traced, passes


def sweep(workload) -> Tally:
    tally = Tally()
    for op in workload.sweep:
        output, error = call(op)
        tally.record(op, output, error)
    return tally


def per_layer(names, tracer, plain: Tally, traced: Tally, passes: int, swept: Tally) -> dict:
    """Per-layer metrics: span and size figures per pass over the workload's
    inputs, outcome counts per run."""
    from tracing import layer_totals

    values = dict.fromkeys(names, 0)
    totals = layer_totals(tracer.spans)
    for layer, row in totals.items():
        for key, value in row.items():
            if f"{layer}.{key}" in values:
                values[f"{layer}.{key}"] = value / passes
    calls = totals.get("tropicalize.tropicalize", {}).get("calls", 0)
    if calls:
        values["tropicalize.tropicalize.repeat_ratio"] = (
            tracer.counters.get("tropicalize.tropicalize.repeats", 0) / calls
        )
    values["linalg.solve_linear.cells"] = (
        tracer.counters.get("linalg.solve_linear.cells", 0) / passes
    )
    for key, value in traced.sizes.items():
        values[key] = value / passes
    values["trace.overhead_s"] = statistics.median(traced.all_times()) - statistics.median(
        plain.all_times()
    )
    values["sweep.attempted"] = swept.attempted
    values["sweep.certified"] = swept.certified
    values["ops.wrong"] = plain.wrong + traced.wrong + swept.wrong
    for tally in (plain, traced, swept):
        for key, value in tally.raised.items():
            metric = f"ops.fail.{key}"
            values[metric if metric in values else "ops.fail.other"] += value
    return {name: values[name] for name in names}


def detail(tally: Tally, passes: int, swept: Tally, setup: list[float]) -> dict:
    """What the metrics summarise: tail, per-op medians, sizes, outcomes."""
    outcomes = {**tally.outcomes, **swept.outcomes}
    inputs: dict[str, dict[str, int]] = {}
    for name, outcome in outcomes.items():
        group = inputs.setdefault(name.split(".")[0], {"certified": 0, "total": 0})
        group["total"] += 1
        group["certified"] += outcome == "certified"
    return {
        "passes": passes,
        "op_s.tail": tail(tally.all_times()),
        "op_s.p50_by_op": {k: statistics.median(v) for k, v in sorted(tally.times.items())},
        "sizes_per_pass": {k: v / passes for k, v in sorted(tally.sizes.items())},
        "inputs_certified": inputs,
        "ops": {"attempted": tally.attempted, "wrong": tally.wrong, "raised": tally.raised},
        "sweep": {k: v for k, v in sorted(swept.outcomes.items())},
        "setup_s.samples": setup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropicurve" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    probes = SetupProbes(args.workload, args.seed, args.seconds)
    workload = workloads.build(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        tracer, plain, tally, passes = run_traced(workload, args.seconds, probes)
        timed_tallies = (plain, tally)
        swept = sweep(workload)
        setup = probes.finish()
        declared = spec["per_layer"]
        metrics = per_layer([m["name"] for m in declared], tracer, plain, tally, passes, swept)
        record["spans"] = tracer.spans
    else:
        tally, passes = run_untraced(workload, args.seconds, probes)
        timed_tallies = (tally,)
        swept = sweep(workload)
        setup = probes.finish()
        declared = spec["end_to_end"]
        metrics = {
            "op_s.p50": statistics.median(tally.all_times()),
            "pass_s.p50": statistics.median(tally.pass_times),
            "certified_ratio": tally.certified / tally.attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = {m["name"]: m["unit"] for m in declared}
    result = {
        "correct": all(t.wrong == 0 for t in timed_tallies + (swept,)),
        "attempted": sum(t.attempted for t in timed_tallies),
        "failed": sum(t.failed for t in timed_tallies),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["detail"] = detail(tally, passes, swept, setup)
    record["op_s"] = tally.times
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print(json.dumps({"detail": record["detail"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

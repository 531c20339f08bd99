"""treeconn benchmark: seeded closed-loop workloads, one caller, one process.

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0

`--workload all` runs the four workloads in turn.  `--trace 0` times the
untraced operations and reports the end-to-end metrics; `--trace 1` runs
untraced for half the time, replays the same passes with every layer
traced (bench/tracer.py) and reports the per-layer metrics.  `--smoke`
runs one pass over small inputs.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from machine import Gauge
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("errors", "graphs", "connectivity", "bundles", "packing", "certificates", "cli")
GOLDENS = Path(__file__).with_name("goldens.json")
# Set-up (imports plus inputs) is repeated and its median reported.
SETUP_REPS = 5
# The seed whose certify-sweep documents bench/goldens.json pins.
DEFAULT_SEED = 1


def import_treeconn() -> SimpleNamespace:
    """A fresh import of every treeconn module from this checkout's src/."""
    for name in [m for m in sys.modules if m == "treeconn" or m.startswith("treeconn.")]:
        del sys.modules[name]
    tc = SimpleNamespace(**{m: importlib.import_module(f"treeconn.{m}") for m in MODULES})
    for mod in vars(tc).values():
        if ROOT / "src" not in Path(mod.__file__).resolve().parents:
            raise SystemExit(f"treeconn must come from {ROOT / 'src'}, found {mod.__file__}")
    return tc


def set_up(name: str, seed: int, smoke: bool, workdir: Path, gauge: Gauge | None = None):
    """Imports and builds the inputs `SETUP_REPS` times; returns the
    modules and operations of the last time and the seconds of each."""
    times = []
    for _ in range(1 if smoke else SETUP_REPS):
        if gauge is not None:
            gauge.mark(force=True)
        start = time.perf_counter()
        tc = import_treeconn()
        goldens = json.loads(GOLDENS.read_text())
        ops = workloads.WORKLOADS[name](tc, seed, smoke, workdir, goldens)
        times.append(time.perf_counter() - start)
    # Keep the collector from rescanning the inputs during the timed phase.
    gc.collect()
    gc.freeze()
    return tc, ops, times


class Tally:
    """Operations attempted and failed; a failure is a raise or a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def record(self, op: workloads.Op, problem: str | None, raised: bool = False) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if raised or op.known_defect is None:
            self.unexpected.append(f"{op.label}: {problem}")


def run_passes(ops, tally: Tally, seconds: float, passes: int | None = None, tracer=None, gauge=None):
    """Whole passes over `ops` until `seconds` have elapsed (or exactly
    `passes`); returns one list of operation latencies per pass.  Output
    checks and the gauge's reference run between operations and are not
    timed."""
    done: list[list[float]] = []
    start = time.perf_counter()
    while len(done) < (passes or 1) or (passes is None and time.perf_counter() - start < seconds):
        if tracer is not None:
            tracer.new_pass()
        latencies: list[float] = []
        done.append(latencies)
        for i, op in enumerate(ops):
            if gauge is not None:
                gauge.mark()
            if tracer is not None:
                tracer.op[0] = i
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raises is a failure; the loop goes on
                latencies.append(time.perf_counter() - t0)
                tally.record(op, f"raised {exc!r}", raised=True)
                continue
            latencies.append(time.perf_counter() - t0)
            tally.record(op, op.check(out))
    return done


def end_to_end(passes: list[list[float]], setup_s: float) -> dict[str, tuple[float, str]]:
    """Throughput is operations over operation time, for the whole run.
    Latency percentiles are taken over the operations, each at the median
    of its passes, so that a slow spell during a few passes does not move
    them."""
    per_op = [statistics.median(runs) for runs in zip(*passes)]
    p90 = statistics.quantiles(per_op, n=10)[-1] if len(per_op) > 1 else per_op[0]
    return {
        "ops_per_s": (sum(map(len, passes)) / sum(map(sum, passes)), "1/s"),
        "op_ms_p50": (statistics.median(per_op) * 1e3, "ms"),
        "op_ms_p90": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(name: str, args, workdir: Path) -> tuple[Tally, dict, dict]:
    gauge = None if args.trace else Gauge()
    tc, ops, setup_times = set_up(name, args.seed, args.smoke, workdir, gauge)
    tally = Tally()
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(ops, tally, seconds, 1 if args.smoke else None, gauge=gauge)
    samples = {"ops_per_pass": len(ops), "passes": len(passes), "ops_timed": len(ops) * len(passes)}
    if not args.trace:
        # Every timing at the nominal machine's speed (bench/machine.py).
        scales = iter(gauge.scales())
        setup_s = statistics.median(t * next(scales) for t in setup_times)
        metrics = end_to_end([[t * next(scales) for t in p] for p in passes], setup_s)
        samples["reference_ms"] = statistics.median(gauge.samples) * 1e3
        samples["reference_samples"] = len(gauge.samples)
        unscaled = end_to_end(passes, statistics.median(setup_times))
        samples["unscaled"] = {k: v for k, (v, _) in unscaled.items() if k != "peak_rss_mb"}
    else:
        tracer = Tracer(tc)
        tracer.install()
        try:
            traced = run_passes(ops, tally, 0, len(passes), tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(passes))
        metrics["trace.overhead_frac"] = (sum(map(sum, traced)) / sum(map(sum, passes)) - 1, "ratio")
        if args.spans:
            args.spans.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(args.spans / f"spans-{name}.jsonl")
    return tally, metrics, samples


def git_commit() -> str:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass over small inputs")
    parser.add_argument("--spans", type=Path, help="directory for the traced spans (JSON lines)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        for name in names:
            with tempfile.TemporaryDirectory(dir=scratch) as workdir:
                results[name] = run_workload(name, args, Path(workdir))
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass

    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "setup_reps": 1 if args.smoke else SETUP_REPS,
        "samples": {name: r[2] for name, r in results.items()},
    }
    print("provenance " + json.dumps(provenance))
    for name, (tally, metrics, samples) in results.items():
        for metric, (value, unit) in metrics.items():
            print(f"{name:14} {metric:40} {value:14.6g} {unit}")
        print(f"{name:14} {'fail_frac':40} {tally.failed / tally.attempted:14.6g} ratio"
              f"  ({tally.failed} of {tally.attempted} operations; {samples['ops_timed']} timed samples)")
        for line in tally.unexpected[:5]:
            print(f"{name}: FAILED {line}", file=sys.stderr)

    print(json.dumps({
        "correct": all(not r[0].unexpected for r in results.values()),
        "attempted": sum(r[0].attempted for r in results.values()),
        "failed": sum(r[0].failed for r in results.values()),
        "metrics": {
            ("" if len(results) == 1 else f"{name}/") + key: {"value": value, "unit": unit}
            for name, r in results.items()
            for key, (value, unit) in r[1].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

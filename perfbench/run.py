"""Benchmark of transversal-lab's exact searches.

    python3 perfbench/run.py --workload dr-enum --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process, on one thread:
rounds of set-up and one pass over the task list, until the next round
would end past ``--seconds`` (at least one round).
Every task's result and counters are compared with ``pins.json``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` passes alternate untraced and
traced and the metrics are the per-layer ones.  A readable summary goes to
standard error.  The library is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = "transversal_lab"
# set-ups before each pass, so set-up is sampled across the whole run
SETUP_REPS = 3
# a percentile is a tail estimate only with this many samples beyond it
MIN_BEYOND = 10

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.layers import PER_LAYER, probes  # noqa: E402
from perfbench.spans import LayerStats, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Task, build_tasks, check_inputs, load_pins  # noqa: E402


def import_lib() -> ModuleType:
    """A fresh import of the library from this checkout's src/."""
    for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module(PKG)
    if Path(lib.__file__).resolve().parent != SRC / PKG:
        raise ImportError(f"{PKG} imported from {lib.__file__}, not from {SRC}")
    return lib


def set_up(workload: str, seed: int, pins: dict, smoke: bool) -> tuple[ModuleType, list[Task], list[float]]:
    """Import, module tables and input generation, SETUP_REPS times.

    Returns the last import, its tasks and the seconds of every repetition.
    """
    seconds = []
    for _ in range(SETUP_REPS):
        # the previous batch is freed first, so only one is alive at a time
        lib = tasks = None
        gc.collect()
        start = time.perf_counter()
        lib = import_lib()
        tasks = build_tasks(lib, workload, seed, pins, smoke)
        seconds.append(time.perf_counter() - start)
    check_inputs(tasks)
    return lib, tasks, seconds


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    results: list
    failures: list[str]
    layers: dict[str, LayerStats] = field(default_factory=dict)
    unattributed: float = 0.0
    # rise of the process's peak resident memory during the pass
    rss_growth_mb: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(tasks: list[Task]) -> Pass:
    clock = time.perf_counter
    latencies, results = [], []
    rss_before = peak_rss_mb()
    start = clock()
    for task in tasks:
        t0 = clock()
        try:
            got = task.run()
        except Exception as exc:  # a task that raises is a failed task
            got = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        results.append(got)
    wall = clock() - start
    failures = [t.name for t, got in zip(tasks, results) if not (t.input_ok and got == t.expect)]
    return Pass(wall, latencies, results, failures, rss_growth_mb=peak_rss_mb() - rss_before)


def measure(workload: str, seed: int, pins: dict, seconds: float, trace: bool, smoke: bool):
    """Set up and run the task list until the next round would end past
    `seconds`.  Traced runs alternate untraced and traced passes and make
    at least one of each.  Returns the passes and the set-up seconds."""
    tracer = Tracer()
    passes: list[Pass] = []
    setup_s: list[float] = []
    start = time.perf_counter()
    while True:
        lib = tasks = None  # drop the previous round's batch before the next set-up
        lib, tasks, rep_seconds = set_up(workload, seed, pins, smoke)
        setup_s += rep_seconds
        if trace and len(passes) % 2 == 1:
            with tracer.installed(probes(lib)):
                tracer.reset()
                p = run_pass(tasks)
                p.layers = tracer.stats
                p.unattributed = p.wall - tracer.root_child_s()
        else:
            p = run_pass(tasks)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds and len(passes) >= (2 if trace else 1):
            return passes, setup_s


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """q-quantile, linear between order statistics, and how many samples
    lie strictly above it."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (pos - lo) * (xs[hi] - xs[lo])
    return value, len(xs) - bisect_right(xs, value)


def counters(layers: dict[str, LayerStats]) -> dict:
    return {name: [st.calls, sorted(st.counts.items())] for name, st in sorted(layers.items())}


def mean_layers(traced: list[Pass], setup_layers: dict[str, LayerStats]) -> dict[str, LayerStats]:
    """Counters of one traced pass (they repeat exactly) and mean times."""
    merged = dict(setup_layers)
    for name, first in traced[0].layers.items():
        merged[name] = LayerStats(
            first.calls,
            statistics.fmean(p.layers[name].self_s for p in traced),
            statistics.fmean(p.layers[name].total_s for p in traced),
            dict(first.counts),
        )
    return merged


def task_latencies(passes: list[Pass]) -> list[float]:
    """Each task's latency: its median over the passes."""
    return [statistics.median(column) for column in zip(*(p.latencies for p in passes))]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, tuple[float, str]]:
    latencies = task_latencies(passes)
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "task_p50_ms": (percentile(latencies, 0.5)[0] * 1e3, "ms"),
        "task_p90_ms": (percentile(latencies, 0.9)[0] * 1e3, "ms"),
    }


def per_layer(passes: list[Pass], setup_layers: dict[str, LayerStats]) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p.layers]
    untraced = [p for p in passes if not p.layers]
    layers = mean_layers(traced, setup_layers)
    get = lambda name: layers.get(name) or LayerStats()  # noqa: E731
    metrics = {name: (fn(get), unit) for name, unit, _, fn in PER_LAYER}
    traced_wall = statistics.fmean(p.wall for p in traced)
    untraced_wall = statistics.fmean(p.wall for p in untraced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.unattributed_s"] = (statistics.fmean(p.unattributed for p in traced), "s")
    # later passes reuse the memory the first one grew into
    metrics["mem.pass_growth_mb"] = (passes[0].rss_growth_mb, "MB")
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    pins = load_pins()
    setup_layers: dict[str, LayerStats] = {}
    if trace:
        # instance generation is set-up; trace it once, apart from the passes
        lib = import_lib()
        tracer = Tracer()
        with tracer.installed(probes(lib)):
            build_tasks(lib, workload, seed, pins, smoke)
        setup_layers = tracer.stats
    passes, setup_s = measure(workload, seed, pins, seconds, trace, smoke)
    tasks_per_pass = len(passes[0].results)

    problems = sorted({name for p in passes for name in p.failures})
    if any(p.results != passes[0].results for p in passes):
        problems.append("task results differ between passes")
    traced = [p for p in passes if p.layers]
    if any(counters(p.layers) != counters(traced[0].layers) for p in traced):
        problems.append("layer counters differ between traced passes")
    metrics = per_layer(passes, setup_layers) if trace else end_to_end(passes, statistics.median(setup_s))

    latencies = task_latencies(passes)
    walls = sorted(p.wall for p in passes)
    summary = [
        f"{workload} seed={seed} passes={len(passes)} tasks/pass={tasks_per_pass} set-ups={len(setup_s)}",
        f"  pass wall: min {walls[0]:.4g} s, median {statistics.median(walls):.4g} s, max {walls[-1]:.4g} s",
    ]
    for q in (0.5, 0.9):
        _, beyond = percentile(latencies, q)
        rule = "ok" if beyond >= MIN_BEYOND else f"fewer than {MIN_BEYOND}: latency of a fixed task"
        summary.append(f"  p{round(q * 100)}: n={len(latencies)} beyond={beyond} ({rule})")
    summary += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    summary += [f"  FAIL {p}" for p in problems]
    print("\n".join(summary), file=sys.stderr)

    failed = sum(len(p.failures) for p in passes)
    return {
        "correct": not problems,
        "attempted": tasks_per_pass * len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PKG / "__init__.py").is_file():
        print(f"perfbench: library source not found at {SRC / PKG}", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

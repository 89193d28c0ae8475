"""Measure the baseline: two sets of ten runs of every workload, one process per run.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each set runs ``run.py --trace 0`` once per seed (1 to 10) on every workload
listed in ``BENCHMARK.json``, interleaved: seed 1 on each workload in turn,
then seed 2, and so on.  So slow and fast periods of the machine fall on
all workloads and seeds alike instead of on consecutive seeds.  After the
two sets, one ``--trace 1`` run per workload.

Every result object is kept as printed.  Per workload and end-to-end
metric it records, for each set, the median and the spread (distance
between the first and third quartiles, ``statistics.quantiles(values,
n=4)``, as a share of the median), and the difference between the two
sets' medians as a share of the first.  The environment (Python version,
CPU count and model) is recorded with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)
SETS = 2


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_and_spread(runs: list[dict], name: str) -> tuple[float, float]:
    values = [r["metrics"][name]["value"] for r in runs]
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main() -> None:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    seconds = contract["run_seconds"]
    workloads = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    sets: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for seed in SEEDS:
            for workload in workloads:
                result = {"seed": seed, **run_once(workload, seed, seconds, 0)}
                sets[workload][k].append(result)
                print(f"set {k + 1}", workload, seed, json.dumps(result["metrics"]), file=sys.stderr, flush=True)

    report = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "run_seconds": seconds,
        },
        "workloads": {},
    }
    for workload in workloads:
        summary = {}
        for name, bound in bounds.items():
            (m1, s1), (m2, s2) = (median_and_spread(runs, name) for runs in sets[workload])
            summary[name] = {
                "median": [m1, m2],
                "spread": [s1, s2],
                "median_diff": (m2 - m1) / m1,
                "bound": bound,
            }
            print(
                f"{workload} {name}: median {m1:.6g} / {m2:.6g} (diff {(m2 - m1) / m1:+.4f}),"
                f" spread {s1:.4f} / {s2:.4f}, bound {bound}",
                file=sys.stderr,
            )
        traced = run_once(workload, SEEDS[0], seconds, 1)
        runs = [r for runs in sets[workload] for r in runs]
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": summary,
            "runs": sets[workload],
            "traced": traced,
        }
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()

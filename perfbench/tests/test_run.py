"""The benchmark's own logic: percentiles, batch selection, smoke runs of
every workload, trace bookkeeping and the contract file."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import PER_LAYER, probes
from perfbench.workloads import GROUP, HARD, POOL_SIZE, WORKLOADS, load_pins, select_batch

ROOT = Path(__file__).resolve().parents[2]
RUN_METRICS = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.unattributed_s", "mem.pass_growth_mb"]


def test_percentile_interpolates_and_counts_samples_beyond():
    samples = [float(x) for x in range(1, 101)]
    assert run.percentile(samples, 0.5) == (50.5, 50)
    assert run.percentile(samples, 0.9) == pytest.approx((90.1, 10))
    # with 91 samples p90 leaves 9 beyond: below the ten-sample rule
    assert run.percentile(samples[:91], 0.9) == (82.0, 9)
    assert run.percentile(samples[:91], 0.9)[1] < run.MIN_BEYOND <= run.percentile(samples, 0.9)[1]
    # ties at the percentile are not beyond it
    assert run.percentile([1.0] * 6 + [2.0] * 5, 0.5) == (1.0, 5)
    assert run.percentile([3.0], 0.9) == (3.0, 0)
    assert run.percentile([4.0, 13.0], 0.5) == (8.5, 1)


def test_batch_is_seeded_and_keeps_the_cost_profile():
    nodes = [entry["nodes"] for entry in load_pins()["pool"]]
    assert len(nodes) == POOL_SIZE
    a, b = select_batch(nodes, 1), select_batch(nodes, 2)
    assert a == select_batch(nodes, 1)
    assert set(a) != set(b)
    order = sorted(range(POOL_SIZE), key=lambda i: (nodes[i], i))
    hard = set(order[POOL_SIZE - HARD :])
    assert hard <= set(a) and hard <= set(b)
    rest = order[: POOL_SIZE - HARD]
    groups = [rest[i : i + GROUP] for i in range(0, len(rest), GROUP)]
    for batch in (a, b):
        assert len(batch) == len(set(batch)) == POOL_SIZE - len(groups)
        assert all(len(set(group) - set(batch)) == 1 for group in groups)


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_untraced(workload):
    result = run.benchmark(workload, seed=3, seconds=0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_traced(workload):
    result = run.benchmark(workload, seed=3, seconds=0, trace=True, smoke=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # per-pass layer self times and the time outside every layer span add
    # up to the traced pass time
    pass_self = sum(
        v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith("constructions.")
    )
    assert pass_self + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"])
    # every rebound attribute is back to the library's own function
    lib = sys.modules[run.PKG]
    for probe in probes(lib):
        assert not hasattr(getattr(probe.module, probe.attr), "__wrapped__"), probe.attr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counters(workload):
    units = {m["name"]: m["unit"] for m in _contract()["per_layer"]}

    def counts():
        metrics = run.benchmark(workload, seed=5, seconds=0, trace=True, smoke=True)["metrics"]
        return json.dumps({k: v["value"] for k, v in metrics.items() if units[k] == "count"})

    assert counts() == counts()


def test_traced_counters_match_the_pins():
    pins = load_pins()["tasks"]
    metrics = run.benchmark("dr-enum", seed=0, seconds=0, trace=True, smoke=True)["metrics"]
    assert metrics["ramsey.enum.nodes"]["value"] == pins["smoke dr(4,2) exhaustive"]["nodes"]
    assert metrics["ramsey.enum.classes"]["value"] == sum(pins["smoke dr(4,2) exhaustive"]["level_counts"][1:])
    metrics = run.benchmark("dr-search", seed=0, seconds=0, trace=True, smoke=True)["metrics"]
    # the (3,4) smoke task spends its budget in the annealer at order 14
    assert metrics["ramsey.anneal.moves"]["value"] == 5001


def test_failed_task_is_counted(monkeypatch):
    real = run.build_tasks

    def tampered(*args, **kwargs):
        tasks = real(*args, **kwargs)
        tasks[0].expect = dict(tasks[0].expect, nodes=-1)
        return tasks

    monkeypatch.setattr(run, "build_tasks", tampered)
    result = run.benchmark("dr-enum", seed=0, seconds=0, trace=False, smoke=True)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_contract_lists_every_metric_once():
    contract = _contract()
    assert [m["name"] for m in contract["per_layer"]] == [m[0] for m in PER_LAYER] + RUN_METRICS
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dr-enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

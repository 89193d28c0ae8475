"""Workloads and pinned results of the benchmark.

Each task calls the public function a ``tlab`` command calls, then the
re-verification that command does, and returns the task's result
counters.  The runner compares them with the pinned values in
``pins.json``; any difference is a failed task.

* ``dr-enum``: exhaustive enumeration (``search_dr(probe=False)``) at three
  fixed parameter points.  Stresses ``canon``, ``codec`` and the extender.
* ``dr-search``: default ``search_dr`` with both probes, as
  ``tlab dr compute`` runs it.  Stresses the annealer, the circulant scan
  and leaf checks, and ``canon`` on dense digraphs.
* ``witness``: a seeded batch of layered blowups solved by
  ``find_transversal``, plus two ``alpha_lower_search`` runs.  Stresses the
  ``UGraph`` predicates and the two branch-and-bound searches.

The ``dr-*`` workloads are fixed parameter points; the seed only matters
for ``witness``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable, Optional

PINS_PATH = Path(__file__).with_name("pins.json")

# search_dr keyword arguments per task, exactly as `tlab dr compute` passes
# them; node budgets only, so the work is identical on every machine
DR_TASKS: dict[str, list[tuple[str, int, int, dict]]] = {
    "dr-enum": [
        ("dr(3,3) exhaustive", 3, 3, {"probe": False}),
        ("dr(4,2) exhaustive", 4, 2, {"probe": False}),
        ("dr(3,4) enum to order 6", 3, 4, {"probe": False, "max_order": 6}),
    ],
    # (3,4) reaches lower 15 through the order-14 annealer certificate,
    # which needs 598,066 moves of the 620,000 nodes
    "dr-search": [
        ("dr(3,4) probes 620k", 3, 4, {"max_order": 15, "node_budget": 620_000}),
        ("dr(5,2) probes 10k", 5, 2, {"node_budget": 10_000}),
    ],
}
DR_SMOKE: dict[str, list[tuple[str, int, int, dict]]] = {
    "dr-enum": [("smoke dr(4,2) exhaustive", 4, 2, {"probe": False})],
    "dr-search": [
        ("smoke dr(4,2) probes", 4, 2, {}),
        ("smoke dr(3,4) probes 5k", 3, 4, {"max_order": 15, "node_budget": 5_000}),
    ],
}

# witness: a pinned pool of layered blowups; the seed draws the batch
POOL_SIZE = 1000
HARD = 6  # the costliest pool instances, in every batch
GROUP = 5  # the rest, ordered by pinned nodes, in groups; the seed drops one of each
NODE_BUDGET = 200_000
SMOKE_POOL_IDS = tuple(range(8))
ORTHO_DIM, ORTHO_HEIGHT = 3, 2
ORTHO_TASKS = [("alpha(3,2) height-2 pool", 2, None), ("alpha(3,3) height-2 pool 1M", 3, 1_000_000)]
ORTHO_SMOKE = [("smoke alpha(3,2) 2k", 2, 2_000)]

WORKLOADS = ("dr-enum", "dr-search", "witness")


@dataclass
class Task:
    name: str
    run: Callable[[], dict]
    expect: Optional[dict]
    # generated input and its pinned fingerprint, compared after set-up
    inputs: tuple = ()
    graph_pin: Optional[str] = None
    input_ok: bool = True


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def dr_task(lib: ModuleType, name: str, n: int, m: int, kwargs: dict, pins: dict) -> Task:
    ramsey = lib.ramsey

    def run() -> dict:
        res = ramsey.search_dr(n, m, **kwargs)
        cert = res.certificate
        # what `tlab dr compute` checks before emitting, then an
        # independent re-check of the certificate
        if cert is None or not cert.reverify():
            raise lib.errors.VerificationError(f"{name}: certificate failed re-verification")
        ramsey.check_counterexample(cert.digraph, n, m)
        return {
            "lower": res.lower,
            "upper": res.upper,
            "exact": res.exact,
            "proof_method": res.proof_method,
            "level_counts": list(res.level_counts),
            "certificate_order": cert.order,
            "budget_hit": res.budget_hit,
            "nodes": res.nodes,
        }

    return Task(name, run, pins.get(name))


def transversal_task(lib: ModuleType, name: str, pg, m: int, ell: int, pin: Optional[dict]) -> Task:
    transversal = lib.transversal

    def run() -> dict:
        res = transversal.find_transversal(pg, m, ell, node_budget=NODE_BUDGET)
        if not res.verify(pg, m, ell):
            raise lib.errors.VerificationError(f"{name}: transversal failed re-verification")
        return {"status": res.status, "nodes": res.nodes, "profile": list(res.profile)}

    if pin is None:
        return Task(name, run, None)
    expect = {key: pin[key] for key in ("status", "nodes", "profile")}
    return Task(name, run, expect, inputs=(pg, m, ell), graph_pin=pin["graph"])


def ortho_task(lib: ModuleType, name: str, pool, m: int, budget: Optional[int], pins: dict) -> Task:
    ortho = lib.ortho

    def run() -> dict:
        res = ortho.alpha_lower_search(ORTHO_DIM, m, pool, node_budget=budget)
        if not ortho.alpha_check(res.family, m):
            raise lib.errors.VerificationError(f"{name}: family failed its alpha re-check")
        return {"alpha_lower": len(res.family), "exact": res.exact, "nodes": res.nodes}

    return Task(name, run, pins.get(name))


def random_tt_free_rows(rows: int, rng: random.Random) -> list[int]:
    """Out-masks of a random digraph with no transitive triple.

    Each ordered pair is offered in random order with probability 0.6 and
    its arc kept unless it would complete a triple a->b, a->c, b->c in any
    of its three roles.
    """
    out = [0] * rows
    inn = [0] * rows
    pairs = [(i, j) for i in range(rows) for j in range(rows) if i != j]
    rng.shuffle(pairs)
    for i, j in pairs:
        if rng.random() >= 0.6:
            continue
        others = ~((1 << i) | (1 << j))
        if (out[i] & out[j] | out[i] & inn[j] | inn[i] & inn[j]) & others:
            continue
        out[i] |= 1 << j
        inn[j] |= 1 << i
    return out


def pool_instance(lib: ModuleType, pool_id: int):
    """(partitioned graph, m, ell) of one witness pool entry."""
    rng = random.Random(pool_id)
    rows = rng.randint(6, 9)
    depth = rng.randint(4, 8)
    ell = rng.randint(1, 3)
    m = rng.randint(1, rows)
    digraph = lib.graphs.BitDigraph(rows, random_tt_free_rows(rows, rng))
    pg = lib.constructions.layered_from_digraph(digraph, depth)
    return pg, m, ell


def fingerprint(pg, m: int, ell: int) -> str:
    blob = f"{m},{ell},{[sorted(c) for c in pg.classes]},{pg.graph.adj}"
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def select_batch(pool_nodes: list[int], seed: int) -> list[int]:
    """Pool ids of the seed's witness batch, in run order.

    The HARD costliest instances are always in; the rest, ordered by
    pinned node count, fall into groups of GROUP neighbours and the seed
    drops one of each.  Seeds thus give different batches with the same
    cost profile.
    """
    order = sorted(range(len(pool_nodes)), key=lambda i: (pool_nodes[i], i))
    batch = order[len(order) - HARD :]
    rest = order[: len(order) - HARD]
    rng = random.Random(seed)
    for start in range(0, len(rest), GROUP):
        group = rest[start : start + GROUP]
        drop = rng.randrange(len(group))
        batch += group[:drop] + group[drop + 1 :]
    rng.shuffle(batch)
    return batch


def build_tasks(lib: ModuleType, workload: str, seed: int, pins: dict, smoke: bool = False) -> list[Task]:
    """Generate the inputs of one workload; this is the timed set-up."""
    task_pins = pins["tasks"]
    if workload in DR_TASKS:
        specs = (DR_SMOKE if smoke else DR_TASKS)[workload]
        return [dr_task(lib, name, n, m, kw, task_pins) for name, n, m, kw in specs]
    if workload != "witness":
        raise ValueError(f"unknown workload {workload!r}")
    pool = pins["pool"]
    ids = SMOKE_POOL_IDS if smoke else select_batch([entry["nodes"] for entry in pool], seed)
    out = []
    for pool_id in ids:
        pg, m, ell = pool_instance(lib, pool_id)
        out.append(transversal_task(lib, f"pool[{pool_id}]", pg, m, ell, pool[pool_id]))
    vectors = lib.ortho.directions_of_height(ORTHO_DIM, ORTHO_HEIGHT)
    for name, m, budget in ORTHO_SMOKE if smoke else ORTHO_TASKS:
        out.append(ortho_task(lib, name, vectors, m, budget, task_pins))
    return out


def check_inputs(tasks: list[Task]) -> None:
    """Compare each generated instance with its pinned fingerprint."""
    for task in tasks:
        if task.graph_pin is not None:
            task.input_ok = fingerprint(*task.inputs) == task.graph_pin

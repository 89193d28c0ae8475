"""Exact solver for the finite balanced independent-transversal problem.

Given a partitioned graph, find an independent set meeting at least m
classes in at least l vertices each.  The solver fixes the m target
classes first (ascending lexicographic over class subsets), then picks l
independent vertices per chosen class in ascending order, discarding any
candidate whose neighbourhood drops some chosen class's remaining
independent capacity below l.  Status "none" is only reported after the
whole space is exhausted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .constructions import PartitionedGraph, layered_from_digraph
from .errors import BudgetExceeded
from .graphs import (
    BitDigraph,
    UGraph,
    bits,
    has_clique,
    has_independent_set,
    has_transitive_set,
    is_independent,
    mask_of,
)


@dataclass
class TransversalResult:
    status: str  # found | none | budget
    witness: Optional[frozenset[int]]
    profile: tuple[int, ...]  # per-class hit counts (all classes)
    nodes: int = 0

    def verify(self, pg: PartitionedGraph, m: int, ell: int) -> bool:
        """Re-check the found/none semantics of this result."""
        if self.status != "found":
            return self.witness is None
        if self.witness is None or not is_independent(pg.graph, self.witness):
            return False
        profile = tuple(len(self.witness & c) for c in pg.classes)
        return profile == self.profile and sum(1 for h in profile if h >= ell) >= m


@dataclass
class NEstimate:
    """Empirical evidence toward the finite threshold N(n, m, l).

    A verified counterexample (K_n-free, r equal classes of size
    class_size, no transversal) implies N(n, m, l) > class_size.
    """

    n: int
    m: int
    ell: int
    r: int
    class_size: int
    candidates_tried: int
    best_counterexample: Optional[PartitionedGraph]

    @property
    def implies_n_above(self) -> Optional[int]:
        return self.class_size if self.best_counterexample is not None else None


def find_transversal(
    pg: PartitionedGraph,
    m: int,
    ell: int,
    *,
    node_budget: Optional[int] = None,
) -> TransversalResult:
    """Exact branch-and-bound for an independent set meeting at least m
    classes in at least ell vertices each.

    Any valid witness is returned (no minimality guarantee); the search
    order is deterministic, so reruns reproduce the same witness.
    """
    if m < 1 or ell < 1:
        raise ValueError("m and ell must be >= 1")
    g = pg.graph
    class_masks = pg.class_masks()
    r = len(class_masks)
    nodes = 0

    if m > r:
        return TransversalResult("none", None, (0,) * r, 0)

    def solve_subset(chosen_classes: tuple[int, ...]) -> Optional[int]:
        """Search an independent set with >= ell vertices in each chosen
        class; returns the chosen vertex mask or None."""
        nonlocal nodes

        def place(class_idx: int, picked: int, forbidden: int) -> Optional[int]:
            nonlocal nodes
            if class_idx == len(chosen_classes):
                return picked
            cmask = class_masks[chosen_classes[class_idx]]
            avail = cmask & ~forbidden
            # pick exactly ell independent vertices of this class, ascending
            for combo in combinations(list(bits(avail)), ell):
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise BudgetExceeded("transversal node budget exhausted")
                combo_mask = mask_of(combo)
                if not is_independent(g, combo):
                    continue
                nbhd = 0
                for v in combo:
                    nbhd |= g.adj[v]
                new_forbidden = forbidden | nbhd | combo_mask
                # capacity prune: every later class must still hold an
                # independent ell-set avoiding everything picked so far
                feasible = True
                for later in chosen_classes[class_idx + 1 :]:
                    lmask = class_masks[later] & ~new_forbidden
                    if lmask.bit_count() < ell or not has_independent_set(
                        g, ell, within=lmask
                    ):
                        feasible = False
                        break
                if not feasible:
                    continue
                result = place(class_idx + 1, picked | combo_mask, new_forbidden)
                if result is not None:
                    return result
            return None

        return place(0, 0, 0)

    try:
        for chosen in combinations(range(r), m):
            # quick reject: some chosen class too small
            if any(class_masks[c].bit_count() < ell for c in chosen):
                continue
            picked = solve_subset(chosen)
            if picked is not None:
                witness = frozenset(bits(picked))
                profile = tuple(len(witness & c) for c in pg.classes)
                return TransversalResult("found", witness, profile, nodes)
    except BudgetExceeded:
        return TransversalResult("budget", None, (0,) * r, nodes)
    return TransversalResult("none", None, (0,) * r, nodes)


def max_profile(
    pg: PartitionedGraph, ell: int, *, node_budget: Optional[int] = None
) -> int:
    """Largest m for which find_transversal succeeds, by descending probe.

    Raises BudgetExceeded carrying the bracketing interval when the budget
    runs out before the answer is pinned.
    """
    r = pg.num_classes
    for m in range(r, 0, -1):
        res = find_transversal(pg, m, ell, node_budget=node_budget)
        if res.status == "found":
            return m
        if res.status == "budget":
            raise BudgetExceeded(
                "max_profile budget exhausted", lower=0, upper=m
            )
    return 0


# ---------------------------------------------------------------------------
# empirical N(n, m, l) exploration
# ---------------------------------------------------------------------------


def _random_transitive_free_digraph(r: int, n: int, rng: random.Random) -> BitDigraph:
    """Random digraph on r vertices with no transitive n-set, by rejection
    of offending arcs during random insertion."""
    out = [0] * r
    pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
    rng.shuffle(pairs)
    for i, j in pairs:
        if rng.random() < 0.6:
            out[i] |= 1 << j
            if has_transitive_set(BitDigraph(r, out), n):
                out[i] &= ~(1 << j)
    return BitDigraph(r, out)


def estimate_N(
    n: int,
    m: int,
    ell: int,
    class_size: int,
    *,
    r: int,
    strategy: str = "random",
    candidates: int = 50,
    rng_seed: int = 0,
    node_budget: Optional[int] = None,
) -> NEstimate:
    """Search for K_n-free graphs with r classes of size class_size on which
    no transversal exists, as lower-bound evidence for N(n, m, l).

    Generation is biased toward layered structure (random transitive-free
    digraphs blown up to depth class_size); the local-search strategy
    additionally perturbs candidates by edge flips that keep the graph
    K_n-free while removing cross-class non-edges (shrinking the solver's
    freedom).  Absence of a counterexample is an observation, not an error.
    """
    if strategy not in ("random", "local-search"):
        raise ValueError("strategy must be 'random' or 'local-search'")
    rng = random.Random(rng_seed)
    tried = 0
    for _ in range(candidates):
        tried += 1
        d = _random_transitive_free_digraph(r, n, rng)
        pg = layered_from_digraph(d, class_size)
        candidate = pg
        if strategy == "local-search":
            candidate = _harden_candidate(candidate, n, rng, flips=4 * candidate.graph.order)
        if has_clique(candidate.graph, n):
            continue
        res = find_transversal(candidate, m, ell, node_budget=node_budget)
        if res.status == "none":
            return NEstimate(n, m, ell, r, class_size, tried, candidate)
    return NEstimate(n, m, ell, r, class_size, tried, None)


def _harden_candidate(
    pg: PartitionedGraph, n: int, rng: random.Random, flips: int
) -> PartitionedGraph:
    """Edge-flip local search: add random cross-class edges that keep the
    graph K_n-free (each added edge can only remove independent sets)."""
    g = pg.graph
    adj = list(g.adj)
    order = g.order
    class_of = {}
    for idx, cls in enumerate(pg.classes):
        for v in cls:
            class_of[v] = idx
    for _ in range(flips):
        u = rng.randrange(order)
        v = rng.randrange(order)
        if u == v or class_of[u] == class_of[v] or (adj[u] >> v) & 1:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if has_clique(UGraph(order, adj), n):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    return PartitionedGraph(UGraph(order, adj), pg.classes)

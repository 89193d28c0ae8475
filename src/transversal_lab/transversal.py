"""Exact solver for the finite balanced independent-transversal problem.

Given a partitioned graph, find an independent set meeting at least m
classes in at least l vertices each.  The solver fixes the m target
classes first (ascending lexicographic over the subsets of the classes
with at least l vertices; a smaller class can never be filled), then
picks l independent vertices per chosen class in ascending order,
discarding any candidate whose neighbourhood drops some chosen class's
remaining independent capacity below l.  At l = 1 that capacity is the
class's count of vertices left, read without a search.  Status "none" is
only reported after the whole space is exhausted.

Each class's l-subsets are enumerated as bit masks by a depth-first walk
that takes the lowest vertex first, which is the order of
`itertools.combinations`.  A prefix with an edge is abandoned, but its
completions still count as nodes, so node budgets and node counts are
those of the plain subset-by-subset loop.  Two memos live for one call:
the capacity test's answer on the mask it reads (l >= 2), and the node
count of every class-placement subtree that failed, keyed on what that
subtree reads (see `find_transversal`); a failed subtree that comes back
is counted again, not walked again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .constructions import PartitionedGraph, layered_from_digraph
from .errors import BudgetExceeded
from .graphs import (
    BitDigraph,
    Budget,
    UGraph,
    bits,
    find_clique_in,
    find_transitive_in,
    has_clique,
    has_independent_set,
    is_independent,
    mask_of,
)


@dataclass
class TransversalResult:
    status: str  # found | none | budget
    witness: Optional[frozenset[int]]
    profile: tuple[int, ...]  # per-class hit counts (all classes)
    nodes: int = 0
    budget_reason: Optional[str] = None  # "nodes" when the node budget ended the search

    def verify(self, pg: PartitionedGraph, m: int, ell: int) -> bool:
        """True iff this result is well formed for (pg, m, ell).  A "found"
        witness is independent, carries the profile it meets and meets at
        least m classes in at least ell vertices each.  A "none" or
        "budget" result carries no witness and the all-zero profile; a
        "none" rests on the exhausted search, which no check repeats."""
        if self.status != "found":
            no_answer = self.status in ("none", "budget") and self.witness is None
            return no_answer and self.profile == (0,) * pg.num_classes
        if self.witness is None or not is_independent(pg.graph, self.witness):
            return False
        picked = mask_of(self.witness)
        profile = tuple((picked & mask).bit_count() for mask in pg.class_masks())
        return profile == self.profile and sum(1 for h in profile if h >= ell) >= m


@dataclass
class NEstimate:
    """Empirical evidence toward the finite threshold N(n, m, l).

    A verified counterexample (K_n-free, r equal classes of size
    class_size, no transversal) implies N(n, m, l) > class_size.
    `budget_stopped` counts the candidates whose search stopped on its
    node budget: they are evidence neither way.
    """

    n: int
    m: int
    ell: int
    r: int
    class_size: int
    candidates_tried: int
    budget_stopped: int
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

    Lemma (class filter).  A class with fewer than ell vertices holds no
    ell-set, so a combination that contains it is never filled.  The
    search combines only the classes with at least ell vertices, computed
    once per call; combinations of that subsequence come in the same
    lexicographic order as the combinations of all classes that keep no
    small class, and a dropped combination would have reached no node.
    With fewer than m such classes there is no combination, and the
    answer is "none" after 0 nodes (m > r included).

    `nodes` counts the ell-subsets of the chosen classes' available
    vertices that the search reaches, independent or not, in the order
    `itertools.combinations` lists them.  Subsets are built as bit masks,
    lowest vertex first.  A prefix whose newest vertex is adjacent to an
    earlier pick is abandoned: all comb(left, need - 1) of its completions
    (left candidates above it, need - 1 vertices still to add) are
    dependent, and are counted at once.  The search counts in a local int
    and hands the total to one Budget.spend, which clamps a count that ran
    past the budget inside such a block to node_budget + 1, where a
    one-by-one count stops; so budgets and `nodes` mean what a plain loop
    over `combinations` makes them mean.

    The capacity prune asks whether a later class still holds an
    independent ell-set outside `forbidden`.  The answer depends only on
    lmask = class_mask & ~forbidden, so it is memoised on lmask for the
    call (classes are disjoint, so a nonzero lmask also names its class).
    At ell = 1 no search is asked: the prune has already checked
    lmask.bit_count() >= 1, and one vertex is an independent 1-set, so
    neither the memo nor has_independent_set is reached.

    Lemma (failed subtrees).  Let rest be the union of targets[idx:], the
    classes still to fill.  The outcome and the node count of
    place(idx, picked, forbidden) depend only on targets[idx:] and on
    forbidden & rest: `picked` only enters the returned mask, and `pick`
    and the capacity prune read `forbidden` only inside those classes.
    The classes are disjoint, non-empty (the class filter keeps only
    classes with at least ell vertices) and listed in ascending order by
    every combination, so rest names the remaining classes and their
    order, across combinations too.  A subtree that fails is therefore
    stored as (rest, forbidden & rest) -> nodes it spent, and a later
    call with the same key adds those nodes and fails without walking.  A
    hit that takes the count past the budget stops there, as the walk
    would have, and Budget.spend clamps the total to node_budget + 1 as
    before.  Only failures are stored, so the witness, profile, status and
    `nodes` are those of the plain walk.

    Lemma (the last class).  For m >= 2, place(m - 1, ...) is only entered
    after the capacity prune found an independent ell-set in
    targets[m - 1] & ~forbidden, and `pick` takes the first such set, so
    it never fails.  The memo is therefore consulted only for
    0 < idx < m - 1: at idx = 0 each combination arrives exactly once, and
    searches with m <= 2 do no memo work at all.
    """
    return _solve(pg, m, ell, Budget(node_budget))


def _solve(pg: PartitionedGraph, m: int, ell: int, budget: Budget) -> TransversalResult:
    """find_transversal spending from `budget`; the result counts the nodes
    this call spent."""
    if m < 1 or ell < 1:
        raise ValueError("m and ell must be >= 1")
    g = pg.graph
    adj = g.adj
    class_masks = pg.class_masks()
    # a class smaller than ell holds no ell-set: combine only the others
    eligible = [mask for mask in class_masks if mask.bit_count() >= ell]

    limit = budget.limit
    start = nodes = budget.nodes
    capacity: dict[int, bool] = {}
    failed: dict[tuple[int, int], int] = {}  # (rest, forbidden & rest) -> nodes
    last = m - 1
    targets: tuple[int, ...] = ()  # masks of the chosen classes
    tails: list[tuple[int, ...]] = []  # tails[i] = targets[i + 1 :]

    def place(idx: int, picked: int, forbidden: int) -> Optional[int]:
        """Extend `picked` by ell vertices in each of targets[idx:]; returns
        the full vertex mask or None.  `forbidden` is the union of the
        neighbourhoods of the picks."""
        nonlocal nodes
        if idx == m:
            return picked
        if idx == 0 or idx == last:  # no memo here: see find_transversal
            return pick(idx, picked, forbidden, targets[idx] & ~forbidden, ell, 0)
        if failed:  # an empty memo answers nothing
            rest = sum(tails[idx - 1])  # targets[idx:], disjoint masks
            spent = failed.get((rest, forbidden & rest))
            if spent is not None:
                nodes += spent
                if nodes > limit:
                    raise BudgetExceeded
                return None
        before = nodes
        found = pick(idx, picked, forbidden, targets[idx] & ~forbidden, ell, 0)
        if found is None:
            rest = sum(tails[idx - 1])
            failed[rest, forbidden & rest] = nodes - before
        return found

    def pick(
        idx: int, picked: int, forbidden: int, cand: int, need: int, nbhd: int
    ) -> Optional[int]:
        """Try, in lexicographic order, every way to add `need` vertices of
        `cand` to this class's prefix; `nbhd` is the union of the prefix's
        neighbourhoods."""
        nonlocal nodes
        left = cand.bit_count()
        while left >= need:
            low = cand & -cand
            cand ^= low
            left -= 1
            if low & nbhd:
                nodes += comb(left, need - 1)
                if nodes > limit:
                    raise BudgetExceeded
                continue
            v = low.bit_length() - 1
            if need > 1:
                found = pick(idx, picked | low, forbidden, cand, need - 1, nbhd | adj[v])
                if found is not None:
                    return found
                continue
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded
            new_forbidden = forbidden | nbhd | adj[v]
            # capacity prune: every later class must still hold an
            # independent ell-set avoiding everything picked so far
            for later in tails[idx]:
                lmask = later & ~new_forbidden
                if lmask.bit_count() < ell:
                    break
                if ell == 1:  # any vertex is an independent 1-set
                    continue
                fits = capacity.get(lmask)
                if fits is None:
                    fits = capacity[lmask] = has_independent_set(g, ell, within=lmask)
                if not fits:
                    break
            else:
                found = place(idx + 1, picked | low, new_forbidden)
                if found is not None:
                    return found
        return None

    status, witness, profile = "none", None, (0,) * len(class_masks)
    try:
        for targets in combinations(eligible, m):
            tails = [targets[i + 1 :] for i in range(m)]
            picked = place(0, 0, 0)
            if picked is not None:
                status, witness = "found", frozenset(bits(picked))
                profile = tuple((picked & mask).bit_count() for mask in class_masks)
                break
    except BudgetExceeded:
        status = "budget"
    budget.spend(nodes - start)
    return TransversalResult(status, witness, profile, budget.nodes - start, budget.reason)


def max_profile(
    pg: PartitionedGraph, ell: int, *, node_budget: Optional[int] = None
) -> int:
    """Largest m for which find_transversal succeeds, by descending probe.

    One node budget covers every probe.  Raises BudgetExceeded when it runs
    out before the answer is pinned; the probes above the one it stopped
    found no transversal, so the answer is at most that probe's m.
    """
    budget = Budget(node_budget)
    for m in range(pg.num_classes, 0, -1):
        status = _solve(pg, m, ell, budget).status
        if status == "found":
            return m
        if status == "budget":
            raise BudgetExceeded(f"max_profile node budget exhausted; the answer is at most {m}")
    return 0


# ---------------------------------------------------------------------------
# empirical N(n, m, l) exploration
# ---------------------------------------------------------------------------


def _random_transitive_free_digraph(r: int, n: int, rng: random.Random) -> BitDigraph:
    """Random digraph on r vertices with no transitive n-set, by rejection
    of offending arcs during random insertion."""
    out = [0] * r
    full = (1 << r) - 1
    pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
    rng.shuffle(pairs)
    for i, j in pairs:
        if rng.random() < 0.6:
            out[i] |= 1 << j
            if find_transitive_in(out, (full,), n) is not None:
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
    Each candidate's search gets its own `node_budget`; one that stops on
    it is counted in `budget_stopped` and proves nothing either way.
    The arguments are checked before any candidate is drawn: with m > r
    every graph would be a vacuous counterexample.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= m <= r:
        raise ValueError(f"m must satisfy 1 <= m <= r, got m={m}, r={r}")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if class_size < 1:
        raise ValueError("class_size must be >= 1")
    if candidates < 0:
        raise ValueError("candidates must be >= 0")
    if strategy not in ("random", "local-search"):
        raise ValueError("strategy must be 'random' or 'local-search'")
    rng = random.Random(rng_seed)
    tried = stopped = 0
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
            return NEstimate(n, m, ell, r, class_size, tried, stopped, candidate)
        stopped += res.status == "budget"
    return NEstimate(n, m, ell, r, class_size, tried, stopped, None)


def _harden_candidate(
    pg: PartitionedGraph, n: int, rng: random.Random, flips: int
) -> PartitionedGraph:
    """Edge-flip local search: add random cross-class edges that keep the
    graph K_n-free (each added edge can only remove independent sets).

    Lemma: if G is K_n-free, then G + uv holds a K_n iff the common
    neighbourhood adj[u] & adj[v] holds a K_{n-2}, since any new K_n must
    use the new edge.  So each flip is one clique search on that mask.
    The input must be K_n-free, as estimate_N's layered blowups are; for
    n <= 2 the search finds the empty clique and every flip is refused.
    """
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
        if find_clique_in(adj, adj[u] & adj[v], n - 2) is None:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return PartitionedGraph(UGraph(order, adj), pg.classes)

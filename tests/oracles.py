"""Independent brute-force oracles used to validate the fast paths.

Everything here is deliberately naive: ordered-tuple scans, subset
enumeration, labelled exhaustion.  None of it shares code with the
package's search implementations; the one exception is the reference
seen-set enumeration, which labels with the package's canonical_label,
itself checked against brute-force isomorphism in test_canon.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations, product
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence

from transversal_lab.canon import canonical_label
from transversal_lab.constructions import PartitionedGraph
from transversal_lab.embedding import BipartitePattern, EmbeddingReport, EmbedOutcome
from transversal_lab.errors import BudgetExceeded, MalformedInput, VerificationError
from transversal_lab.graphs import (
    BitDigraph,
    Budget,
    UGraph,
    bits,
    count_cliques_in,
    digraph_independent,
    find_clique_in,
    find_transitive_in,
    has_clique,
    has_independent_set,
    has_transitive_set,
    is_independent,
    mask_of,
)
from transversal_lab.ortho import AlphaSearchResult, VectorFamily, dot
from transversal_lab.ramsey import (
    EnumerationOutcome,
    _annealing_energy,
    circulant_digraph,
)
from transversal_lab.transversal import TransversalResult


def naive_has_transitive(d: BitDigraph, n: int) -> bool:
    if n > d.order:
        return False
    for tup in permutations(range(d.order), n):
        if all(
            (d.out[tup[i]] >> tup[j]) & 1
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def naive_digraph_independent(d: BitDigraph, m: int) -> bool:
    if m > d.order:
        return False
    for sub in combinations(range(d.order), m):
        if all(
            not ((d.out[u] >> v) & 1 or (d.out[v] >> u) & 1)
            for u in sub
            for v in sub
            if u < v
        ):
            return True
    return False


def naive_max_independent(g: UGraph) -> int:
    best = 0
    for size in range(g.order, -1, -1):
        for sub in combinations(range(g.order), size):
            if all(not g.has_edge(u, v) for u in sub for v in sub if u < v):
                return size
    return best


def naive_has_clique(g: UGraph, k: int) -> bool:
    if k > g.order:
        return False
    for sub in combinations(range(g.order), k):
        if all(g.has_edge(u, v) for u in sub for v in sub if u < v):
            return True
    return False


def naive_isomorphic(d1: BitDigraph, d2: BitDigraph) -> bool:
    if d1.order != d2.order:
        return False
    for perm in permutations(range(d1.order)):
        if d1.relabel(list(perm)).out == d2.out:
            return True
    return False


def all_labelled_digraphs(order: int):
    """Every loop-free digraph on `order` vertices (4 states per pair)."""
    pairs = [(i, j) for i in range(order) for j in range(i + 1, order)]
    for states in product(range(4), repeat=len(pairs)):
        out = [0] * order
        for (i, j), s in zip(pairs, states):
            if s & 1:
                out[i] |= 1 << j
            if s & 2:
                out[j] |= 1 << i
        yield BitDigraph(order, out)


def all_arced_digraphs(order: int):
    """Digraphs in which every pair carries at least one arc (3 states)."""
    pairs = [(i, j) for i in range(order) for j in range(i + 1, order)]
    for states in product((1, 2, 3), repeat=len(pairs)):
        out = [0] * order
        for (i, j), s in zip(pairs, states):
            if s & 1:
                out[i] |= 1 << j
            if s & 2:
                out[j] |= 1 << i
        yield BitDigraph(order, out)


def naive_good(d: BitDigraph, n: int, m: int) -> bool:
    return not naive_has_transitive(d, n) and not naive_digraph_independent(d, m)


def good_labelled_digraphs_3_3(order: int):
    """Every labelled digraph on `order` vertices with no transitive triple
    and no independent 3-set, tested on bit rows.

    All 4^(order choose 2) pair-state vectors are built, as in
    `all_labelled_digraphs`.  A transitive triple is an arc a -> b with a
    common out-neighbour, out[a] & out[b] non-zero; an independent 3-set
    is a triple t none of whose vertices has an arc into t.  Only the good
    digraphs become `BitDigraph`s.
    """
    pairs = [(i, j, 1 << i, 1 << j) for i in range(order) for j in range(i + 1, order)]
    triples = [(1 << a) | (1 << b) | (1 << c) for a, b, c in combinations(range(order), 3)]
    for states in product(range(4), repeat=len(pairs)):
        out = [0] * order
        for (i, j, bi, bj), s in zip(pairs, states):
            if s & 1:
                out[i] |= bj
            if s & 2:
                out[j] |= bi
        if any(out[a] & out[b] for a in range(order) for b in bits(out[a])):
            continue
        if any(not any(out[v] & t for v in bits(t)) for t in triples):
            continue
        yield BitDigraph(order, out)


def naive_transitive_from(out, masks, k: int) -> bool:
    """Ordered-tuple scan: is there a transitive k-tuple (u_1, ..., u_k),
    u_a -> u_b for a < b, whose members take mask indices that never go
    down?  Each member takes the earliest mask at or after the previous
    member's that holds it."""
    for tup in permutations(range(len(out)), k):
        if not all(out[a] >> b & 1 for x, a in enumerate(tup) for b in tup[x + 1 :]):
            continue
        p = 0
        for u in tup:
            while p < len(masks) and not masks[p] >> u & 1:
                p += 1
        if p < len(masks):
            return True
    return False


def reference_good_children(
    parent: BitDigraph, trans_n: int, indep_m: int
) -> Iterator[BitDigraph]:
    """The three-path extender that `ramsey._good_extensions` replaced: the
    good one-vertex extensions of a good parent, as digraphs.

    A DFS gives the new vertex v a pair state against the prior vertices in
    ascending index order, trying none < forward < backward < both, so the
    children come in lexicographic order of their state vectors.  F holds
    the prior vertices with an arc to v, B those v has an arc to.  For n = 3 a
    state on vertex i is refused when it completes a transitive triple
    {j, i, v} with some j < i: forward (i -> v) when inn[i] & F or
    out[i] & (F | B), backward (v -> i) when inn[i] & (F | B) or
    out[i] & B, which covers the six orderings of the triple.  n = 2 allows
    no arc at all.  For n >= 4 each child is checked at the leaf with the
    generic transitive-set predicate.  Independent m-sets through v are
    blocked as a non-neighbour is placed, via the set of prior vertices
    given state none.
    """
    k = parent.order
    out = parent.out
    inn = parent.in_masks()
    na = parent.nonadjacency_masks()
    new_bit = 1 << k
    states = (0,) if trans_n == 2 else (0, 1, 2, 3)
    triples = trans_n == 3
    leaf_n = trans_n if trans_n > 3 else None

    def rec(i: int, fwd: int, back: int, zset: int) -> Iterator[BitDigraph]:
        if i == k:
            rows = [row | new_bit if fwd >> j & 1 else row for j, row in enumerate(out)]
            rows.append(back)
            child = BitDigraph(k + 1, rows)
            if leaf_n is None or not has_transitive_set(child, leaf_n):
                yield child
            return
        bit = 1 << i
        for s in states:
            if s == 0:
                # would making i a non-neighbour complete an independent
                # m-set through the new vertex?
                if find_clique_in(na, na[i] & zset, indep_m - 2) is None:
                    yield from rec(i + 1, fwd, back, zset | bit)
                continue
            if triples and (
                (s & 1 and (inn[i] & fwd or out[i] & (fwd | back)))
                or (s & 2 and (inn[i] & (fwd | back) or out[i] & back))
            ):
                continue
            yield from rec(
                i + 1, fwd | bit if s & 1 else fwd, back | bit if s & 2 else back, zset
            )

    return rec(0, 0, 0, 0)


def reference_enumerate_good_classes(
    trans_n: int, indep_m: int, max_order: int, *, budget=None
) -> EnumerationOutcome:
    """The seen-set enumeration that canonical deletion replaced: every
    child of every representative is labelled, and a level keeps the first
    child of each canonical label.  Children come from the three-path
    reference extender, in the order of ramsey._good_extensions, and each
    spends one node of `budget` after it is labelled."""
    if budget is None:
        budget = Budget()
    start_nodes = budget.nodes
    levels = [[BitDigraph.empty(1)]]
    budget.spend()
    empty_at = None
    order = 1
    while order < max_order and not budget.hit:
        seen = set()
        next_level = []
        for parent in levels[-1]:
            for child in reference_good_children(parent, trans_n, indep_m):
                label = canonical_label(child)
                if label not in seen:
                    seen.add(label)
                    next_level.append(child)
                if not budget.spend():
                    break
            if budget.hit:
                break
        if budget.hit:
            break
        order += 1
        levels.append(next_level)
        if not next_level:
            empty_at = order
            break
    return EnumerationOutcome(levels, empty_at, budget.nodes - start_nodes)


def naive_coloured_form(d: BitDigraph, cells) -> tuple[int, ...]:
    """Least out-rows over every relabelling that puts the vertices of
    cells[0] first, then those of cells[1], and so on: for two coloured
    digraphs with equal cell sizes, equal iff some isomorphism maps cell i
    onto cell i."""
    best = None
    for parts in product(*(permutations(bits(cell)) for cell in cells)):
        order = [v for part in parts for v in part]
        perm = [0] * d.order
        for pos, v in enumerate(order):
            perm[v] = pos
        rows = tuple(d.relabel(perm).out)
        if best is None or rows < best:
            best = rows
    return best


def naive_transversal_exists(pg, m: int, ell: int) -> bool:
    """Product enumeration: for every m-subset of classes try every way of
    taking ell vertices per class and test the union for independence."""
    g = pg.graph
    classes = [sorted(c) for c in pg.classes]
    r = len(classes)
    for chosen in combinations(range(r), m):
        if any(len(classes[c]) < ell for c in chosen):
            continue
        pools = [list(combinations(classes[c], ell)) for c in chosen]
        for picks in product(*pools):
            verts = [v for pick in picks for v in pick]
            if len(set(verts)) != len(verts):
                continue
            if all(
                not g.has_edge(u, v) for u in verts for v in verts if u < v
            ):
                return True
    return False


def reference_transversal(pg, m: int, ell: int, node_budget=None):
    """The plain transversal branch and bound, one node per subset.

    Same search order as `find_transversal`: class subsets ascending, then
    each class's ell-subsets of its available vertices as `combinations`
    yields them, each one counted as a node before it is tested with
    `is_independent`, and an uncached capacity check for every later class.
    Returns (status, witness, profile, nodes, dependent, memo), where
    `dependent` counts the subsets rejected as not independent.

    The walk itself has no memo; `memo` says what a solver with a
    failed-subtree memo would do on it.  A class placement at
    0 < idx < m - 1 is keyed on (rest, forbidden & rest), rest the union
    of the classes still to fill.  `memo.failed` maps the key of each
    such placement that failed to the nodes it spent, `memo.hits` counts
    the placements whose key an earlier placement had already failed
    with, and `memo.walked` the placements such a solver enters without
    answering them from the memo.  Nothing inside an answered placement
    is walked or recorded.
    """
    g = pg.graph
    class_masks = pg.class_masks()
    r = len(class_masks)
    nodes = dependent = 0
    memo = SimpleNamespace(walked=0, hits=0, failed={})
    if m > r:
        return "none", None, (0,) * r, 0, 0, memo

    class Exhausted(Exception):
        pass

    def place(chosen, idx, picked, forbidden, answered):
        nonlocal nodes, dependent
        if idx == len(chosen):
            return picked
        key = None
        if not answered:
            if 0 < idx < len(chosen) - 1:
                rest = 0
                for c in chosen[idx:]:
                    rest |= class_masks[c]
                key = (rest, forbidden & rest)
            if key in memo.failed:
                memo.hits += 1
                answered, key = True, None
            else:
                memo.walked += 1
        before = nodes
        avail = class_masks[chosen[idx]] & ~forbidden
        for combo in combinations(list(bits(avail)), ell):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise Exhausted
            if not is_independent(g, combo):
                dependent += 1
                continue
            new_forbidden = forbidden | mask_of(combo)
            for v in combo:
                new_forbidden |= g.adj[v]
            if all(
                (class_masks[later] & ~new_forbidden).bit_count() >= ell
                and has_independent_set(g, ell, within=class_masks[later] & ~new_forbidden)
                for later in chosen[idx + 1 :]
            ):
                found = place(chosen, idx + 1, picked | mask_of(combo), new_forbidden, answered)
                if found is not None:
                    return found
        if key is not None:
            memo.failed[key] = nodes - before
        return None

    try:
        for chosen in combinations(range(r), m):
            if any(class_masks[c].bit_count() < ell for c in chosen):
                continue
            picked = place(chosen, 0, 0, 0, False)
            if picked is not None:
                witness = frozenset(bits(picked))
                profile = tuple(len(witness & c) for c in pg.classes)
                return "found", witness, profile, nodes, dependent, memo
    except Exhausted:
        return "budget", None, (0,) * r, nodes, dependent, memo
    return "none", None, (0,) * r, nodes, dependent, memo


def reference_solve(pg, m: int, ell: int, budget: Budget) -> TransversalResult:
    """The mask-walk solver before the failed-subtree memo: the counted
    skip of dependent prefixes and the capacity memo, but every failed
    class placement walked again whenever it comes back.  Spends from
    `budget` as `transversal._solve` does."""
    if m < 1 or ell < 1:
        raise ValueError("m and ell must be >= 1")
    g = pg.graph
    adj = g.adj
    class_masks = pg.class_masks()
    r = len(class_masks)
    if m > r:
        return TransversalResult("none", None, (0,) * r, 0)

    limit = budget.limit
    start = nodes = budget.nodes
    capacity: dict[int, bool] = {}
    targets: tuple[int, ...] = ()
    tails: list[tuple[int, ...]] = []

    def place(idx: int, picked: int, forbidden: int) -> Optional[int]:
        if idx == m:
            return picked
        return pick(idx, picked, forbidden, targets[idx] & ~forbidden, ell, 0)

    def pick(
        idx: int, picked: int, forbidden: int, cand: int, need: int, nbhd: int
    ) -> Optional[int]:
        nonlocal nodes
        left = cand.bit_count()
        while left >= need:
            low = cand & -cand
            cand ^= low
            left -= 1
            if low & nbhd:
                nodes += math.comb(left, need - 1)
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
            for later in tails[idx]:
                lmask = later & ~new_forbidden
                if lmask.bit_count() < ell:
                    break
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

    status, witness, profile = "none", None, (0,) * r
    try:
        for chosen in combinations(range(r), m):
            targets = tuple(class_masks[c] for c in chosen)
            if any(t.bit_count() < ell for t in targets):
                continue
            tails = [targets[i + 1 :] for i in range(m)]
            picked = place(0, 0, 0)
            if picked is not None:
                status, witness = "found", frozenset(bits(picked))
                profile = tuple(len(witness & c) for c in pg.classes)
                break
    except BudgetExceeded:
        status = "budget"
    budget.spend(nodes - start)
    return TransversalResult(status, witness, profile, budget.nodes - start, budget.reason)


def reference_max_profile(pg, ell: int, node_budget=None) -> int:
    """`max_profile` on `reference_solve`: descending probes under one
    shared budget, raising BudgetExceeded with the same message."""
    budget = Budget(node_budget)
    for m in range(pg.num_classes, 0, -1):
        status = reference_solve(pg, m, ell, budget).status
        if status == "found":
            return m
        if status == "budget":
            raise BudgetExceeded(f"max_profile node budget exhausted; the answer is at most {m}")
    return 0


def naive_half_graph_order(g: UGraph, a_side, b_side) -> int:
    """Max k over all ordered a- and b-sequences with a_i ~ b_j for i < j."""
    avs, bvs = sorted(a_side), sorted(b_side)
    best = 0
    for k in range(1, min(len(avs), len(bvs)) + 1):
        found = False
        for aseq in permutations(avs, k):
            for bseq in permutations(bvs, k):
                if all(
                    g.has_edge(aseq[i], bseq[j])
                    for i in range(k)
                    for j in range(i + 1, k)
                ):
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


class ReferenceAnnealState:
    """Pair-state digraph with incremental violation counting.

    Pair k is the k-th pair (i, j), i < j, in lexicographic order; state 1
    is the arc i -> j, state 2 the arc j -> i, state 0 no arc.  Flipping
    one pair only touches the triples through it and the independent
    m-sets containing both endpoints, so a move costs a few row operations
    plus the (small) independent-set recount instead of a full rescan.
    """

    def __init__(self, order: int, m: int, states: list[int]):
        self.order = order
        self.m = m
        self.pairs = [(i, j) for i in range(order) for j in range(i + 1, order)]
        self.states = states
        self.out = [0] * order
        self.inn = [0] * order
        full = (1 << order) - 1
        self.na = [full ^ (1 << v) for v in range(order)]  # mutual non-adjacency
        for k, s in enumerate(states):
            if s:
                self._toggle(k, s)
        self.energy = self._full_energy()

    def _toggle(self, k: int, s: int) -> None:
        """Add the arc of state s > 0 to pair k, or remove it if present."""
        i, j = self.pairs[k]
        a, b = (i, j) if s == 1 else (j, i)
        self.out[a] ^= 1 << b
        self.inn[b] ^= 1 << a
        self.na[i] ^= 1 << j
        self.na[j] ^= 1 << i

    def _triples_through(self, i: int, j: int, s: int) -> int:
        """Transitive triples through pair {i, j} if it took state s.

        A triple with all three pairs arced is transitive unless it is a
        3-cycle, so with the arc a -> b these are the common neighbours w
        of a and b less those closing the cycle a -> b -> w -> a.
        """
        if s == 0:
            return 0
        a, b = (i, j) if s == 1 else (j, i)
        out, inn = self.out, self.inn
        common = (out[a] | inn[a]) & (out[b] | inn[b])
        return common.bit_count() - (out[b] & inn[a]).bit_count()

    def _count_indep_through_pair(self, i: int, j: int) -> int:
        """Independent m-sets containing the (currently non-adjacent)
        pair {i, j}: independent (m-2)-subsets of their common
        non-neighbourhood."""
        cand = self.na[i] & self.na[j] & ~(1 << i) & ~(1 << j)
        return count_cliques_in(self.na, cand, self.m - 2)

    def _full_energy(self) -> int:
        return _annealing_energy(BitDigraph(self.order, self.out), self.m)

    def build_out(self) -> list[int]:
        return list(self.out)

    def flip_delta(self, k: int, new_state: int) -> int:
        """Energy change of setting pair k to new_state."""
        i, j = self.pairs[k]
        old_state = self.states[k]
        if old_state == new_state:
            return 0
        delta = self._triples_through(i, j, new_state) - self._triples_through(i, j, old_state)
        if (old_state == 0) != (new_state == 0):
            through = self._count_indep_through_pair(i, j)
            delta += through if new_state == 0 else -through
        return delta

    def apply(self, k: int, new_state: int, delta: int) -> None:
        if self.states[k]:
            self._toggle(k, self.states[k])
        if new_state:
            self._toggle(k, new_state)
        self.states[k] = new_state
        self.energy += delta


def reference_local_search(m: int, order: int, *, seeds: int = 6, iters: int = 120_000, budget=None):
    """The annealing walk on `ReferenceAnnealState`, one method call per
    step: the same seed schedule, random draws, budget spending and drift
    check as `probe_local_search`, which must return the same digraph."""
    if m < 2:
        return None
    n_pairs = order * (order - 1) // 2
    for seed in range(seeds):
        rng = random.Random(1_000_003 * m + 1009 * order + seed)
        anneal = ReferenceAnnealState(order, m, [rng.randint(0, 2) for _ in range(n_pairs)])
        for it in range(iters):
            if anneal.energy == 0:
                break
            if budget is not None and not budget.spend():
                return None
            temperature = 3.0 * (1 - it / iters) + 0.05
            k = rng.randrange(n_pairs)
            old = anneal.states[k]
            new = rng.choice([s for s in (0, 1, 2) if s != old])
            delta = anneal.flip_delta(k, new)
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                anneal.apply(k, new, delta)
            if it % 8192 == 8191:
                # guard against delta drift; a mismatch here is a bug
                full = anneal._full_energy()
                if anneal.energy != full:
                    raise VerificationError(
                        f"annealer energy drifted at move {it}: "
                        f"incremental {anneal.energy}, recomputed {full}"
                    )
        if anneal.energy == 0:
            digraph = BitDigraph(order, anneal.build_out())
            if not has_transitive_set(digraph, 3) and not digraph_independent(digraph, m):
                return digraph
    return None


def reference_alpha_lower_search(n: int, m: int, pool, *, node_budget=None):
    """The plain include-first recursion that `alpha_lower_search` replaced:
    one call per node, one clique test per take, its own dot-product rows.
    Returns an `AlphaSearchResult` with the same family, exact flag and
    node count the fast search must reproduce."""
    if pool.dimension != n:
        raise ValueError("pool dimension mismatch")
    size = len(pool)
    vecs = pool.vectors
    # adjacency of the NON-orthogonality graph
    nonortho = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if dot(vecs[i], vecs[j]) != 0:
                nonortho[i] |= 1 << j
                nonortho[j] |= 1 << i

    best_mask = 0
    best_size = 0
    nodes = 0
    budget_hit = False

    def branch(idx: int, chosen: int, count: int) -> None:
        nonlocal best_mask, best_size, nodes, budget_hit
        if budget_hit:
            return
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            budget_hit = True
            return
        if count > best_size:
            best_size = count
            best_mask = chosen
        if idx == size or count + (size - idx) <= best_size:
            return
        # take idx only if it closes no (m+1)-clique of pairwise
        # non-orthogonal vectors
        if find_clique_in(nonortho, chosen & nonortho[idx], m) is None:
            branch(idx + 1, chosen | (1 << idx), count + 1)
        branch(idx + 1, chosen, count)

    branch(0, 0, 0)
    family = VectorFamily(n, tuple(vecs[i] for i in bits(best_mask)))
    return AlphaSearchResult(family, not budget_hit, nodes)


def reference_dr_bounds(n: int, m: int, known=None) -> tuple[int, int]:
    """The interval arithmetic that `dr_bounds` replaced: it also capped
    each upper bound with a known R(a, a, b) and seeded the memo
    with a provisional interval before recursing.  `dr_bounds` must return
    the same interval."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    # classical Ramsey numbers by sorted clique sizes (Greenwood and Gleason, 1955)
    classical = {(3, 3): 6, (3, 4): 9, (3, 3, 3): 17}
    known = known or {}
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def bound(a: int, b: int) -> tuple[int, int]:
        if (a, b) in memo:
            return memo[(a, b)]
        if a == 1 or b == 1:
            memo[(a, b)] = (1, 1)
            return (1, 1)
        if (a, b) in known:
            v = known[(a, b)]
            memo[(a, b)] = (v, v)
            return (v, v)
        memo[(a, b)] = (2, 1 << 62)
        lo_left, hi_left = bound(a - 1, b)
        lo_down, hi_down = bound(a, b - 1)
        hi = 2 * hi_left + hi_down - 1
        lo = max(a, b, lo_left, lo_down)
        lo = max(lo, classical.get(tuple(sorted((a, b))), 0))
        hi = min(hi, classical.get(tuple(sorted((a, a, b))), hi))
        if b == 2:
            lo = max(lo, math.isqrt((1 << (a - 1)) - 1) + 1)
            hi = min(hi, 1 << (a - 1))
        if lo > hi:
            raise AssertionError(f"inconsistent dr bounds for ({a},{b}): [{lo},{hi}]")
        memo[(a, b)] = (lo, hi)
        return (lo, hi)

    return bound(n, m)


def reference_circulant_is_good(q: int, diffs: Iterable[int], n: int, m: int) -> bool:
    """True iff circulant_digraph(q, diffs) has no transitive n-tuple and no
    independent m-set, searched from vertex 0 on rows rotated from its own."""
    full = (1 << q) - 1
    out0 = in0 = 0
    for d in diffs:
        out0 |= 1 << d
        in0 |= 1 << (q - d)  # d -> 0
    rows = [((out0 << i) | (out0 >> (q - i))) & full for i in range(q)]
    if find_transitive_in(rows, (out0,), n - 1) is not None:
        return False
    na0 = full ^ (out0 | in0 | 1)
    na_rows = [((na0 << i) | (na0 >> (q - i))) & full for i in range(q)]
    return find_clique_in(na_rows, na0, m - 1) is None


def reference_probe_circulants(
    n: int, m: int, max_q: int, *, min_q: int = 2, budget: Optional[Budget] = None
) -> Optional[BitDigraph]:
    """The four-state scan that `probe_circulants` replaced: deepest good
    circulant digraph with order in [min_q, max_q], if any.

    Scans every way of taking each difference pair {d, q-d} as absent,
    forward, backward, or doubled, in deterministic order; returns the
    first good configuration at the largest feasible order, or None once
    `budget` is hit; the clock is checked per configuration, no nodes spent.
    The lemma scan must reach the same largest order.
    """
    for q in range(max_q, min_q - 1, -1):
        half_pairs = [(d, q - d) for d in range(1, (q + 1) // 2)]
        self_paired = q % 2 == 0 and q >= 2
        state_ranges = [range(4)] * len(half_pairs)
        if self_paired:
            state_ranges = state_ranges + [range(2)]
        for config in product(*state_ranges):
            if budget is not None and budget.out_of_time():
                return None
            diffs = []
            for (d, dneg), st in zip(half_pairs, config):
                if st & 1:
                    diffs.append(d)
                if st & 2:
                    diffs.append(dneg)
            if self_paired and config[-1]:
                diffs.append(q // 2)
            if reference_circulant_is_good(q, diffs, n, m):
                return circulant_digraph(q, diffs)
    return None


def reference_layered_from_digraph(digraph: BitDigraph, depth: int) -> PartitionedGraph:
    """The arc-by-arc loops that `constructions.layered_from_digraph`
    replaced: layered blowup of a digraph, classes the rows.

    Vertices (i, s) and (j, u) are adjacent iff the digraph has the arc
    i -> j and s < u, or the arc j -> i and u < s.  If the digraph has no
    transitive n-set the output is K_n-free: a clique would order its
    layer indices by the second coordinate and read off a transitive
    tuple.  Vertex (i, s) is numbered i * depth + s, so each class is a
    contiguous block.
    """
    if digraph.order < 1:
        raise ValueError("digraph must have at least one vertex")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    r, t = digraph.order, depth
    n_vertices = r * t
    adj = [0] * n_vertices
    for i in range(r):
        for j in bits(digraph.out[i]):
            for s in range(t):
                for u in range(s + 1, t):
                    a, b = i * t + s, j * t + u
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
    graph = UGraph(n_vertices, adj)
    classes = tuple(frozenset(range(i * t, (i + 1) * t)) for i in range(r))
    return PartitionedGraph(graph, classes)


def reference_tensor(g: UGraph, h: UGraph) -> UGraph:
    """The bit-by-bit loops that `constructions.tensor` replaced: blowup
    product on V(g) x V(h): (u, v) ~ (u', v') iff u = u' and vv' is an edge
    of h, or uu' is an edge of g.

    Vertex (u, v) is numbered u * h.order + v.  tensor(K_n, E_t) blows each
    vertex of K_n into an independent set of size t; its independent sets
    are exactly the subsets of single fibers.
    """
    nh = h.order
    n_vertices = g.order * nh
    adj = [0] * n_vertices
    for u in range(g.order):
        base = u * nh
        for v in range(nh):
            row = 0
            for w in bits(h.adj[v]):
                row |= 1 << (base + w)
            for u2 in bits(g.adj[u]):
                row |= ((1 << nh) - 1) << (u2 * nh)
            adj[base + v] = row
    return UGraph(n_vertices, adj)


def naive_adjacency_faults(order: int, adj) -> set:
    """Every fault of an adjacency list as a UGraph, by a full double scan:
    ("range", v) for a row that is negative or has a bit at or above
    order, ("loop", v) for a self-loop, and ("asym", u, v) with u < v for
    a pair that only one of the two rows holds.  Empty iff the rows are a
    loop-free symmetric adjacency."""
    faults = set()
    for v, row in enumerate(adj):
        if row < 0 or row >= 1 << order:
            faults.add(("range", v))
        if row >> v & 1:
            faults.add(("loop", v))
    for u in range(order):
        for v in range(u + 1, order):
            if adj[u] >> v & 1 != adj[v] >> u & 1:
                faults.add(("asym", u, v))
    return faults


# ---------------------------------------------------------------------------
# references kept from the two-class partition layer before its rewrite:
# the two-closure balanced embedding, the two-row witnesses driven by the
# subset-pair enumerator, and the combinations-based Ramsey brute force.
# Apart from their names they are verbatim, except that the embedding
# computes the right-neighbour sets inline.
# ---------------------------------------------------------------------------


def reference_balanced_induced_embed(
    host: PartitionedGraph,
    pattern: BipartitePattern,
    *,
    node_budget: Optional[int] = None,
) -> EmbedOutcome:
    """Induced embedding of a bipartite pattern with its sides landing in
    the two distinct classes of the host.

    Tries the left side in class 0 first, then in class 1; within an
    assignment vertices are mapped in ascending host order with adjacency
    signature pruning, so the first embedding found is the
    lexicographically least under that preference order.
    """
    if pattern.left_size < 1 or pattern.right_size < 1:
        raise ValueError("pattern sides must be nonempty")
    if host.num_classes != 2:
        raise ValueError("host must have exactly 2 classes")
    budget = Budget(node_budget)
    g = host.graph
    adj = g.adj
    class_masks = host.class_masks()
    right_nbrs = [
        frozenset(a for a, b in pattern.cross_edges if b == j)
        for j in range(pattern.right_size)
    ]

    def try_assignment(left_cls: int) -> Optional[EmbeddingReport]:
        lmask = class_masks[left_cls]
        rmask = class_masks[1 - left_cls]
        left_images: list[int] = []
        right_images: list[int] = []

        def place_right(j: int, used: int) -> bool:
            if j == pattern.right_size:
                return True
            want = right_nbrs[j]
            for v in bits(rmask & ~used):
                if not budget.spend():
                    raise BudgetExceeded
                ok = all(
                    g.has_edge(left_images[i], v) == (i in want)
                    for i in range(pattern.left_size)
                ) and not any(adj[v] & (1 << u) for u in right_images)
                if ok:
                    right_images.append(v)
                    if place_right(j + 1, used | (1 << v)):
                        return True
                    right_images.pop()
            return False

        def place_left(i: int, used: int) -> bool:
            if i == pattern.left_size:
                return place_right(0, used)
            for v in bits(lmask & ~used):
                if not budget.spend():
                    raise BudgetExceeded
                if any(adj[v] & (1 << u) for u in left_images):
                    continue
                left_images.append(v)
                if place_left(i + 1, used | (1 << v)):
                    return True
                left_images.pop()
            return False

        if place_left(0, 0):
            return EmbeddingReport(
                tuple(left_images), tuple(right_images), (left_cls, 1 - left_cls)
            )
        return None

    for left_cls in (0, 1):
        try:
            report = try_assignment(left_cls)
        except BudgetExceeded:
            return EmbedOutcome(None, False, budget.nodes, budget.reason)
        if report is not None:
            if not report.verify(host, pattern):
                raise AssertionError("embedding failed its own re-verification")
            return EmbedOutcome(report, True, budget.nodes)
    return EmbedOutcome(None, True, budget.nodes)


def _subset_pairs_lex(ids: Sequence[int]):
    """Pairs of subsets ordered by (total size, first set, second set)."""
    n = len(ids)
    for total in range(0, 2 * n + 1):
        layer = []
        for size_a in range(0, min(total, n) + 1):
            size_b = total - size_a
            if size_b > n:
                continue
            for aset in combinations(ids, size_a):
                for bset in combinations(ids, size_b):
                    layer.append((aset, bset))
        layer.sort()
        yield from layer


def reference_partition_extension_witness(
    g: UGraph, a: Iterable[int], b: Iterable[int], n: int, pair_budget: int
) -> PartitionedGraph:
    """Finite two-class extension of a K_n-free graph around a vertex split.

    Fresh vertices W are appended after V(g).  The first pair_budget pairs
    (a_k, b_k) of subsets of V(g) u W are processed in (total size, lex)
    order: when b_k induces a K_{n-1}-free subgraph, the next still
    isolated vertex of W outside a_k u b_k is connected to every vertex of
    b_k.  Returns classes V_0 = W u a and V_1 = b.  The input graph sits
    inside the output induced and identically labelled, and the output is
    K_n-free whenever g is.
    """
    if has_clique(g, n):
        raise ValueError("input graph must be K_n-free")
    aset, bset = frozenset(a), frozenset(b)
    if aset & bset or aset | bset != frozenset(range(g.order)):
        raise ValueError("a and b must partition the vertices of g")
    if pair_budget < 0:
        raise ValueError("pair_budget must be >= 0")
    total = g.order + pair_budget
    adj = list(g.adj) + [0] * pair_budget
    free_w = list(range(g.order, total))
    processed = 0
    for pair in _subset_pairs_lex(list(range(total))):
        if processed >= pair_budget or not free_w:
            break
        processed += 1
        a_k, b_k = pair
        bmask = mask_of(b_k)
        if find_clique_in(adj, bmask, n - 1) is not None:
            continue
        used = set(a_k) | set(b_k)
        w = next((v for v in free_w if v not in used), None)
        if w is None:
            continue
        free_w.remove(w)
        adj[w] = bmask
        for u in b_k:
            adj[u] |= 1 << w
    graph = UGraph(total, adj)
    classes = (
        frozenset(range(g.order, total)) | aset,
        bset,
    )
    return PartitionedGraph(graph, classes)


def reference_rado_partition_witness(depth: int) -> PartitionedGraph:
    """Finite truncation of the half-graph-based two-row partition witness.

    Start from the half graph on rows of size depth: (k, 0) ~ (l, 1) iff
    k < l.  Pairs (a_j, b_j) of subsets of the vertex set are enumerated by
    total size then lexicographically on (b_j, a_j); each step computes
    m_j = max{k : (k, i) in a_j u b_j} + m_{j-1} and, while m_j stays below
    depth, connects (m_j, 0) to every vertex of a_j.  Rows are the two
    classes.  Row 1 never gains internal edges, so every clique meets it
    in at most one vertex.

    The index sequence m_j grows with every processed pair, so the pairs
    whose a_j is nonempty (the only ones that add edges) must come first
    within each size layer; comparing b_j before a_j achieves that.

    Vertex (k, i) is numbered i * depth + k.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    adj = [0] * (2 * depth)
    for k in range(depth):
        for l in range(k + 1, depth):
            a, b = k, depth + l
            adj[a] |= 1 << b
            adj[b] |= 1 << a

    def row_index(v: int) -> int:
        return v % depth if v < depth else v - depth

    m_prev = 0
    for b_j, a_j in _subset_pairs_lex(list(range(2 * depth))):
        members = a_j + b_j
        top = max((row_index(v) for v in members), default=0)
        m_j = top + m_prev
        m_prev = m_j
        if m_j >= depth:
            break
        left = m_j  # vertex (m_j, 0)
        for v in a_j:
            if v != left:
                adj[left] |= 1 << v
                adj[v] |= 1 << left
    graph = UGraph(2 * depth, adj)
    return PartitionedGraph(
        graph,
        (frozenset(range(depth)), frozenset(range(depth, 2 * depth))),
    )


def reference_two_colour_ramsey_holds(s: int, t: int, r: int) -> bool:
    """Brute force: does every red/blue colouring of K_r contain a red K_s
    or a blue K_t?  Only feasible for tiny r (used to verify R(3,3)=6).
    """
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    idx = {p: k for k, p in enumerate(pairs)}

    def has_mono(colouring: int, colour: int, size: int) -> bool:
        from itertools import combinations

        for combo in combinations(range(r), size):
            if all(
                ((colouring >> idx[(a, b)]) & 1) == colour
                for a, b in ((a, b) for a in combo for b in combo if a < b)
            ):
                return True
        return False

    for colouring in range(1 << len(pairs)):
        if not has_mono(colouring, 0, s) and not has_mono(colouring, 1, t):
            return False
    return True


def naive_balanced_embed(host: PartitionedGraph, pattern) -> bool:
    """Whether some injective map of the left side into one class and of
    the right side into the other is an induced embedding, by trying every
    such map under both side assignments."""
    g = host.graph
    left, right = range(pattern.left_size), range(pattern.right_size)
    for left_cls in (0, 1):
        for limg in permutations(sorted(host.classes[left_cls]), pattern.left_size):
            if any(g.has_edge(u, v) for u, v in combinations(limg, 2)):
                continue
            for rimg in permutations(sorted(host.classes[1 - left_cls]), pattern.right_size):
                if any(g.has_edge(u, v) for u, v in combinations(rimg, 2)):
                    continue
                if all(
                    g.has_edge(limg[i], rimg[j]) == ((i, j) in pattern.cross_edges)
                    for i in left
                    for j in right
                ):
                    return True
    return False


# ---------------------------------------------------------------------------
# reference graph6 / digraph6 codec: one list entry per bit, one loop per
# order width, packed and unpacked group by group
# ---------------------------------------------------------------------------


def _reference_decode_order(data: str) -> tuple[int, str]:
    if not data:
        raise MalformedInput("empty input")
    if data[0] != "~":
        n = ord(data[0]) - 63
        if not 0 <= n <= 62:
            raise MalformedInput(f"bad order byte {data[0]!r}")
        return n, data[1:]
    if len(data) >= 2 and data[1] != "~":
        if len(data) < 4:
            raise MalformedInput("truncated 3-byte order")
        n = 0
        for ch in data[1:4]:
            v = ord(ch) - 63
            if not 0 <= v <= 63:
                raise MalformedInput(f"bad order byte {ch!r}")
            n = (n << 6) | v
        if n <= 62:
            raise MalformedInput(f"order {n} written in the 3-byte form")
        return n, data[4:]
    if len(data) < 8:
        raise MalformedInput("truncated 6-byte order")
    n = 0
    for ch in data[2:8]:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise MalformedInput(f"bad order byte {ch!r}")
        n = (n << 6) | v
    if n <= 258047:
        raise MalformedInput(f"order {n} written in the 6-byte form")
    return n, data[8:]


def _reference_encode_order(n: int) -> str:
    if n < 0:
        raise MalformedInput("negative order")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise MalformedInput(f"order {n} exceeds format range")


def _reference_pack_bits(bits_seq: list[int]) -> str:
    out = []
    for i in range(0, len(bits_seq), 6):
        group = bits_seq[i : i + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def _reference_unpack_bits(data: str, nbits: int) -> list[int]:
    need = (nbits + 5) // 6
    if len(data) != need:
        raise MalformedInput(f"expected {need} data bytes, got {len(data)}")
    bits_seq: list[int] = []
    for ch in data:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise MalformedInput(f"bad data byte {ch!r}")
        for s in range(5, -1, -1):
            bits_seq.append((v >> s) & 1)
    for b in bits_seq[nbits:]:
        if b:
            raise MalformedInput("nonzero padding bits")
    return bits_seq[:nbits]


def reference_encode_graph6(g: UGraph) -> str:
    n = g.order
    bits_seq = []
    for j in range(1, n):
        for i in range(j):
            bits_seq.append((g.adj[i] >> j) & 1)
    return _reference_encode_order(n) + _reference_pack_bits(bits_seq)


def reference_decode_graph6(line: str) -> UGraph:
    data = line.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    n, rest = _reference_decode_order(data)
    bits_seq = _reference_unpack_bits(rest, n * (n - 1) // 2)
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits_seq[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return UGraph(n, adj)


def reference_encode_digraph6(d: BitDigraph) -> str:
    n = d.order
    bits_seq = []
    for i in range(n):
        for j in range(n):
            bits_seq.append((d.out[i] >> j) & 1)
    return "&" + _reference_encode_order(n) + _reference_pack_bits(bits_seq)


def reference_decode_digraph6(line: str) -> BitDigraph:
    data = line.strip()
    if data.startswith(">>digraph6<<"):
        data = data[len(">>digraph6<<") :]
    if not data.startswith("&"):
        raise MalformedInput("digraph6 line must start with '&'")
    n, rest = _reference_decode_order(data[1:])
    if n > 128:
        raise MalformedInput(f"digraph6 order {n} exceeds 128")
    bits_seq = _reference_unpack_bits(rest, n * n)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if bits_seq[i * n + j]:
                if i == j:
                    raise MalformedInput(f"self-loop at vertex {i}")
                out[i] |= 1 << j
    return BitDigraph(n, out)

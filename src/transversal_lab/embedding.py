"""Finite analyzers for bipartite embedding structure: half-graph order
between two vertex sets, the rich-pair dichotomy surrogate, and balanced
induced embedding of a bipartite pattern into a 2-class partitioned graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .constructions import PartitionedGraph
from .errors import BudgetExceeded, VerificationError
from .graphs import Budget, UGraph, bits, mask_of


@dataclass(frozen=True)
class BipartitePattern:
    """A finite bipartite graph given by side sizes and cross edges.

    Edges are pairs (left index, right index), 0-based within each side.
    """

    left_size: int
    right_size: int
    cross_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for edge in self.cross_edges:
            if len(edge) != 2:
                raise ValueError(f"pattern edge {edge} must have two ends")
            a, b = edge
            if not (0 <= a < self.left_size and 0 <= b < self.right_size):
                raise ValueError(f"edge ({a},{b}) outside declared sides")


SINGLE_EDGE = BipartitePattern(1, 1, frozenset({(0, 0)}))


# ---------------------------------------------------------------------------
# half-graph order
# ---------------------------------------------------------------------------


@dataclass
class HalfOrderResult:
    order: int
    exact: bool
    a_sequence: tuple[int, ...]
    b_sequence: tuple[int, ...]
    nodes: int = 0
    budget_reason: Optional[str] = None  # "nodes" when the node budget ended the search

    def verify(self, g: UGraph, a: Iterable[int], b: Iterable[int]) -> bool:
        """True iff the 2k vertices are distinct, a_sequence lies in a and
        b_sequence in b, and a_i b_j is an edge for all i < j."""
        k = self.order
        if len(self.a_sequence) != k or len(self.b_sequence) != k:
            return False
        if not (set(self.a_sequence) <= set(a) and set(self.b_sequence) <= set(b)):
            return False
        if len(set(self.a_sequence) | set(self.b_sequence)) != 2 * k:
            return False
        for i in range(k):
            for j in range(i + 1, k):
                if not g.has_edge(self.a_sequence[i], self.b_sequence[j]):
                    return False
        return True


def _assign_b_sequence(g: UGraph, a_seq: tuple[int, ...], bmask: int) -> tuple[int, ...]:
    """Distinct b_1..b_k with b_j adjacent to a_1..a_{j-1}; the pools are
    nested, so assigning from the tightest pool upward always succeeds
    when the size conditions hold."""
    k = len(a_seq)
    pools = [bmask]
    for v in a_seq[:-1]:
        pools.append(pools[-1] & g.adj[v])
    chosen: dict[int, int] = {}
    used = 0
    for j in range(k - 1, -1, -1):
        pick = next(v for v in bits(pools[j] & ~used))
        chosen[j] = pick
        used |= 1 << pick
    return tuple(chosen[j] for j in range(k))


def half_graph_order(
    g: UGraph,
    a: Iterable[int],
    b: Iterable[int],
    *,
    exact_cap: int = 6,
    node_budget: Optional[int] = None,
) -> HalfOrderResult:
    """Largest k such that the half graph H_{k,k} embeds into g[a, b] as a
    subgraph: sequences a_1..a_k from a and b_1..b_k from b with the edge
    a_i b_j present whenever i < j; all other pairs are unconstrained.

    For a fixed a-side sequence the b-candidate pools
    S_j = b n N(a_1) n ... n N(a_{j-1}) are nested, so distinct b_j exist
    iff |S_j| >= k - j + 1 for every j, and the certified order of an
    a-prefix is min(length, min_j(|S_j| + j - 1)).  The search is exact
    for answers up to exact_cap and extends the best prefix greedily
    beyond; nonempty sides always certify order >= 1 since the single
    pair carries no required edge.
    """
    if exact_cap < 0:
        raise ValueError("exact_cap must be >= 0")
    amask, bmask = g.vertex_mask(a), g.vertex_mask(b)
    return _half_graph_order(g, amask, bmask, exact_cap, Budget(node_budget))


def _half_graph_order(
    g: UGraph, amask: int, bmask: int, exact_cap: int, budget: Budget
) -> HalfOrderResult:
    """half_graph_order on side masks, spending from `budget`; the result
    counts the nodes this call spent."""
    if amask & bmask:
        raise ValueError("sides must be disjoint")
    if amask == 0 or bmask == 0:
        return HalfOrderResult(0, True, (), ())
    adj = g.adj
    start = budget.nodes
    best_k = 0
    best_seq: tuple[int, ...] = ()

    def record(seq: list[int], fmin: int) -> None:
        nonlocal best_k, best_seq
        depth = len(seq)
        cert = min(depth, fmin)
        if cert > best_k:
            best_k = cert
            best_seq = tuple(seq[:cert])

    def search(seq: list[int], used: int, pool: int, fmin: int) -> None:
        """pool = b n N(all chosen); fmin = min over pools seen so far of
        |S_j| + j - 1, covering indices j = 1..len(seq)."""
        depth = len(seq)
        if depth >= exact_cap + 1:
            return
        # appending any vertex makes S_{depth+1} = pool the binding pool
        next_fmin_cap = min(fmin, pool.bit_count() + depth)
        potential = min(depth + (amask & ~used).bit_count(), next_fmin_cap)
        if depth >= 1 and potential <= best_k:
            return
        for v in bits(amask & ~used):
            if not budget.spend():
                raise BudgetExceeded
            new_fmin = min(fmin, pool.bit_count() + depth)
            seq.append(v)
            record(seq, new_fmin)
            search(seq, used | (1 << v), pool & adj[v], new_fmin)
            seq.pop()

    try:
        search([], 0, bmask, 1 << 30)
    except BudgetExceeded:
        pass

    exact = not budget.hit and best_k <= exact_cap
    if not budget.hit and best_k == exact_cap + 1:
        # greedy extension: keep appending the a-vertex that preserves the
        # largest next pool, updating the certified order as it grows
        seq = list(best_seq)
        used = mask_of(seq)
        pool = bmask
        fmin = 1 << 30
        for idx, v in enumerate(seq):
            fmin = min(fmin, pool.bit_count() + idx)
            pool &= adj[v]
        while True:
            remaining = amask & ~used
            if not remaining:
                break
            v = max(bits(remaining), key=lambda u: ((pool & adj[u]).bit_count(), -u))
            fmin = min(fmin, pool.bit_count() + len(seq))
            seq.append(v)
            used |= 1 << v
            pool &= adj[v]
            cert = min(len(seq), fmin)
            if cert <= best_k:
                seq.pop()
                break
            best_k = cert
            best_seq = tuple(seq[:cert])
    a_seq = best_seq
    b_seq = _assign_b_sequence(g, a_seq, bmask) if best_k else ()
    return HalfOrderResult(best_k, exact, a_seq, b_seq, budget.nodes - start, budget.reason)


# ---------------------------------------------------------------------------
# rich-pair dichotomy surrogate
# ---------------------------------------------------------------------------


@dataclass
class RichPairVerdict:
    kind: str  # empty_pair | half_graph | inconclusive
    # witness sides in structure order: for a half_graph verdict with
    # direction "ba" the a_witness vertices come from the b input
    a_witness: tuple[int, ...] = ()
    b_witness: tuple[int, ...] = ()
    direction: str = "ab"
    budget_reason: Optional[str] = None  # "nodes" when the node budget cut a phase short


def _find_empty_biclique(
    g: UGraph, amask: int, bmask: int, k: int, budget: Budget
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """k vertices from each side with no cross edge at all (a K_{k,k} in
    the bipartite complement), lexicographically least on the a side.
    Raises BudgetExceeded when `budget` runs out first."""
    adj = g.adj

    def rec(chosen: list[int], avail_a: int, cand_b: int) -> Optional[tuple]:
        if len(chosen) == k:
            picks = []
            rest = cand_b
            for _ in range(k):
                low = rest & -rest
                picks.append(low.bit_length() - 1)
                rest ^= low
            return tuple(chosen), tuple(picks)
        for v in bits(avail_a):
            if not budget.spend():
                raise BudgetExceeded
            nb = cand_b & ~adj[v]
            if nb.bit_count() < k:
                continue
            if (avail_a & ~((1 << (v + 1)) - 1)).bit_count() + len(chosen) + 1 < k:
                return None
            got = rec(chosen + [v], avail_a & ~((1 << (v + 1)) - 1), nb)
            if got is not None:
                return got
        return None

    return rec([], amask, bmask)


def rich_pair_surrogate(
    g: UGraph,
    a: Iterable[int],
    b: Iterable[int],
    k: int,
    *,
    node_budget: Optional[int] = None,
) -> RichPairVerdict:
    """Finite surrogate of the rich-pair dichotomy: first look for a
    cross-empty K_{k,k} between the sides, then for a half-graph witness
    of order k in either direction, else report inconclusive.

    One node budget covers all three phases.  A budget stop ends the call;
    its verdict names the budget in budget_reason, and is inconclusive
    unless the stopped half-graph phase had already certified order k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    amask, bmask = g.vertex_mask(a), g.vertex_mask(b)
    if amask.bit_count() < k or bmask.bit_count() < k:
        raise ValueError("both sides must have at least k vertices")
    budget = Budget(node_budget)
    try:
        found = _find_empty_biclique(g, amask, bmask, k, budget)
    except BudgetExceeded:
        return RichPairVerdict("inconclusive", budget_reason=budget.reason)
    if found is not None:
        return RichPairVerdict("empty_pair", found[0], found[1])
    for direction, (side1, side2) in (("ab", (amask, bmask)), ("ba", (bmask, amask))):
        res = _half_graph_order(g, side1, side2, k, budget)
        if res.order >= k:
            return RichPairVerdict(
                "half_graph", res.a_sequence[:k], res.b_sequence[:k], direction,
                budget.reason,
            )
        if budget.hit:
            break
    return RichPairVerdict("inconclusive", budget_reason=budget.reason)


# ---------------------------------------------------------------------------
# balanced induced embedding
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingReport:
    """A verified induced embedding of a bipartite pattern into a host
    graph; side_assignment records which host class received the left side
    and which the right.
    """

    left_images: tuple[int, ...]
    right_images: tuple[int, ...]
    side_assignment: tuple[int, int]

    def verify(self, host: PartitionedGraph, pattern: BipartitePattern) -> bool:
        imgs = self.left_images + self.right_images
        if len(set(imgs)) != len(imgs):
            return False
        if len(self.left_images) != pattern.left_size:
            return False
        if len(self.right_images) != pattern.right_size:
            return False
        g = host.graph
        left_cls, right_cls = self.side_assignment
        if not all(v in host.classes[left_cls] for v in self.left_images):
            return False
        if not all(v in host.classes[right_cls] for v in self.right_images):
            return False
        for i in range(pattern.left_size):
            for j in range(pattern.right_size):
                if g.has_edge(self.left_images[i], self.right_images[j]) != (
                    (i, j) in pattern.cross_edges
                ):
                    return False
        for side in (self.left_images, self.right_images):
            for i, u in enumerate(side):
                for v in side[i + 1 :]:
                    if g.has_edge(u, v):
                        return False
        return True


@dataclass
class EmbedOutcome:
    report: Optional[EmbeddingReport]
    exact: bool  # True when absence is backed by an exhausted search
    nodes: int = 0
    budget_reason: Optional[str] = None  # "nodes" when the node budget ended the search


def balanced_induced_embed(
    host: PartitionedGraph,
    pattern: BipartitePattern,
    *,
    node_budget: Optional[int] = None,
) -> EmbedOutcome:
    """Induced embedding of a bipartite pattern with its sides landing in
    the two distinct classes of the host.

    Tries the left side in class 0 first, then in class 1.  Within an
    assignment the pattern's vertices are placed in order, left 0..L-1
    then right 0..R-1.  Vertex p tries the unused vertices of its class in
    ascending order, spending one node on each, and keeps a candidate v
    iff adj[v] & placed is the set of images of p's earlier pattern
    neighbours: none for a left vertex, the images of its left neighbours
    for a right vertex.  So the first embedding found is the
    lexicographically least under that preference order.

    Lemma: that one test is the induced condition, vertex by vertex.  For
    a left vertex, placed holds the earlier left images, so the test says
    v is independent of them.  For a right vertex, placed holds the left
    images and the earlier right images, so the test says v meets exactly
    the wanted left images and no right image.  The unused vertices of the
    class are class & ~placed, as the images in the other class lie
    outside it.
    """
    if pattern.left_size < 1 or pattern.right_size < 1:
        raise ValueError("pattern sides must be nonempty")
    if host.num_classes != 2:
        raise ValueError("host must have exactly 2 classes")
    budget = Budget(node_budget)
    adj = host.graph.adj
    class_masks = host.class_masks()
    size = pattern.left_size
    wanted = [
        [i for i in range(size) if (i, j) in pattern.cross_edges]
        for j in range(pattern.right_size)
    ]
    images: list[int] = []

    def place(slots: list, p: int, placed: int) -> bool:
        """Place pattern vertices p.. given slots[p] = (its class mask, the
        left indices of its neighbours); True once all are placed."""
        if p == len(slots):
            return True
        cls, nbrs = slots[p]
        need = mask_of(images[i] for i in nbrs)
        for v in bits(cls & ~placed):
            if not budget.spend():
                raise BudgetExceeded
            if adj[v] & placed == need:
                images.append(v)
                if place(slots, p + 1, placed | 1 << v):
                    return True
                images.pop()
        return False

    for left_cls in (0, 1):
        lmask, rmask = class_masks[left_cls], class_masks[1 - left_cls]
        slots = [(lmask, [])] * size + [(rmask, nbrs) for nbrs in wanted]
        try:
            found = place(slots, 0, 0)
        except BudgetExceeded:
            return EmbedOutcome(None, False, budget.nodes, budget.reason)
        if found:
            report = EmbeddingReport(
                tuple(images[:size]), tuple(images[size:]), (left_cls, 1 - left_cls)
            )
            if not report.verify(host, pattern):
                raise VerificationError("embedding failed its own re-verification")
            return EmbedOutcome(report, True, budget.nodes)
    return EmbedOutcome(None, True, budget.nodes)

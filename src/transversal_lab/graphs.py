"""Core graph and digraph values plus the predicates everything else builds
on, and the node and time Budget every search spends from.

Both graph kinds store neighbourhoods as Python int bitsets (bit v set means
vertex v is a neighbour).  Values are immutable after construction, and
every operation on them is a pure function.

Vertex sets are plain ints used as bitmasks internally; the public API
accepts any iterable of vertex indices and converts.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Iterator, Optional, Sequence

DIGRAPH_MAX_ORDER = 128


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Budget:
    """Node and wall-clock limits for one search call, shared by all of its
    phases; every budgeted search in the toolkit builds one.

    A negative budget raises ValueError; None means no limit, and 0 is a
    limit that the first node crosses.  `limit` is the node budget, or
    math.inf without one; the deadline is fixed at construction.

    spend(k) adds k nodes and returns False once a limit is hit.  The spend
    that crosses the node limit clamps `nodes` to limit + 1, where a
    one-by-one count stops, so a search that counts a run of nodes in one
    step reports what a node-by-node walk would.  Later spends still add
    to `nodes`.  The clock is read when `nodes` is a multiple of 256, or
    by out_of_time().  `reason` names the limit hit first, "nodes" or
    "time", and stays set; None while neither is.  A hot loop may count
    in a local int and hand its count to spend() once room() nodes are
    taken, reading room() afresh after each spend().  A search unwinds on
    a stop by raising errors.BudgetExceeded.
    """

    __slots__ = ("limit", "deadline", "nodes", "reason")

    def __init__(self, node_budget: Optional[int] = None, time_budget: Optional[float] = None):
        if node_budget is not None and node_budget < 0:
            raise ValueError("node_budget must be >= 0")
        if time_budget is not None and time_budget < 0:
            raise ValueError("time_budget must be >= 0")
        self.limit = node_budget if node_budget is not None else math.inf
        self.deadline = time.monotonic() + time_budget if time_budget is not None else None
        self.nodes = 0
        self.reason: Optional[str] = None

    @property
    def hit(self) -> bool:
        return self.reason is not None

    def spend(self, k: int = 1) -> bool:
        self.nodes += k
        if self.reason is None:
            if self.nodes > self.limit:
                self.nodes = self.limit + 1
                self.reason = "nodes"
            elif (
                self.deadline is not None
                and self.nodes % 256 == 0
                and time.monotonic() > self.deadline
            ):
                self.reason = "time"
        return self.reason is None

    def room(self) -> float:
        """Nodes a loop counting in a local int may take before it must hand
        its count to spend(), which then stops where a spend() per node
        would: the node that passes the limit (the next node, once a limit
        is hit), or the one that brings `nodes` to a multiple of 256, where
        spend() reads the clock."""
        room = 0 if self.reason is not None else self.limit - self.nodes
        clock = 256 - self.nodes % 256 if self.deadline is not None else math.inf
        return min(room + 1, clock)

    def out_of_time(self) -> bool:
        """Check the clock without spending a node; True once a limit is hit."""
        if self.reason is None and self.deadline is not None and time.monotonic() > self.deadline:
            self.reason = "time"
        return self.reason is not None


class UGraph:
    """Loop-free undirected graph on vertices 0..order-1.

    Invariants: no self-loops, adjacency is symmetric.  Both are enforced
    at construction time.

    Half-triangle lemma: once no row has a bit outside 0..order-1 or on
    the diagonal, the adjacency is symmetric iff (a) every upper entry
    (bit u of row v, u > v) has its mirror (bit v of row u) and (b) the
    rows hold exactly twice as many set bits as there are upper entries.
    Mirroring is injective from upper to lower entries, so (a) gives at
    least as many lower entries as upper ones, and (b) then leaves no
    lower entry that is not a mirror.  The constructor checks (a) and (b)
    and so visits each edge once, not twice.
    """

    __slots__ = ("order", "adj")

    def __init__(self, order: int, adj: Sequence[int]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(adj) != order:
            raise ValueError("adjacency length must equal order")
        entries = upper_entries = 0
        for v, row in enumerate(adj):
            if row >> order:
                raise ValueError(f"vertex {v} has neighbours outside 0..{order - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            entries += row.bit_count()
            upper = row >> (v + 1)
            upper_entries += upper.bit_count()
            while upper:
                low = upper & -upper
                u = v + low.bit_length()
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                upper ^= low
        if entries != 2 * upper_entries:
            v, u = next(
                (v, u) for v in range(order) for u in bits(adj[v] & ((1 << v) - 1))
                if not (adj[u] >> v) & 1
            )
            raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.order = order
        self.adj = tuple(adj)

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "UGraph":
        adj = [0] * order
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(order, adj)

    @classmethod
    def empty(cls, order: int) -> "UGraph":
        return cls(order, [0] * order)

    @classmethod
    def complete(cls, order: int) -> "UGraph":
        full = (1 << order) - 1
        return cls(order, [full ^ (1 << v) for v in range(order)])

    @classmethod
    def cycle(cls, order: int) -> "UGraph":
        if order < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(order, [(v, (v + 1) % order) for v in range(order)])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.order) for v in bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def complement(self) -> "UGraph":
        full = (1 << self.order) - 1
        return UGraph(self.order, [full ^ self.adj[v] ^ (1 << v) for v in range(self.order)])

    def vertex_mask(self, vertices: Iterable[int]) -> int:
        """The mask of the given vertices; a vertex outside 0..order-1
        raises ValueError.  induced, is_independent and the embedding
        analyzers take their vertex sets through it, so one mistake gets
        one message."""
        mask = 0
        for v in vertices:
            if not 0 <= v < self.order:
                raise ValueError(f"vertex {v} outside 0..{self.order - 1}")
            mask |= 1 << v
        return mask

    def induced(self, vertices: Iterable[int]) -> "UGraph":
        """Subgraph induced by the given vertices, relabelled in ascending
        order; a vertex outside 0..order-1 raises ValueError."""
        verts = list(bits(self.vertex_mask(vertices)))
        pos = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for i, v in enumerate(verts):
            for u in bits(self.adj[v]):
                if u in pos:
                    adj[i] |= 1 << pos[u]
        return UGraph(len(verts), adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, UGraph) and self.order == other.order and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __repr__(self) -> str:
        return f"UGraph(order={self.order}, edges={self.edge_count()})"


class BitDigraph:
    """Loop-free directed graph on at most 128 vertices.

    2-cycles (u->v and v->u together) are legal; self-loops are not.
    """

    __slots__ = ("order", "out")

    def __init__(self, order: int, out: Sequence[int]):
        if not 0 <= order <= DIGRAPH_MAX_ORDER:
            raise ValueError(f"digraph order must be 0..{DIGRAPH_MAX_ORDER}")
        if len(out) != order:
            raise ValueError("out-neighbour list length must equal order")
        for v, row in enumerate(out):
            if row >> order:
                raise ValueError(f"vertex {v} has arcs outside 0..{order - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        self.order = order
        self.out = tuple(out)

    @classmethod
    def from_arcs(cls, order: int, arcs: Iterable[tuple[int, int]]) -> "BitDigraph":
        out = [0] * order
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            out[u] |= 1 << v
        return cls(order, out)

    @classmethod
    def empty(cls, order: int) -> "BitDigraph":
        return cls(order, [0] * order)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.order) for v in bits(self.out[u])]

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.out)

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.out[u] >> v) & 1)

    def in_masks(self) -> tuple[int, ...]:
        inn = [0] * self.order
        for u, row in enumerate(self.out):
            bit = 1 << u
            while row:
                low = row & -row
                inn[low.bit_length() - 1] |= bit
                row ^= low
        return tuple(inn)

    def nonadjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex mask of vertices with no arc in either direction."""
        full = (1 << self.order) - 1
        inn = self.in_masks()
        return tuple(
            full ^ (self.out[v] | inn[v] | (1 << v)) for v in range(self.order)
        )

    def relabel(self, perm: Sequence[int]) -> "BitDigraph":
        """Digraph with vertex v renamed perm[v]."""
        out = [0] * self.order
        for u in range(self.order):
            row = 0
            for v in bits(self.out[u]):
                row |= 1 << perm[v]
            out[perm[u]] = row
        return BitDigraph(self.order, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitDigraph)
            and self.order == other.order
            and self.out == other.out
        )

    def __hash__(self) -> int:
        return hash((self.order, self.out))

    def __repr__(self) -> str:
        return f"BitDigraph(order={self.order}, arcs={self.arc_count()})"


# ---------------------------------------------------------------------------
# clique / independence predicates
# ---------------------------------------------------------------------------


def find_clique_in(
    nbr: Sequence[int], cand: int, k: int, flip: int = 0
) -> Optional[tuple[int, ...]]:
    """Lexicographically least k-subset of the mask `cand` whose members are
    pairwise joined in `nbr`, or None.

    Vertices u and v count as joined when bit v of nbr[u] ^ flip is set, so
    flip=-1 searches the complement (independent sets) without building
    complement rows.  Depth-first over candidates in ascending order,
    intersecting each with the chosen vertex's row, so the first complete
    branch is the lexicographically least witness.  k = 0 gives ().  The
    last two members are read off the masks without a further call.
    """
    if k <= 1:
        if k <= 0:
            return ()
        return ((cand & -cand).bit_length() - 1,) if cand else None
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if cand.bit_count() + 1 < k:
            return None
        rest = cand & (nbr[v] ^ flip)
        if k == 2:
            if rest:
                return (v, (rest & -rest).bit_length() - 1)
        else:
            found = find_clique_in(nbr, rest, k - 1, flip)
            if found is not None:
                return (v,) + found
    return None


def clique_closure_in(nbr: Sequence[int], base: int, reach: int, k: int) -> int:
    """The vertices of the mask `reach` joined in `nbr` to every member of
    some k-subset of the mask `base` whose members are pairwise joined.

    With symmetric rows, as a graph's are, w is in the result exactly when
    find_clique_in(nbr, base & nbr[w], k) finds a clique; here the
    k-cliques of `base` are walked once, not once per w.  Depth-first over
    `base` in ascending order, lowest vertex first, each branch keeping
    only the part of `reach` joined to the members so far and not yet in
    the result; a branch stops as soon as that part is empty, and a
    complete clique adds all of it.  k = 0 gives `reach`; k = 1 gives the
    part of `reach` in the union of the rows of `base`.
    """
    if k <= 0:
        return reach
    closed = 0
    while base and reach:
        low = base & -base
        base ^= low
        row = nbr[low.bit_length() - 1]
        if k == 1:
            hit = reach & row
        else:
            if base.bit_count() + 1 < k:
                break
            hit = clique_closure_in(nbr, base & row, reach & row, k - 1) if reach & row else 0
        closed |= hit
        reach ^= hit
    return closed


def count_cliques_in(nbr: Sequence[int], cand: int, k: int) -> int:
    """Number of k-subsets of the mask `cand` pairwise joined in `nbr`."""
    if k <= 1:
        return 1 if k <= 0 else cand.bit_count()
    total = 0
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        if cand.bit_count() + 1 < k:
            break
        rest = cand & nbr[v]
        total += rest.bit_count() if k == 2 else count_cliques_in(nbr, rest, k - 1)
    return total


def find_clique(g: UGraph, k: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least k-clique of g, or None."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > g.order:
        return None
    return find_clique_in(g.adj, (1 << g.order) - 1, k)


def has_clique(g: UGraph, k: int) -> bool:
    """True iff some k vertices of g are pairwise adjacent."""
    return find_clique(g, k) is not None


def is_independent(g: UGraph, vertices: Iterable[int]) -> bool:
    """True iff no two of the given vertices are adjacent in g; a vertex
    outside g raises ValueError, naming it (UGraph.vertex_mask)."""
    m = g.vertex_mask(vertices)
    for v in bits(m):
        if g.adj[v] & m:
            return False
    return True


def max_independent_set(g: UGraph) -> tuple[int, int]:
    """Lexicographically least maximum independent set of g, as
    (size, vertex mask).

    Asks the clique kernel on the complement for an independent k-set with
    k = 1, 2, ... until none exists; the last set found is the answer.
    """
    full = (1 << g.order) - 1
    best: tuple[int, ...] = ()
    while True:
        found = find_clique_in(g.adj, full, len(best) + 1, -1)
        if found is None:
            return len(best), mask_of(best)
        best = found


def independence_number(g: UGraph) -> int:
    """Exact maximum independent-set size of g."""
    return max_independent_set(g)[0]


def has_independent_set(g: UGraph, k: int, within: Optional[int] = None) -> bool:
    """True iff g has an independent set of size k (optionally inside a mask).

    Early-exit search; cheaper than computing the full independence number
    when only a threshold matters.
    """
    if k <= 0:
        return True
    cand = (1 << g.order) - 1 if within is None else within
    return find_clique_in(g.adj, cand, k, -1) is not None


# ---------------------------------------------------------------------------
# digraph predicates
# ---------------------------------------------------------------------------


def find_transitive_in(
    out: Sequence[int], masks: Sequence[int], k: int
) -> Optional[tuple[int, ...]]:
    """A transitive k-tuple (v_1, ..., v_k), v_i -> v_j in `out` for i < j
    (reverse arcs ignored; rows carry no self-loop), with v_i in masks[p_i]
    and p_1 <= ... <= p_k; None if there is none, () for k = 0.

    Depth-first: the first member v runs over the masks in order, each in
    ascending order, and the rest is searched in out[v] & masks[p:], one
    mask when p is the last.  A vertex an earlier mask held is skipped, as
    every tuple it starts here it started there, so with one mask the
    result is the lexicographically least tuple.  Unlike in find_clique_in
    a later member may precede an earlier one, so a failed first member
    stays a candidate.  A member is tried only when k - 1 vertices of
    out[v] & masks[p:] are left to follow it, and the last is read off them.
    """
    if k <= 1:
        if k <= 0:
            return ()
        for mask in masks:
            if mask:
                return ((mask & -mask).bit_length() - 1,)
        return None
    last = len(masks) - 1
    done = 0
    for p, mask in enumerate(masks):
        tail = mask  # the union of masks[p:]
        for m in masks[p + 1 :]:
            tail |= m
        todo = mask & ~done
        done |= mask
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            todo ^= low
            rest = tail & out[v]
            if k == 2:
                if rest:
                    return (v, (rest & -rest).bit_length() - 1)
            elif rest.bit_count() >= k - 1:
                later = (rest,) if p == last else [m & out[v] for m in masks[p:]]
                found = find_transitive_in(out, later, k - 1)
                if found is not None:
                    return (v,) + found
    return None


def find_transitive_set(d: BitDigraph, n: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least transitive n-set of d (see find_transitive_in),
    or None."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > d.order:
        return None
    return find_transitive_in(d.out, ((1 << d.order) - 1,), n)


def has_transitive_set(d: BitDigraph, n: int) -> bool:
    """True iff d contains a transitive set of size n."""
    return find_transitive_set(d, n) is not None


def find_digraph_independent_set(d: BitDigraph, m: int) -> Optional[tuple[int, ...]]:
    """Lexicographically least m vertices with no arc between any pair."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > d.order:
        return None
    return find_clique_in(d.nonadjacency_masks(), (1 << d.order) - 1, m)


def digraph_independent(d: BitDigraph, m: int) -> bool:
    """True iff d has m vertices with no arc between any pair, either way."""
    return find_digraph_independent_set(d, m) is not None

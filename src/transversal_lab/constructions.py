"""Witness-graph generators: layered digraph blowups, half graphs, tensor
products, shift graphs, extension-property saturations, and the two-row
partition witnesses.

All generators are deterministic given their parameters and return
immutable values.  Infinite objects are represented by their initial
segments; the truncation depth is always an explicit caller parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapExceeded
from .graphs import BitDigraph, UGraph, bits, find_clique_in, has_clique, mask_of


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph together with an ordered partition of its vertices.

    Classes are pairwise disjoint and cover the vertex set; class order is
    meaningful (class index i is V_i).  The check builds each class's
    vertex mask once, and the value keeps them for `class_masks`; they
    follow from the classes, so equality, hash and repr leave them out.
    """

    graph: UGraph
    classes: tuple[frozenset[int], ...]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = self.graph.order
        seen = 0
        masks = []
        for index, cls in enumerate(self.classes):
            for v in cls:
                if not 0 <= v < order:
                    raise ValueError(
                        f"partition class {index} holds vertex {v}, not one of 0..{order - 1}"
                    )
            m = mask_of(cls)
            if m & seen:
                raise ValueError("partition classes overlap")
            seen |= m
            masks.append(m)
        if seen != (1 << self.graph.order) - 1:
            raise ValueError("partition classes must cover every vertex")
        object.__setattr__(self, "_masks", tuple(masks))

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_masks(self) -> tuple[int, ...]:
        """The vertex mask of each class, in class order."""
        return self._masks


def spread(mask: int, width: int) -> int:
    """The integer with bit j * width set for each j in mask.

    Block lemma: for a pattern p < 2**width, p * spread(mask, width) is p
    copied into block j (bits j*width .. j*width + width - 1) for each j
    in mask.  The shifted copies p << (j * width) occupy disjoint blocks,
    so their sum has no carries and equals their union.
    """
    return mask_of(j * width for j in bits(mask))


def layered_from_digraph(digraph: BitDigraph, depth: int) -> PartitionedGraph:
    """Layered blowup of a digraph: vertex set r x depth, classes the rows.

    Vertices (i, s) and (j, u) are adjacent iff the digraph has the arc
    i -> j and s < u, or the arc j -> i and u < s.  If the digraph has no
    transitive n-set the output is K_n-free: a clique would order its
    layer indices by the second coordinate and read off a transitive
    tuple.  Vertex (i, s) is numbered i * depth + s, so each class is a
    contiguous block.

    Each row is built in one step by the block lemma of `spread`: the
    neighbours of (i, s) are the layers above s in every block j with
    i -> j and the layers below s in every block j with j -> i, so its row
    is later(s) * spread(out[i]) | earlier(s) * spread(in[i]), with
    later(s) and earlier(s) the masks of the layers above and below s.
    """
    if digraph.order < 1:
        raise ValueError("digraph must have at least one vertex")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t = depth
    full = (1 << t) - 1
    layers = [(full ^ ((2 << s) - 1), (1 << s) - 1) for s in range(t)]
    adj = []
    for out, inn in zip(digraph.out, digraph.in_masks()):
        fwd, back = spread(out, t), spread(inn, t)
        adj += [later * fwd | earlier * back for later, earlier in layers]
    return PartitionedGraph(UGraph(len(adj), adj), _row_classes(digraph.order, t))


@lru_cache(maxsize=64)
def _row_classes(rows: int, depth: int) -> tuple[frozenset[int], ...]:
    """The classes of a layered blowup, row i the block i*depth ..
    (i+1)*depth - 1.  They depend only on the shape and are immutable, so
    blowups of one shape share one tuple: a batch of blowups holds each
    shape's frozensets once, not once per graph."""
    return tuple(frozenset(range(i * depth, (i + 1) * depth)) for i in range(rows))


def _bipartite(k: int, cross: Iterable[tuple[int, int]]) -> PartitionedGraph:
    """Sides of size k, side 0 on vertices 0..k-1 and side 1 on k..2k-1,
    with (0, a) ~ (1, b) for each (a, b) in cross."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return PartitionedGraph(
        UGraph.from_edges(2 * k, [(a, k + b) for a, b in cross]),
        (frozenset(range(k)), frozenset(range(k, 2 * k))),
    )


def half_graph(k: int) -> PartitionedGraph:
    """Half graph on sides of size k: (0, a) ~ (1, b) iff a < b.

    Side 0 occupies vertices 0..k-1, side 1 occupies k..2k-1.
    """
    return _bipartite(k, [(a, b) for a in range(k) for b in range(a + 1, k)])


def complete_bipartite(k: int) -> PartitionedGraph:
    return _bipartite(k, [(a, b) for a in range(k) for b in range(k)])


def empty_bipartite(k: int) -> PartitionedGraph:
    return _bipartite(k, [])


def tensor(g: UGraph, h: UGraph) -> UGraph:
    """Blowup product on V(g) x V(h): (u, v) ~ (u', v') iff u = u' and
    vv' is an edge of h, or uu' is an edge of g.

    Vertex (u, v) is numbered u * h.order + v.  tensor(K_n, E_t) blows each
    vertex of K_n into an independent set of size t; its independent sets
    are exactly the subsets of single fibers.

    By the block lemma of `spread`, the fibers of u's neighbours in g form
    the mask full * spread(g.adj[u]), with full the mask of one whole
    fiber; row (u, v) adds h.adj[v] shifted into u's own fiber.
    """
    nh = h.order
    full = (1 << nh) - 1
    adj = []
    for u, row in enumerate(g.adj):
        others = full * spread(row, nh)
        adj.extend(others | h.adj[v] << (u * nh) for v in range(nh))
    return UGraph(len(adj), adj)


def shift_graph(n: int, big_n: int, *, vertex_cap: int = 100000) -> UGraph:
    """Shift graph on the n-subsets of {0..big_n-1}.

    Subsets p, q are adjacent iff their union is an ascending chain
    xi_0 < ... < xi_n with p the first n elements and q the last n (or the
    other way round).  Vertices are the subsets in lexicographic order of
    their sorted tuples.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if big_n < n:
        raise ValueError("big_n must be >= n")
    count = comb(big_n, n)
    if count > vertex_cap:
        raise CapExceeded(f"{count} vertices exceeds cap {vertex_cap}")
    verts = list(combinations(range(big_n), n))
    index = {p: i for i, p in enumerate(verts)}
    adj = [0] * count
    for i, p in enumerate(verts):
        # q = p shifted up: drop p[0], append one element above p[-1]
        tail = p[1:]
        for extra in range(p[-1] + 1, big_n):
            q = tail + (extra,)
            j = index[q]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return UGraph(count, adj)


# ---------------------------------------------------------------------------
# extension-property saturation (Henson-style approximations)
# ---------------------------------------------------------------------------


def _extension_pairs(vertices: Sequence[int], pair_cap: int) -> Iterator[tuple[int, int]]:
    """Masks (A, B) of the disjoint pairs over `vertices` with |A u B| <=
    pair_cap, by size of the union, then the union and A in lexicographic
    order."""
    for size in range(pair_cap + 1):
        for union in combinations(vertices, size):
            umask = mask_of(union)
            for asize in range(size + 1):
                for aset in combinations(union, asize):
                    amask = mask_of(aset)
                    yield amask, umask & ~amask


def _has_extension_witness(adj: Sequence[int], amask: int, bmask: int) -> bool:
    """Some vertex outside A u B avoids A and dominates B."""
    exclude = amask | bmask
    return any(
        not (1 << v) & exclude and row & amask == 0 and row & bmask == bmask
        for v, row in enumerate(adj)
    )


def henson_approx(
    n: int,
    rounds: int,
    seed_graph: UGraph,
    rng_seed: Optional[int] = None,
    *,
    pair_cap: int = 3,
    vertex_budget: int = 4096,
) -> UGraph:
    """Saturate the K_n-free extension property over `rounds` sweeps.

    Each sweep fixes the vertex set present at its start and, for every
    pair of disjoint sets (A, B) over it with |A u B| <= pair_cap and B
    inducing a K_{n-1}-free subgraph, adds one fresh vertex adjacent to
    exactly B, unless some existing vertex already avoids A and dominates
    B.  Fresh vertices only ever attach to older ones, and only to
    K_{n-1}-free sets, so the output stays K_n-free whenever the seed is.

    rng_seed shuffles the pair-processing order within each sweep; None
    keeps the ascending (size, lexicographic) order.  Either way the
    output is a deterministic function of the parameters.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if has_clique(seed_graph, n):
        raise ValueError("seed graph must be K_n-free")
    adj: list[int] = list(seed_graph.adj)
    rng = random.Random(rng_seed) if rng_seed is not None else None

    for _ in range(rounds):
        pairs = list(_extension_pairs(range(len(adj)), pair_cap))
        if rng is not None:
            rng.shuffle(pairs)
        for amask, bmask in pairs:
            if find_clique_in(adj, bmask, n - 1) is not None:
                continue
            if _has_extension_witness(adj, amask, bmask):
                continue
            if len(adj) >= vertex_budget:
                raise CapExceeded(f"vertex budget {vertex_budget} hit")
            w = len(adj)
            adj.append(bmask)
            for u in bits(bmask):
                adj[u] |= 1 << w
    return UGraph(len(adj), adj)


def extension_property_holds(
    g: UGraph, n: int, base_vertices: Iterable[int], pair_cap: int = 3
) -> bool:
    """Exhaustively check the K_n-free extension property over a vertex set:
    every disjoint (A, B) with |A u B| <= pair_cap and B K_{n-1}-free has a
    witness vertex in g avoiding A and dominating B.  A base vertex
    outside 0..order-1 raises ValueError."""
    return all(
        find_clique_in(g.adj, bmask, n - 1) is not None
        or _has_extension_witness(g.adj, amask, bmask)
        for amask, bmask in _extension_pairs(list(bits(g.vertex_mask(base_vertices))), pair_cap)
    )


# ---------------------------------------------------------------------------
# two-row partition witnesses
# ---------------------------------------------------------------------------


def partition_extension_witness(
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

    Truncation lemma: with total = |V(g) u W|, the pairs in that order
    begin ((), ()), then ((), (v,)) for each v < total, then ((v,), ()).
    As total = g.order + pair_budget >= pair_budget, the first pair_budget
    pairs are ((), ()) and ((), (v,)) for v < pair_budget - 1, so only
    those are processed.  For n >= 3 no b_k holds a K_{n-1}: pair 0 takes
    fresh vertex g.order and joins it to nothing, and pair k >= 1, with
    b_k = (k - 1,), joins fresh vertex g.order + k to vertex k - 1 (every
    earlier fresh vertex is taken, and k - 1 < g.order + k).  For n <= 2
    every singleton b_k holds a K_{n-1}, so no edge is added.
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
    if n >= 3:
        for k in range(1, pair_budget):
            w = g.order + k
            adj[w] = 1 << (k - 1)
            adj[k - 1] |= 1 << w
    graph = UGraph(total, adj)
    classes = (
        frozenset(range(g.order, total)) | aset,
        bset,
    )
    return PartitionedGraph(graph, classes)


def rado_partition_witness(depth: int) -> PartitionedGraph:
    """Finite truncation of the half-graph-based two-row partition witness.

    Start from the half graph on rows of size depth: (k, 0) ~ (l, 1) iff
    k < l.  Pairs (a_j, b_j) of subsets of the vertex set are enumerated by
    total size then lexicographically on (b_j, a_j); each step computes
    m_j = max{k : (k, i) in a_j u b_j} + m_{j-1} and, while m_j stays below
    depth, connects (m_j, 0) to every vertex of a_j.  Rows are the two
    classes.  Row 1 never gains internal edges, so every clique meets it
    in at most one vertex.

    Walk lemma: after ((), ()), which adds nothing, the walk reads
    a_j = (v,), b_j = () for v = 0, 1, ..., so m_j is the running sum of
    their row indices.  Over the first 2 * depth singletons these indices
    sum to depth * (depth - 1), which is at least depth once depth >= 2,
    so the walk stops inside this first run.  At depth 1 every row index
    is 0, and every later pair only re-adds the edge 0-1.  The truncation
    therefore adds the edges (v, 0)-(T(v), 0) for v >= 2 with
    T(v) = v(v+1)/2 < depth (six at depth 30), the one edge
    (1, 0)-(0, 1) at depth 2, and (0, 0)-(0, 1) at depth 1.

    Vertex (k, i) is numbered i * depth + k.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    half = half_graph(depth)
    adj = list(half.graph.adj)
    m = 0
    for v in range(2 * depth):
        m += v % depth  # the row index of v
        if m >= depth:
            break
        if v != m:
            adj[m] |= 1 << v
            adj[v] |= 1 << m
    return PartitionedGraph(UGraph(2 * depth, adj), half.classes)

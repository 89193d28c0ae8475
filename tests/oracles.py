"""Independent brute-force oracles used to validate the fast paths.

Everything here is deliberately naive: ordered-tuple scans, subset
enumeration, labelled exhaustion.  None of it shares code with the
package's search implementations.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from transversal_lab.graphs import (
    BitDigraph,
    UGraph,
    bits,
    has_independent_set,
    is_independent,
    mask_of,
)


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
    Returns (status, witness, profile, nodes, dependent), where `dependent`
    counts the subsets rejected as not independent.
    """
    g = pg.graph
    class_masks = pg.class_masks()
    r = len(class_masks)
    nodes = dependent = 0
    if m > r:
        return "none", None, (0,) * r, 0, 0

    class Exhausted(Exception):
        pass

    def place(chosen, idx, picked, forbidden):
        nonlocal nodes, dependent
        if idx == len(chosen):
            return picked
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
                found = place(chosen, idx + 1, picked | mask_of(combo), new_forbidden)
                if found is not None:
                    return found
        return None

    try:
        for chosen in combinations(range(r), m):
            if any(class_masks[c].bit_count() < ell for c in chosen):
                continue
            picked = place(chosen, 0, 0, 0)
            if picked is not None:
                witness = frozenset(bits(picked))
                profile = tuple(len(witness & c) for c in pg.classes)
                return "found", witness, profile, nodes, dependent
    except Exhausted:
        return "budget", None, (0,) * r, nodes, dependent
    return "none", None, (0,) * r, nodes, dependent


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

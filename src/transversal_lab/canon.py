"""Canonical labelling of digraphs by partition refinement with backtracking.

The canonical form of a digraph is the relabelling whose row-major
adjacency bit matrix is lexicographically least among all leaves of the
individualization-refinement search tree.  Two digraphs are isomorphic iff
their canonical forms are equal, so the encoded form doubles as a complete
isomorphism invariant.

Automorphisms discovered during the search (two leaves producing the same
matrix) are folded into an orbit partition, which prunes branches whose
target vertex is equivalent to one already tried.  This keeps highly
symmetric inputs (empty digraphs, complete digraphs with all 2-cycles)
from exploding into factorially many leaves.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .codec import encode_digraph6
from .graphs import BitDigraph


def _refine(out: Sequence[int], inn: Sequence[int], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Cells are repeatedly split by the pair (arcs into splitter, arcs out of
    splitter) until stable.  Cell order is deterministic: fragments replace
    their parent cell in sorted key order, so refinement commutes with
    relabelling.
    """
    work = True
    while work:
        work = False
        for splitter in list(cells):
            smask = 0
            for v in splitter:
                smask |= 1 << v
            for idx, cell in enumerate(cells):
                if len(cell) == 1:
                    continue
                groups: dict[tuple[int, int], list[int]] = {}
                for v in cell:
                    key = ((out[v] & smask).bit_count(), (inn[v] & smask).bit_count())
                    groups.setdefault(key, []).append(v)
                if len(groups) > 1:
                    cells[idx : idx + 1] = [groups[k] for k in sorted(groups)]
                    work = True
                    break
            if work:
                break
    return cells


class _OrbitUnion:
    """Union-find over vertices, merged along discovered automorphisms."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, u: int, v: int) -> None:
        ru, rv = self.find(u), self.find(v)
        if ru != rv:
            self.parent[max(ru, rv)] = min(ru, rv)


def _encode_rows(out: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Out-masks of the digraph relabelled so old vertex perm[i] becomes i."""
    n = len(perm)
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = []
    for v in perm:
        row = 0
        m = out[v]
        while m:
            low = m & -m
            m ^= low
            row |= 1 << pos[low.bit_length() - 1]
        rows.append(row)
    return tuple(rows)


def canonical_form(d: BitDigraph) -> BitDigraph:
    """The canonically relabelled copy of d."""
    n = d.order
    if n == 0:
        return d
    out = d.out
    inn = d.in_masks()

    best_rows: Optional[tuple[int, ...]] = None
    best_perm: Optional[tuple[int, ...]] = None
    # deduplicated generators of the automorphism group found so far,
    # used to prune sibling branches
    generators: list[tuple[int, ...]] = []
    generator_set: set[tuple[int, ...]] = set()

    def homogeneous(cells: list[list[int]]) -> bool:
        """True when arcs depend only on the cells of their endpoints, so
        every ordering refining the partition yields the same code."""
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        for ci, cell in enumerate(cells):
            k = len(cell)
            if k > 1:
                internal = sum((out[v] & masks[ci]).bit_count() for v in cell)
                if internal not in (0, k * (k - 1)):
                    return False
            for cj, other in enumerate(cells):
                if ci == cj or (len(cell) == 1 and len(other) == 1):
                    continue
                cross = sum((out[v] & masks[cj]).bit_count() for v in cell)
                if cross not in (0, k * len(other)):
                    return False
        return True

    def record_leaf(perm: tuple[int, ...]) -> None:
        nonlocal best_rows, best_perm
        rows = _encode_rows(out, perm)
        if best_rows is None or rows < best_rows:
            best_rows = rows
            best_perm = perm
        elif rows == best_rows:
            assert best_perm is not None
            mapping = [0] * n
            for a, b in zip(best_perm, perm):
                mapping[a] = b
            gen = tuple(mapping)
            if gen not in generator_set and any(gen[w] != w for w in range(n)):
                generator_set.add(gen)
                generators.append(gen)

    def search(cells: list[list[int]], fixed: tuple[int, ...]) -> None:
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            record_leaf(tuple(cell[0] for cell in cells))
            return

        if homogeneous(cells):
            # every ordering below this node is automorphic; one leaf decides
            record_leaf(tuple(v for cell in cells for v in sorted(cell)))
            return

        cell = cells[target]
        orbits = _OrbitUnion(n)
        processed = 0
        tried: list[int] = []
        for v in cell:
            # fold any newly discovered automorphisms that fix the current
            # individualization path into the orbit partition
            while processed < len(generators):
                gen = generators[processed]
                processed += 1
                if all(gen[f] == f for f in fixed):
                    for w in range(n):
                        if gen[w] != w:
                            orbits.union(w, gen[w])
            # skip v when it is equivalent to an already-tried sibling
            if any(orbits.find(v) == orbits.find(w) for w in tried):
                continue
            tried.append(v)
            child = (
                [list(c) for c in cells[:target]]
                + [[v], [w for w in cell if w != v]]
                + [list(c) for c in cells[target + 1 :]]
            )
            search(_refine(out, inn, child), fixed + (v,))

    initial = _refine(out, inn, [list(range(n))])
    search(initial, ())
    assert best_rows is not None
    return BitDigraph(n, list(best_rows))


def canonical_label(d: BitDigraph) -> bytes:
    """Canonical byte string: equal for two digraphs iff they are isomorphic.

    The string is the digraph6 encoding of the canonical form, so it can be
    decoded back into a concrete representative.
    """
    return encode_digraph6(canonical_form(d)).encode("ascii")


def are_isomorphic(d1: BitDigraph, d2: BitDigraph) -> bool:
    if d1.order != d2.order or d1.arc_count() != d2.arc_count():
        return False
    return canonical_form(d1).out == canonical_form(d2).out


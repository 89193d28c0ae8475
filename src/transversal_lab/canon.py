"""Canonical labelling of digraphs by partition refinement with backtracking.

The canonical label of a digraph is a tuple of out-rows: the rows of the
relabelling whose row tuple is lexicographically least among all leaves
of the individualization-refinement search tree.  Two digraphs are
isomorphic iff their labels are equal, so the label is a complete
isomorphism invariant and also a concrete representative
(`canonical_form`).

Refinement uses a splitter queue (McKay and Piperno, "Practical graph
isomorphism II", 2014): a cell is split by the numbers of arcs its
vertices send into and receive from a queued splitter, and every fragment
of a split is queued in turn, until the partition is equitable or
discrete.  When the refinement of the unit partition is already discrete
its order is the only leaf, and no search runs.

Automorphisms discovered during the search (two leaves producing the same
rows) are folded into an orbit partition, which prunes branches whose
target vertex is equivalent to one already tried.  This keeps highly
symmetric inputs (empty digraphs, complete digraphs with all 2-cycles)
from exploding into factorially many leaves.
"""

from __future__ import annotations

from typing import Optional, Sequence

# not called here; bound for callers that look the encoder up on this module
from .codec import encode_digraph6  # noqa: F401
from .graphs import BitDigraph, bits


def _refine(out: Sequence[int], inn: Sequence[int], cells: list[int], queue: list[int]) -> list[int]:
    """Refine the ordered partition `cells` (vertex masks) in place against
    the splitter masks in `queue` and return it.

    Each splitter splits every cell by the key (arcs into the splitter,
    arcs from the splitter); the fragments replace their cell in sorted key
    order and are queued as splitters.  A queued mask is always a union of
    current cells.  Seeded with all cells, or, after individualizing v in
    an equitable partition, with 1 << v alone, the result is equitable or
    discrete.  Nothing depends on vertex names, so refinement commutes
    with relabelling.
    """
    n = len(out)
    ncells = len(cells)
    head = 0
    while head < len(queue) and ncells < n:
        s = queue[head]
        head += 1
        idx = 0
        while idx < ncells:
            cell = cells[idx]
            idx += 1
            if not cell & (cell - 1):
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                key = (out[v] & s).bit_count() << 8 | (inn[v] & s).bit_count()
                groups[key] = groups.get(key, 0) | low
            if len(groups) == 1:
                continue
            fragments = [groups[k] for k in sorted(groups)]
            cells[idx - 1 : idx] = fragments
            idx += len(fragments) - 1
            ncells += len(fragments) - 1
            queue.extend(fragments)
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


def _search(out: Sequence[int], inn: Sequence[int], initial: list[int]) -> tuple[int, ...]:
    """Least leaf rows of the search tree below the equitable, non-discrete
    partition `initial`."""
    n = len(out)
    best_rows: Optional[tuple[int, ...]] = None
    best_perm: Optional[tuple[int, ...]] = None
    # deduplicated generators of the automorphism group found so far,
    # used to prune sibling branches
    generators: list[tuple[int, ...]] = []
    generator_set: set[tuple[int, ...]] = set()

    def homogeneous(cells: list[int]) -> bool:
        """True when arcs depend only on the cells of their endpoints, so
        every ordering refining the partition yields the same code."""
        for source in cells:
            k = source.bit_count()
            for sink in cells:
                if k == 1 and not sink & (sink - 1):
                    continue
                arcs = sum((out[v] & sink).bit_count() for v in bits(source))
                full = k * (k - 1) if sink == source else k * sink.bit_count()
                if arcs not in (0, full):
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

    def search(cells: list[int], fixed: tuple[int, ...]) -> None:
        if len(cells) == n:
            record_leaf(tuple(cell.bit_length() - 1 for cell in cells))
            return

        if homogeneous(cells):
            # every ordering below this node is automorphic; one leaf decides
            record_leaf(tuple(v for cell in cells for v in bits(cell)))
            return

        target = next(idx for idx, cell in enumerate(cells) if cell & (cell - 1))
        cell = cells[target]
        orbits = _OrbitUnion(n)
        processed = 0
        tried: list[int] = []
        for v in bits(cell):
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
            child = cells[:target] + [1 << v, cell ^ (1 << v)] + cells[target + 1 :]
            search(_refine(out, inn, child, [1 << v]), fixed + (v,))

    search(initial, ())
    assert best_rows is not None
    return best_rows


def canonical_label(d: BitDigraph, cells: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """Canonical out-rows: equal for two digraphs iff they are isomorphic.

    The rows are those of the canonical form, so `BitDigraph(len(label),
    list(label))` is a concrete representative of the class.  For digraph6
    text use `encode_digraph6(canonical_form(d))`.

    `cells`, when given, is an ordered partition of the vertices (disjoint
    vertex masks covering them, empty ones ignored) that the labelling must
    respect: the label is that of the coloured digraph, with the vertices
    of cell i before those of cell i + 1.  For partitions with equal cell
    sizes, two labels are equal iff an isomorphism maps cell i onto cell i
    for every i.  With cells [1 << v, rest] it is the label rooted at v,
    equal for roots v and w of one digraph iff an automorphism maps v to w.
    None means the unit partition.
    """
    n = d.order
    if n == 0:
        return ()
    out = d.out
    inn = d.in_masks()
    everything = (1 << n) - 1
    if cells is None:
        cells = [everything]
    else:
        cells = [cell for cell in cells if cell]
        union = 0
        for cell in cells:
            if cell & union:
                raise ValueError("cells must be disjoint")
            union |= cell
        if union != everything:
            raise ValueError("cells must cover every vertex")
    cells = _refine(out, inn, cells, list(cells))
    if len(cells) == n:
        return _encode_rows(out, [cell.bit_length() - 1 for cell in cells])
    return _search(out, inn, cells)


def canonical_form(d: BitDigraph) -> BitDigraph:
    """The canonically relabelled copy of d."""
    return BitDigraph(d.order, list(canonical_label(d)))


def are_isomorphic(d1: BitDigraph, d2: BitDigraph) -> bool:
    if d1.order != d2.order or d1.arc_count() != d2.arc_count():
        return False
    return canonical_label(d1) == canonical_label(d2)

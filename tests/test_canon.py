import hashlib
import random
import time
from itertools import combinations, permutations, product

from transversal_lab import canon
from transversal_lab.canon import _refine, are_isomorphic, canonical_form, canonical_label
from transversal_lab.graphs import BitDigraph
from transversal_lab.ramsey import circulant_digraph

import pytest

from oracles import all_labelled_digraphs, naive_coloured_form, naive_isomorphic

C3 = BitDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
TT3 = BitDigraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])


def test_relabellings_of_c3_collapse():
    labels = {canonical_label(C3.relabel(list(p))) for p in permutations(range(3))}
    assert len(labels) == 1


def test_tt3_and_c3_distinct():
    assert canonical_label(TT3) != canonical_label(C3)
    assert not are_isomorphic(TT3, C3)


def test_label_decodes_to_isomorphic_copy():
    rng = random.Random(5)
    for _ in range(30):
        order = rng.randint(1, 6)
        arcs = [
            (i, j)
            for i in range(order)
            for j in range(order)
            if i != j and rng.random() < 0.4
        ]
        d = BitDigraph.from_arcs(order, arcs)
        label = canonical_label(d)
        rep = BitDigraph(len(label), list(label))
        assert naive_isomorphic(d, rep)


def test_single_arc_state_digraphs_on_3_vertices():
    # the 27 digraphs with each pair in state {fwd, back, both} fall into
    # exactly 7 isomorphism classes; the label partition must match the
    # brute-force isomorphism partition
    digraphs = []
    for states in product((1, 2, 3), repeat=3):
        out = [0, 0, 0]
        for (i, j), s in zip(((0, 1), (0, 2), (1, 2)), states):
            if s & 1:
                out[i] |= 1 << j
            if s & 2:
                out[j] |= 1 << i
        digraphs.append(BitDigraph(3, out))
    by_label: dict[tuple[int, ...], list[BitDigraph]] = {}
    for d in digraphs:
        by_label.setdefault(canonical_label(d), []).append(d)
    assert len(by_label) == 7
    for group in by_label.values():
        for d in group[1:]:
            assert naive_isomorphic(group[0], d)
    reps = [g[0] for g in by_label.values()]
    for i, d1 in enumerate(reps):
        for d2 in reps[i + 1 :]:
            assert not naive_isomorphic(d1, d2)


def test_complete_invariant_exhaustive_order_3():
    for d in all_labelled_digraphs(3):
        base = canonical_label(d)
        for p in permutations(range(3)):
            assert canonical_label(d.relabel(list(p))) == base


def test_complete_invariant_order_4_sampled_permutations():
    rng = random.Random(9)
    perms = list(permutations(range(4)))
    for d in all_labelled_digraphs(4):
        base = canonical_label(d)
        for p in rng.sample(perms, 4):
            assert canonical_label(d.relabel(list(p))) == base


def test_class_counts_match_known_digraph_counts():
    # unlabelled loop-free digraph counts per order: 1, 3, 16, 218
    for order, expected in ((1, 1), (2, 3), (3, 16), (4, 218)):
        labels = {canonical_label(d) for d in all_labelled_digraphs(order)}
        assert len(labels) == expected


def test_unconstrained_enumeration_matches_digraph_counts():
    # the isomorph-free level enumeration must reproduce the unlabelled
    # digraph counts, including 9608 at order 5; bounds of 6 never bind
    # on 5 vertices
    from transversal_lab.ramsey import enumerate_good_classes

    out = enumerate_good_classes(6, 6, 5)
    assert tuple(len(level) for level in out.levels) == (1, 3, 16, 218, 9608)


def test_invariance_order_5_random_relabellings():
    rng = random.Random(17)
    for _ in range(200):
        arcs = [
            (i, j)
            for i in range(5)
            for j in range(5)
            if i != j and rng.random() < 0.5
        ]
        d = BitDigraph.from_arcs(5, arcs)
        p = list(range(5))
        rng.shuffle(p)
        assert canonical_label(d) == canonical_label(d.relabel(p))


def test_highly_symmetric_inputs_stay_fast():
    start = time.monotonic()
    empty = BitDigraph.empty(40)
    full = BitDigraph.from_arcs(
        12, [(i, j) for i in range(12) for j in range(12) if i != j]
    )
    canonical_label(empty)
    canonical_label(full)
    assert time.monotonic() - start < 10.0


def test_canonical_form_is_idempotent():
    rng = random.Random(23)
    for _ in range(20):
        arcs = [
            (i, j)
            for i in range(6)
            for j in range(6)
            if i != j and rng.random() < 0.4
        ]
        d = BitDigraph.from_arcs(6, arcs)
        c = canonical_form(d)
        assert canonical_form(c).out == c.out


def test_label_is_the_canonical_form_rows():
    rng = random.Random(31)
    for _ in range(200):
        order = rng.randint(1, 8)
        p = rng.choice((0.2, 0.5, 0.8))
        arcs = [
            (i, j)
            for i in range(order)
            for j in range(order)
            if i != j and rng.random() < p
        ]
        d = BitDigraph.from_arcs(order, arcs)
        assert canonical_label(d) == canonical_form(d).out


def circulants(q: int) -> list[BitDigraph]:
    """Every circulant digraph on Z_q, one per difference set."""
    return [
        circulant_digraph(q, diffs)
        for k in range(q)
        for diffs in combinations(range(1, q), k)
    ]


def test_circulants_take_the_search_path():
    # translation is transitive on the vertices, so refinement of the unit
    # partition cannot split it and the backtracking search must decide
    for q in range(2, 10):
        for d in circulants(q):
            everything = (1 << q) - 1
            cells = _refine(d.out, d.in_masks(), [everything], [everything])
            assert cells == [everything]


def test_circulant_labels_invariant_under_relabelling():
    rng = random.Random(41)
    for q in range(1, 10):
        for d in circulants(q):
            base = canonical_label(d)
            for _ in range(20):
                p = list(range(q))
                rng.shuffle(p)
                assert canonical_label(d.relabel(p)) == base


def test_circulant_label_partition_matches_isomorphism():
    for q in range(1, 7):
        by_label: dict[tuple[int, ...], list[BitDigraph]] = {}
        for d in circulants(q):
            by_label.setdefault(canonical_label(d), []).append(d)
        reps = [group[0] for group in by_label.values()]
        for group in by_label.values():
            for d in group[1:]:
                assert naive_isomorphic(group[0], d)
        for i, d1 in enumerate(reps):
            for d2 in reps[i + 1 :]:
                assert not naive_isomorphic(d1, d2)


def random_digraph(rng: random.Random, order: int, p: float) -> BitDigraph:
    arcs = [(i, j) for i in range(order) for j in range(order) if i != j and rng.random() < p]
    return BitDigraph.from_arcs(order, arcs)


def test_unit_partition_labels_are_unchanged():
    # digest of the labels of 300 seeded digraphs on 1 to 9 vertices,
    # computed before `cells` existed; None and the one-cell partition
    # both take that path
    rng = random.Random(61)
    digraphs = [random_digraph(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8))) for _ in range(300)]
    for labels in (
        [canonical_label(d) for d in digraphs],
        [canonical_label(d, cells=[(1 << d.order) - 1]) for d in digraphs],
    ):
        digest = hashlib.sha256(repr(labels).encode()).hexdigest()
        assert digest == "853e2e1500919f6c18da8a2979bde058325b28ec2ae04002cd7e7dbd52e4e0d0"


def rooted(d: BitDigraph, v: int) -> list[int]:
    return [1 << v, ((1 << d.order) - 1) ^ (1 << v)]


def test_rooted_labels_match_brute_force_orbits():
    # every labelled digraph on up to 4 vertices: labels rooted at u and w
    # are equal iff some automorphism maps u to w
    for order in range(1, 5):
        for d in all_labelled_digraphs(order):
            autos = [p for p in permutations(range(order)) if d.relabel(list(p)).out == d.out]
            labels = [canonical_label(d, cells=rooted(d, v)) for v in range(order)]
            for u in range(order):
                for w in range(order):
                    same_orbit = any(p[u] == w for p in autos)
                    assert (labels[u] == labels[w]) == same_orbit, (d.out, u, w)


def coloured_instances(rng: random.Random, order: int, count: int):
    """Seeded digraphs with ordered partitions into 1 to 3 cells, each next
    to a random relabelling of itself, so equal classes recur."""
    for _ in range(count):
        d = random_digraph(rng, order, rng.choice((0.3, 0.5, 0.7)))
        vertices = list(range(order))
        rng.shuffle(vertices)
        cuts = sorted(rng.sample(range(1, order), rng.randint(0, min(2, order - 1))))
        cells = [sum(1 << v for v in vertices[a:b]) for a, b in zip([0] + cuts, cuts + [order])]
        yield d, cells
        p = list(range(order))
        rng.shuffle(p)
        yield d.relabel(p), [sum(1 << p[v] for v in range(order) if cell >> v & 1) for cell in cells]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_coloured_labels_match_brute_force_isomorphism(order):
    # two (digraph, cells) pairs with equal cell sizes get equal labels iff
    # an isomorphism maps cell i onto cell i, decided by the brute-force
    # coloured form
    rng = random.Random(70 + order)
    label_of_form: dict = {}
    form_of_label: dict = {}
    for d, cells in coloured_instances(rng, order, 60):
        sizes = tuple(cell.bit_count() for cell in cells)
        label = sizes, canonical_label(d, cells=cells)
        form = sizes, naive_coloured_form(d, cells)
        assert label_of_form.setdefault(form, label) == label
        assert form_of_label.setdefault(label, form) == form
    assert len(form_of_label) > 1 or order == 1


@pytest.mark.parametrize(
    "cells, message",
    [
        ([0b011, 0b110], "disjoint"),
        ([0b011], "cover"),
        ([0b011, 0b1100], "cover"),
    ],
)
def test_cells_must_partition_the_vertices(cells, message):
    with pytest.raises(ValueError, match=message):
        canonical_label(C3, cells=cells)


def test_orbit_pruning_bounds_the_leaves(monkeypatch):
    # k disjoint directed 3-cycles have 3^k * k! automorphisms.  Pruning
    # siblings by the orbits of the automorphisms found so far encodes 16
    # leaves for k = 5; without it the search encodes 29,160
    calls = 0
    encode = canon._encode_rows

    def counting(out, perm):
        nonlocal calls
        calls += 1
        return encode(out, perm)

    monkeypatch.setattr(canon, "_encode_rows", counting)
    cycles = BitDigraph.from_arcs(
        15, [(3 * k + i, 3 * k + (i + 1) % 3) for k in range(5) for i in range(3)]
    )
    canonical_label(cycles)
    assert calls <= 50

import random
import re
from itertools import combinations, permutations

import pytest

from transversal_lab.graphs import (
    BitDigraph,
    UGraph,
    clique_closure_in,
    count_cliques_in,
    digraph_independent,
    find_clique,
    find_clique_in,
    find_digraph_independent_set,
    find_transitive_in,
    find_transitive_set,
    has_clique,
    has_transitive_set,
    independence_number,
    is_independent,
    max_independent_set,
)

from oracles import (
    all_labelled_digraphs,
    naive_adjacency_faults,
    naive_digraph_independent,
    naive_has_transitive,
    naive_max_independent,
)

TT3 = BitDigraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
C3 = BitDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
FULL3 = BitDigraph.from_arcs(3, [(i, j) for i in range(3) for j in range(3) if i != j])


def random_digraph(order, rng, p=0.5):
    arcs = [
        (i, j)
        for i in range(order)
        for j in range(order)
        if i != j and rng.random() < p
    ]
    return BitDigraph.from_arcs(order, arcs)


class TestUGraphBasics:
    def test_construction_rejects_self_loop(self):
        with pytest.raises(ValueError):
            UGraph(2, [0b01, 0b01])

    def test_construction_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            UGraph(2, [0b10, 0b00])

    def test_from_edges_round_trip(self):
        g = UGraph.from_edges(4, [(0, 1), (2, 3)])
        assert g.edges() == [(0, 1), (2, 3)]
        assert g.degree(0) == 1

    def test_complement_involution(self):
        g = UGraph.cycle(5)
        assert g.complement().complement() == g

    def test_induced(self):
        g = UGraph.cycle(5)
        sub = g.induced([0, 1, 2])
        assert sub.edges() == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("vertices", [[-1], [-1, 0], [5], [0, 5], [2, 7, 1]])
    def test_induced_rejects_vertices_outside_the_graph(self, vertices):
        with pytest.raises(ValueError, match="outside 0..4"):
            UGraph.cycle(5).induced(vertices)


def named_fault(message):
    """The fault a UGraph construction error names, in the form of
    naive_adjacency_faults."""
    if m := re.fullmatch(r"vertex (\d+) has neighbours outside 0\.\.-?\d+", message):
        return ("range", int(m[1]))
    if m := re.fullmatch(r"self-loop at vertex (\d+)", message):
        return ("loop", int(m[1]))
    m = re.fullmatch(r"asymmetric adjacency between (\d+) and (\d+)", message)
    assert m, message
    u, v = sorted((int(m[1]), int(m[2])))
    return ("asym", u, v)


def random_symmetric_rows(order, rng):
    adj = [0] * order
    for u, v in combinations(range(order), 2):
        if rng.random() < 0.4:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def plant(adj, kind, rng):
    """Plant one fault of the given kind in the rows, in place."""
    order = len(adj)
    v = rng.randrange(order)
    if kind in ("upper only", "lower only"):
        u, w = sorted(rng.sample(range(order), 2))
        # the entry sits in row w (upper) or row u (lower); its mirror goes
        row, col = (u, w) if kind == "upper only" else (w, u)
        adj[row] |= 1 << col
        adj[col] &= ~(1 << row)
    elif kind == "self-loop":
        adj[v] |= 1 << v
    elif kind == "out of range":
        adj[v] |= 1 << (order + rng.randrange(3))
    else:
        adj[v] = -1 - adj[v]


FAULTS = ("upper only", "lower only", "self-loop", "out of range", "negative row")


class TestUGraphCheck:
    """UGraph accepts exactly the loop-free symmetric rows, and every
    rejection names a real fault."""

    def test_matches_full_scan_with_planted_faults(self):
        rng = random.Random(15)
        accepted = rejected = 0
        for _ in range(1500):
            order = rng.randint(0, 12)
            adj = random_symmetric_rows(order, rng)
            if order >= 2:
                for kind in rng.sample(FAULTS, rng.randint(0, 2)):
                    plant(adj, kind, rng)
            faults = naive_adjacency_faults(order, adj)
            try:
                g = UGraph(order, adj)
            except ValueError as exc:
                assert faults, adj
                assert named_fault(str(exc)) in faults, (adj, str(exc))
                rejected += 1
            else:
                assert not faults, adj
                assert g.adj == tuple(adj)
                accepted += 1
        assert accepted > 300 and rejected > 300

    @pytest.mark.parametrize("kind", FAULTS)
    def test_each_fault_alone_is_rejected_and_named(self, kind):
        rng = random.Random(kind)
        for _ in range(200):
            order = rng.randint(2, 12)
            adj = random_symmetric_rows(order, rng)
            plant(adj, kind, rng)
            faults = naive_adjacency_faults(order, adj)
            with pytest.raises(ValueError) as info:
                UGraph(order, adj)
            assert named_fault(str(info.value)) in faults, (adj, str(info.value))


class TestClique:
    def test_triangle(self):
        assert has_clique(UGraph.complete(3), 3)

    def test_c5_triangle_free(self):
        assert not has_clique(UGraph.cycle(5), 3)

    def test_layered_transitive_triangle_digraph(self):
        # depth-3 layering of the transitive triangle contains a triangle
        from transversal_lab.constructions import layered_from_digraph

        pg = layered_from_digraph(TT3, 3)
        assert has_clique(pg.graph, 3)
        assert find_clique(pg.graph, 3) == (0, 4, 8)

    def test_witness_is_lex_least(self):
        g = UGraph.complete(4)
        assert find_clique(g, 3) == (0, 1, 2)

    def test_k_exceeding_order(self):
        assert not has_clique(UGraph.complete(3), 4)


class TestCliqueKernels:
    def test_find_and_count_match_brute_force(self):
        # find_clique_in (cliques, and with flip=-1 independent sets) and
        # count_cliques_in against itertools.combinations, whose first hit
        # is the lexicographically least subset
        rng = random.Random(11)
        for _ in range(150):
            order = rng.randint(0, 10)
            p = rng.choice((0.2, 0.5, 0.8))
            g = UGraph.from_edges(
                order,
                [(u, v) for u, v in combinations(range(order), 2) if rng.random() < p],
            )
            for cand in ((1 << order) - 1, rng.getrandbits(order) if order else 0):
                members = [v for v in range(order) if (cand >> v) & 1]
                for k in range(6):
                    cliques = [
                        c for c in combinations(members, k)
                        if all(g.has_edge(u, v) for u, v in combinations(c, 2))
                    ]
                    indeps = [
                        c for c in combinations(members, k)
                        if not any(g.has_edge(u, v) for u, v in combinations(c, 2))
                    ]
                    assert find_clique_in(g.adj, cand, k) == (cliques[0] if cliques else None)
                    assert find_clique_in(g.adj, cand, k, -1) == (
                        indeps[0] if indeps else None
                    )
                    assert count_cliques_in(g.adj, cand, k) == len(cliques)

    def test_clique_closure_matches_per_candidate_tests(self):
        # w is closed when base & nbr[w] holds a k-clique; base and reach
        # are random masks (they may overlap), empty or the whole graph
        rng = random.Random(13)
        for _ in range(300):
            order = rng.randint(1, 16)
            p = rng.choice((0.2, 0.5, 0.8, 1.0))
            g = UGraph.from_edges(
                order,
                [(u, v) for u, v in combinations(range(order), 2) if rng.random() < p],
            )
            full = (1 << order) - 1
            for base in (0, full, rng.getrandbits(order)):
                for reach in (0, full, rng.getrandbits(order)):
                    for k in range(5):
                        want = 0
                        for w in range(order):
                            if (reach >> w) & 1 and find_clique_in(g.adj, base & g.adj[w], k) is not None:
                                want |= 1 << w
                        assert clique_closure_in(g.adj, base, reach, k) == want, (
                            g.adj, base, reach, k,
                        )

    def test_clique_closure_stops_once_reach_is_closed(self):
        # in a complete graph the first k-clique of base closes all of
        # reach, so the walk reads one row per member of that clique
        class CountingRows(list):
            reads = 0

            def __getitem__(self, v):
                CountingRows.reads += 1
                return super().__getitem__(v)

        rows = CountingRows(UGraph.complete(16).adj)
        for k in range(1, 5):
            CountingRows.reads = 0
            assert clique_closure_in(rows, 0xFF, 0xFF00, k) == 0xFF00
            assert CountingRows.reads == k

    def test_find_transitive_in_matches_brute_force(self):
        # itertools.permutations yields the k-tuples of the sorted members
        # in lexicographic order, so its first transitive one is the least
        rng = random.Random(12)
        for _ in range(120):
            order = rng.randint(0, 8)
            d = random_digraph(order, rng, rng.choice((0.2, 0.5, 0.8)))
            for cand in ((1 << order) - 1, rng.getrandbits(order) if order else 0):
                members = [v for v in range(order) if (cand >> v) & 1]
                for k in range(6):
                    least = next(
                        (
                            t for t in permutations(members, k)
                            if all(d.has_arc(t[i], t[j]) for i, j in combinations(range(k), 2))
                        ),
                        None,
                    )
                    assert find_transitive_in(d.out, (cand,), k) == least


class TestIndependence:
    def test_k3_pair_not_independent(self):
        assert not is_independent(UGraph.complete(3), {0, 1})

    def test_empty_graph_any_subset(self):
        g = UGraph.empty(5)
        assert is_independent(g, {0, 2, 4})

    @pytest.mark.parametrize(
        "vertices, bad",
        [([-1], -1), ([0, 5], 5), pytest.param((v for v in [0, 5]), 5, id="generator-5")],
    )
    def test_vertex_outside_the_graph_named(self, vertices, bad):
        # -1 used to raise "negative shift count", 5 "vertex set not
        # contained in the graph", also from a generator, which one pass spends
        with pytest.raises(ValueError, match=rf"vertex {bad} outside 0\.\.2"):
            is_independent(UGraph.empty(3), vertices)

    def test_half_graph_side(self):
        from transversal_lab.constructions import half_graph

        pg = half_graph(3)
        assert is_independent(pg.graph, pg.classes[1])

    def test_independence_number_trivials(self):
        assert independence_number(UGraph.empty(6)) == 6
        assert independence_number(UGraph.complete(6)) == 1

    def test_c5_by_brute_force(self):
        g = UGraph.cycle(5)
        assert independence_number(g) == naive_max_independent(g) == 2

    def test_random_against_oracle(self):
        rng = random.Random(42)
        for _ in range(40):
            order = rng.randint(1, 9)
            edges = [
                (i, j)
                for i in range(order)
                for j in range(i + 1, order)
                if rng.random() < 0.4
            ]
            g = UGraph.from_edges(order, edges)
            assert independence_number(g) == naive_max_independent(g)

    def test_witness_is_independent(self):
        g = UGraph.cycle(7)
        size, mask = max_independent_set(g)
        members = [v for v in range(7) if (mask >> v) & 1]
        assert len(members) == size
        assert is_independent(g, members)

    def test_koenig_on_bipartite_instances(self):
        # independence number equals order minus minimum vertex cover
        rng = random.Random(7)
        for _ in range(25):
            left = rng.randint(1, 5)
            right = rng.randint(1, 5)
            order = left + right
            edges = [
                (i, left + j)
                for i in range(left)
                for j in range(right)
                if rng.random() < 0.5
            ]
            g = UGraph.from_edges(order, edges)
            cover = min(
                (
                    len(sub)
                    for size in range(order + 1)
                    for sub in __import__("itertools").combinations(range(order), size)
                    if all(u in sub or v in sub for u, v in edges)
                ),
                default=0,
            )
            assert independence_number(g) == order - cover


class TestBitDigraphRows:
    @pytest.mark.parametrize("order", [0, 1, 7, 128])
    def test_in_masks_transpose_the_arcs(self, order):
        rng = random.Random(order)
        for p in (0.0, 0.3, 1.0):
            d = random_digraph(order, rng, p)
            expect = [0] * order
            for u, v in d.arcs():
                expect[v] |= 1 << u
            assert d.in_masks() == tuple(expect)


class TestTransitiveSets:
    def test_directed_3_cycle(self):
        assert not has_transitive_set(C3, 3)

    def test_transitive_tournament(self):
        assert find_transitive_set(TT3, 3) == (0, 1, 2)

    def test_all_two_cycles(self):
        # every ordering of the complete digraph has all forward arcs
        assert has_transitive_set(FULL3, 3)

    def test_single_vertex(self):
        assert has_transitive_set(BitDigraph.empty(1), 1)
        assert not has_transitive_set(BitDigraph.empty(0), 1)

    def test_back_arcs_permitted(self):
        d = BitDigraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
        assert has_transitive_set(d, 3)


class TestDigraphIndependence:
    def test_empty_digraph(self):
        assert digraph_independent(BitDigraph.empty(4), 4)

    def test_tournament_has_no_independent_pair(self):
        assert not digraph_independent(TT3, 2)

    def test_partial_digraph(self):
        d = BitDigraph.from_arcs(3, [(0, 1)])
        assert find_digraph_independent_set(d, 2) == (0, 2)


class TestOracleAgreement:
    def test_all_digraphs_up_to_order_4(self):
        for order in range(1, 5):
            for d in all_labelled_digraphs(order):
                for n in range(1, order + 1):
                    assert has_transitive_set(d, n) == naive_has_transitive(d, n)
                for m in range(1, order + 1):
                    assert digraph_independent(d, m) == naive_digraph_independent(d, m)


class TestMonotonicity:
    def test_transitive_monotone_under_arc_addition(self):
        rng = random.Random(3)
        for _ in range(50):
            d = random_digraph(6, rng, p=0.3)
            had = has_transitive_set(d, 3)
            out = list(d.out)
            candidates = [
                (i, j)
                for i in range(6)
                for j in range(6)
                if i != j and not (out[i] >> j) & 1
            ]
            if not candidates:
                continue
            i, j = rng.choice(candidates)
            out[i] |= 1 << j
            bigger = BitDigraph(6, out)
            if had:
                assert has_transitive_set(bigger, 3)
            assert digraph_independent(bigger, 3) <= digraph_independent(d, 3)

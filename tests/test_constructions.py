import json
import random
from itertools import combinations

import pytest

from transversal_lab.codec import encode_graph6
from transversal_lab.constructions import (
    PartitionedGraph,
    complete_bipartite,
    empty_bipartite,
    extension_property_holds,
    half_graph,
    henson_approx,
    layered_from_digraph,
    partition_extension_witness,
    rado_partition_witness,
    shift_graph,
    spread,
    tensor,
)
from transversal_lab.errors import CapExceeded
from transversal_lab.graphs import (
    BitDigraph,
    UGraph,
    has_clique,
        independence_number,
    is_independent,
    mask_of,
)
from transversal_lab.ramsey import circulant_digraph, enumerate_good_classes

from oracles import (
    naive_has_clique,
    reference_layered_from_digraph,
    reference_partition_extension_witness,
    reference_rado_partition_witness,
    reference_tensor,
)

C3 = circulant_digraph(3, [1])
TT3 = BitDigraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])


class TestLayered:
    def test_single_arc_depth_2(self):
        pg = layered_from_digraph(BitDigraph.from_arcs(2, [(0, 1)]), 2)
        # hand enumeration of the s < u rule: only (0,0)-(1,1)
        assert pg.graph.order == 4
        assert pg.graph.edges() == [(0, 3)]

    def test_three_cycle_depth_5_triangle_free(self):
        pg = layered_from_digraph(C3, 5)
        assert pg.graph.order == 15
        assert not has_clique(pg.graph, 3)
        assert not naive_has_clique(pg.graph, 3)

    def test_transitive_triangle_depth_3_has_triangle(self):
        pg = layered_from_digraph(TT3, 3)
        assert has_clique(pg.graph, 3)

    def test_classes_are_rows_and_internally_empty(self):
        pg = layered_from_digraph(C3, 4)
        assert [sorted(c) for c in pg.classes] == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9, 10, 11],
        ]
        for cls in pg.classes:
            assert is_independent(pg.graph, cls)

    def test_all_transitive_3_free_classes_order_4_depth_4(self):
        # an independent 5-set cannot fit in 4 vertices, so only n binds
        out = enumerate_good_classes(3, 5, 4)
        for level in out.levels:
            for d in level:
                assert not has_clique(layered_from_digraph(d, 4).graph, 3)

    def test_all_transitive_4_free_classes_order_4_depth_4(self):
        out = enumerate_good_classes(4, 5, 4)
        for level in out.levels:
            for d in level:
                assert not has_clique(layered_from_digraph(d, 4).graph, 4)

    def test_two_cycles_give_edges_both_ways(self):
        d = BitDigraph.from_arcs(2, [(0, 1), (1, 0)])
        pg = layered_from_digraph(d, 2)
        assert sorted(pg.graph.edges()) == [(0, 3), (1, 2)]


    def test_blowups_of_one_shape_share_their_classes(self):
        # the classes depend only on rows and depth, so a batch of blowups
        # holds each shape's frozensets once
        pg = layered_from_digraph(C3, 4)
        assert layered_from_digraph(BitDigraph.empty(3), 4).classes is pg.classes
        assert layered_from_digraph(C3, 5).classes is not pg.classes

    def test_matches_reference_on_random_digraphs(self):
        # every order 1..10 and depth 1..8, oriented and with 2-cycles
        rng = random.Random(15)
        cases = doubled = 0
        for order in range(1, 11):
            for depth in range(1, 9):
                for p_both in (0.0, 0.3):
                    arcs = []
                    for i in range(order):
                        for j in range(i + 1, order):
                            x = rng.random()
                            if x < p_both:
                                arcs += [(i, j), (j, i)]
                                doubled += 1
                            elif x < 0.6:
                                arcs.append(rng.choice([(i, j), (j, i)]))
                    d = BitDigraph.from_arcs(order, arcs)
                    got = layered_from_digraph(d, depth)
                    want = reference_layered_from_digraph(d, depth)
                    assert got.graph.adj == want.graph.adj, (order, depth, arcs)
                    assert got.classes == want.classes
                    cases += 1
        assert cases == 160 and doubled > 0

    def test_spread_copies_a_pattern_into_every_block(self):
        rng = random.Random(7)
        for width in range(1, 9):
            for _ in range(20):
                mask, p = rng.getrandbits(10), rng.getrandbits(width)
                copies = 0
                for j in range(10):
                    if mask >> j & 1:
                        copies |= p << (j * width)
                assert p * spread(mask, width) == copies


class TestBipartiteGenerators:
    def test_half_graph_3(self):
        pg = half_graph(3)
        assert pg.graph.edge_count() == 3
        assert pg.graph.edges() == [(0, 4), (0, 5), (1, 5)]

    def test_complete_bipartite_2_is_c4(self):
        pg = complete_bipartite(2)
        assert sorted(pg.graph.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_empty_bipartite(self):
        assert empty_bipartite(5).graph.edge_count() == 0

    def test_zero_size(self):
        assert half_graph(0).graph.order == 0


class TestTensor:
    def test_k2_tensor_empty_is_complete_bipartite(self):
        t = tensor(UGraph.complete(2), UGraph.empty(4))
        assert t == complete_bipartite(4).graph

    def test_identity_like_case(self):
        h = UGraph.cycle(5)
        assert tensor(UGraph.empty(1), h) == h

    def test_kn_tensor_empty_fibers_are_maximal_independent(self):
        t = tensor(UGraph.complete(3), UGraph.empty(3))
        assert independence_number(t) == 3
        fibers = [set(range(3 * f, 3 * f + 3)) for f in range(3)]
        # every maximal independent set is exactly one fiber
        for size in range(1, 10):
            for sub in combinations(range(9), size):
                if not is_independent(t, sub):
                    continue
                maximal = all(
                    not is_independent(t, set(sub) | {v})
                    for v in range(9)
                    if v not in sub
                )
                if maximal:
                    assert set(sub) in fibers


    def test_matches_reference_on_random_inputs(self):
        rng = random.Random(15)

        def random_graph(order):
            return UGraph.from_edges(
                order, [e for e in combinations(range(order), 2) if rng.random() < 0.5]
            )

        for g_order in range(7):
            for h_order in range(7):
                for _ in range(2):
                    g, h = random_graph(g_order), random_graph(h_order)
                    assert tensor(g, h).adj == reference_tensor(g, h).adj, (g.adj, h.adj)


class TestShiftGraph:
    def test_adjacency_examples(self):
        g = shift_graph(2, 4)
        # vertices in lex order: {0,1} {0,2} {0,3} {1,2} {1,3} {2,3}
        assert g.has_edge(0, 3)  # {0,1} ~ {1,2}
        assert not g.has_edge(0, 5)  # {0,1} vs {2,3}

    def test_n3_small(self):
        g = shift_graph(2, 3)
        assert g.edge_count() == 1

    def test_triangle_free_up_to_8(self):
        for big_n in range(2, 9):
            assert not has_clique(shift_graph(2, big_n), 3)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            shift_graph(3, 30, vertex_cap=100)


class TestHenson:
    def test_zero_rounds_identity(self):
        g = UGraph.cycle(5)
        assert henson_approx(3, 0, g) == g

    def test_one_round_over_e2(self):
        out = henson_approx(3, 1, UGraph.empty(2))
        assert not has_clique(out, 3)
        assert extension_property_holds(out, 3, range(2), pair_cap=2)

    @pytest.mark.parametrize("bad", [5, -1])
    def test_extension_base_vertex_outside_the_graph_rejected(self, bad):
        # 5 used to be judged as if it were there, and -1 to fail on a shift
        with pytest.raises(ValueError, match=rf"vertex {bad} outside 0\.\.2"):
            extension_property_holds(UGraph.empty(3), 3, [bad])

    def test_output_k3_free_various_seeds(self):
        for seed in (None, 0, 1, 17):
            out = henson_approx(3, 2, UGraph.empty(2), seed)
            assert not has_clique(out, 3)

    def test_k4_free_variant(self):
        out = henson_approx(4, 1, UGraph.cycle(5))
        assert not has_clique(out, 4)

    def test_deterministic(self):
        a = henson_approx(3, 2, UGraph.empty(2), 42)
        b = henson_approx(3, 2, UGraph.empty(2), 42)
        assert a == b

    def test_pinned_output(self):
        # the shuffled and the ascending pair order each give one fixed graph
        shuffled = henson_approx(3, 2, UGraph.empty(2), 42)
        ascending = henson_approx(3, 2, UGraph.empty(2), None)
        assert encode_graph6(shuffled) == "WKBDO__OCOI?U?K?W??G?D?BG??W?@W??w??L???w??S???"
        assert encode_graph6(ascending) == (
            "YQo?HAO`B?G_K?H?A_?W?o?BC?@O?Cg?@c??E??@o??E_??J???F????"
        )

    def test_clique_seed_rejected(self):
        with pytest.raises(ValueError):
            henson_approx(3, 1, UGraph.complete(3))

    def test_vertex_budget(self):
        with pytest.raises(CapExceeded):
            henson_approx(3, 2, UGraph.empty(2), vertex_budget=8)


class TestPartitionExtensionWitness:
    def test_e2_identity_preserved(self):
        pg = partition_extension_witness(UGraph.empty(2), [0], [1], 3, 16)
        assert not pg.graph.has_edge(0, 1)
        assert 0 in pg.classes[0] and 1 in pg.classes[1]
        assert not has_clique(pg.graph, 3)

    def test_random_k3_free_seeds_stay_k3_free(self):
        rng = random.Random(31)
        done = 0
        while done < 50:
            order = rng.randint(2, 7)
            edges = [
                (i, j)
                for i in range(order)
                for j in range(i + 1, order)
                if rng.random() < 0.3
            ]
            g = UGraph.from_edges(order, edges)
            if has_clique(g, 3):
                continue
            done += 1
            split = rng.randint(1, order - 1)
            a, b = list(range(split)), list(range(split, order))
            pg = partition_extension_witness(g, a, b, 3, 20)
            assert not has_clique(pg.graph, 3)
            # embedding is the identity and induced
            for i in range(order):
                for j in range(i + 1, order):
                    assert pg.graph.has_edge(i, j) == g.has_edge(i, j)
            assert set(a) <= pg.classes[0] and set(b) == set(pg.classes[1])

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            partition_extension_witness(UGraph.empty(3), [0], [1], 3, 4)

    def test_matches_the_subset_pair_walk(self):
        rng = random.Random(47)
        cases = 0
        for n in (2, 3, 4):
            graphs = 0
            while graphs < 12:
                order = rng.randint(0, 7)
                p = rng.random()
                g = UGraph.from_edges(order, [e for e in combinations(range(order), 2) if rng.random() < p])
                if has_clique(g, n):
                    continue
                graphs += 1
                verts = list(range(order))
                rng.shuffle(verts)
                cut = rng.randint(0, order)
                a, b = verts[:cut], verts[cut:]
                for pair_budget in [*range(12), 64]:
                    got = partition_extension_witness(g, a, b, n, pair_budget)
                    ref = reference_partition_extension_witness(g, a, b, n, pair_budget)
                    assert (got.graph, got.classes) == (ref.graph, ref.classes)
                    cases += 1
        assert cases == 3 * 12 * 13

    def test_fresh_vertices_start_with_at_most_one_neighbour(self):
        # with E_2, n = 3 and six pairs, the pairs are ((), ()) and
        # ((), (v,)) for v = 0..4: fresh vertex 2 is isolated and fresh
        # vertex v + 3 hangs on v alone
        pg = partition_extension_witness(UGraph.empty(2), [0], [1], 3, 6)
        assert pg.graph.edges() == [(0, 3), (1, 4), (2, 5), (3, 6), (4, 7)]


class TestRadoWitness:
    def test_row_1_stays_independent(self):
        pg = rado_partition_witness(30)
        assert is_independent(pg.graph, pg.classes[1])

    def test_row_classes(self):
        pg = rado_partition_witness(4)
        assert sorted(pg.classes[0]) == [0, 1, 2, 3]
        assert sorted(pg.classes[1]) == [4, 5, 6, 7]

    def test_half_graph_skeleton_present(self):
        depth = 10
        pg = rado_partition_witness(depth)
        for k in range(depth):
            for l in range(depth):
                if k < l:
                    assert pg.graph.has_edge(k, depth + l)

    def test_depth_1_truncation(self):
        # the index formula pins m_0 = 0 at depth 1, so the pair
        # ({(0,1)}, {}) adds the single diagonal edge
        pg = rado_partition_witness(1)
        assert pg.graph.order == 2
        assert [len(c) for c in pg.classes] == [1, 1]
        assert pg.graph.edges() == [(0, 1)]

    def test_added_edges_exist_at_depth_30(self):
        pg = rado_partition_witness(30)
        half_edges = 30 * 29 // 2
        assert pg.graph.edge_count() > half_edges

    def test_deterministic(self):
        assert rado_partition_witness(12).graph == rado_partition_witness(12).graph

    @pytest.mark.parametrize(
        "depth, added",
        [(2, [(1, 2)]), (3, []), (4, [(2, 3)]),
         (30, [(2, 3), (3, 6), (4, 10), (5, 15), (6, 21), (7, 28)])],
    )
    def test_truncation_adds_the_triangular_edges(self, depth, added):
        # (v, 0)-(T(v), 0) with T(v) = v(v+1)/2 < depth, and 1-2 at depth 2
        pg = rado_partition_witness(depth)
        skeleton = half_graph(depth).graph
        assert [e for e in pg.graph.edges() if not skeleton.has_edge(*e)] == added
        assert pg.graph.edge_count() == skeleton.edge_count() + len(added)

    def test_matches_the_subset_pair_walk(self):
        for depth in range(1, 41):
            got, ref = rado_partition_witness(depth), reference_rado_partition_witness(depth)
            assert (got.graph, got.classes) == (ref.graph, ref.classes)


class TestPartitionedGraph:
    @pytest.mark.parametrize(
        "pg",
        [
            layered_from_digraph(circulant_digraph(5, [1, 2]), 3),
            half_graph(4),
            rado_partition_witness(3),
        ],
        ids=["layered", "half", "rado"],
    )
    def test_class_masks_are_the_classes(self, pg):
        assert pg.class_masks() == tuple(mask_of(c) for c in pg.classes)

    def test_stored_masks_stay_out_of_eq_hash_and_repr(self):
        graph = half_graph(2).graph
        classes = (frozenset({0, 1}), frozenset({2, 3}))
        a, b = PartitionedGraph(graph, classes), PartitionedGraph(graph, classes)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            "PartitionedGraph(graph=UGraph(order=4, edges=1), "
            "classes=(frozenset({0, 1}), frozenset({2, 3})))"
        )
        assert a != PartitionedGraph(graph, classes[::-1])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PartitionedGraph(UGraph.empty(2), (frozenset({0, 1}), frozenset({1})))

    def test_cover_required(self):
        with pytest.raises(ValueError):
            PartitionedGraph(UGraph.empty(3), (frozenset({0, 1}),))

    @pytest.mark.parametrize(
        "classes, message",
        [
            ("[[0, 1], [2, 3, 4]]", "partition class 1 holds vertex 4, not one of 0..3"),
            ("[[0, 1, -1], [2, 3]]", "partition class 0 holds vertex -1, not one of 0..3"),
        ],
    )
    def test_vertex_outside_the_graph_named(self, classes, message):
        graph = half_graph(2).graph
        with pytest.raises(ValueError) as exc:
            PartitionedGraph(graph, tuple(frozenset(c) for c in json.loads(classes)))
        assert str(exc.value) == message

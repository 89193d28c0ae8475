import random
import re
from itertools import combinations

import pytest

from transversal_lab.constructions import (
    PartitionedGraph,
    complete_bipartite,
    empty_bipartite,
    half_graph,
    henson_approx,
)
from transversal_lab.embedding import (
    SINGLE_EDGE,
    BipartitePattern,
    HalfOrderResult,
    balanced_induced_embed,
    half_graph_order,
    rich_pair_surrogate,
)
from transversal_lab.graphs import UGraph

from oracles import (
    naive_balanced_embed,
    naive_half_graph_order,
    reference_balanced_induced_embed,
)


def random_bipartite(rng, max_side=5, p=None):
    na, nb = rng.randint(1, max_side), rng.randint(1, max_side)
    p = rng.random() if p is None else p
    edges = [
        (i, na + j) for i in range(na) for j in range(nb) if rng.random() < p
    ]
    return UGraph.from_edges(na + nb, edges), range(na), range(na, na + nb)


def random_embedding_case(rng, max_order=9):
    """A random graph split into two classes at random, edges inside the
    classes included, and a random pattern with sides of 1 to 3."""
    order = rng.randint(2, max_order)
    p = rng.random()
    g = UGraph.from_edges(order, [e for e in combinations(range(order), 2) if rng.random() < p])
    verts = list(range(order))
    rng.shuffle(verts)
    cut = rng.randint(1, order - 1)
    host = PartitionedGraph(g, (frozenset(verts[:cut]), frozenset(verts[cut:])))
    left, right = rng.randint(1, 3), rng.randint(1, 3)
    edges = frozenset(
        (i, j) for i in range(left) for j in range(right) if rng.random() < 0.5
    )
    return host, BipartitePattern(left, right, edges)


def outcome(out):
    return out.report, out.exact, out.nodes, out.budget_reason


class TestHalfGraphOrder:
    def test_half_graph_is_its_own_witness(self):
        for k in range(1, 7):
            pg = half_graph(k)
            res = half_graph_order(pg.graph, pg.classes[0], pg.classes[1], exact_cap=7)
            assert res.order == k
            assert res.exact
            assert res.verify(pg.graph, pg.classes[0], pg.classes[1])

    def test_witness_must_lie_in_its_sides(self):
        # with the sides swapped every a_i b_j is still an edge; the check
        # used to pass it
        pg = half_graph(4)
        swapped = HalfOrderResult(4, True, (7, 6, 5, 4), (3, 2, 1, 0))
        assert not swapped.verify(pg.graph, pg.classes[0], pg.classes[1])
        assert swapped.verify(pg.graph, pg.classes[1], pg.classes[0])

    def test_empty_sides_give_vacuous_order_1(self):
        pg = empty_bipartite(4)
        res = half_graph_order(pg.graph, pg.classes[0], pg.classes[1])
        assert res.order == 1 and res.exact

    def test_complete_bipartite(self):
        pg = complete_bipartite(5)
        res = half_graph_order(pg.graph, pg.classes[0], pg.classes[1], exact_cap=5)
        assert res.order == 5
        assert res.verify(pg.graph, pg.classes[0], pg.classes[1])

    def test_empty_side_order_0(self):
        g = UGraph.empty(3)
        assert half_graph_order(g, [], [0, 1]).order == 0

    def test_negative_exact_cap_rejected(self):
        # exact_cap=-2 used to report order 0 on sides of order 4
        pg = half_graph(4)
        with pytest.raises(ValueError, match="exact_cap must be >= 0"):
            half_graph_order(pg.graph, pg.classes[0], pg.classes[1], exact_cap=-2)

    @pytest.mark.parametrize("a, b, bad", [([0, 1, 9], [3, 4, 5], 9), ([0, 1, 2], [3, -1], -1)])
    def test_side_vertex_outside_the_graph_rejected(self, a, b, bad):
        # 9 used to raise IndexError, -1 "negative shift count"
        g = half_graph(3).graph
        with pytest.raises(ValueError, match=rf"vertex {bad} outside 0\.\.5"):
            half_graph_order(g, a, b)

    def test_oracle_agreement(self):
        rng = random.Random(64)
        for _ in range(80):
            g, a, b = random_bipartite(rng)
            got = half_graph_order(g, a, b, exact_cap=5)
            assert got.exact
            assert got.order == naive_half_graph_order(g, a, b)

    def test_monotone_under_cross_edge_addition(self):
        rng = random.Random(12)
        for _ in range(30):
            g, a, b = random_bipartite(rng, max_side=4)
            before = half_graph_order(g, a, b, exact_cap=5).order
            missing = [
                (u, v)
                for u in a
                for v in b
                if not g.has_edge(u, v)
            ]
            if not missing:
                continue
            u, v = rng.choice(missing)
            g2 = UGraph.from_edges(g.order, g.edges() + [(u, v)])
            assert half_graph_order(g2, a, b, exact_cap=5).order >= before

    def test_greedy_extension_beyond_cap(self):
        pg = half_graph(9)
        res = half_graph_order(pg.graph, pg.classes[0], pg.classes[1], exact_cap=4)
        assert res.order >= 5
        assert not res.exact
        assert res.verify(pg.graph, pg.classes[0], pg.classes[1])

    def test_budget_flagging(self):
        pg = half_graph(6)
        res = half_graph_order(
            pg.graph, pg.classes[0], pg.classes[1], exact_cap=6, node_budget=3
        )
        assert not res.exact


class TestRichPairSurrogate:
    def test_empty_sides(self):
        pg = empty_bipartite(4)
        v = rich_pair_surrogate(pg.graph, pg.classes[0], pg.classes[1], 3)
        assert v.kind == "empty_pair"
        assert len(v.a_witness) == 3 and len(v.b_witness) == 3

    def test_complete_sides(self):
        pg = complete_bipartite(4)
        v = rich_pair_surrogate(pg.graph, pg.classes[0], pg.classes[1], 3)
        assert v.kind == "half_graph"

    def test_half_graph_sides_contain_cross_empty_block(self):
        # the top half of side 0 against the bottom half of side 1 spans no
        # edges, so the biclique stage fires first
        pg = half_graph(6)
        v = rich_pair_surrogate(pg.graph, pg.classes[0], pg.classes[1], 3)
        assert v.kind == "empty_pair"
        for u in v.a_witness:
            for w in v.b_witness:
                assert not pg.graph.has_edge(u, w)

    def test_empty_pair_witness_excludes_half_graph_inside(self):
        pg = half_graph(6)
        v = rich_pair_surrogate(pg.graph, pg.classes[0], pg.classes[1], 3)
        inner = half_graph_order(pg.graph, v.a_witness, v.b_witness, exact_cap=4)
        assert inner.order <= 1

    def test_budget_stop_is_reported(self):
        pg = empty_bipartite(4)
        v = rich_pair_surrogate(pg.graph, pg.classes[0], pg.classes[1], 3, node_budget=2)
        assert (v.kind, v.budget_reason) == ("inconclusive", "nodes")
        v = rich_pair_surrogate(pg.graph, pg.classes[0], pg.classes[1], 3, node_budget=3)
        assert (v.kind, v.budget_reason) == ("empty_pair", None)

    def test_one_budget_covers_every_phase(self):
        # the biclique phase spends 4 nodes, the "ab" half-graph phase 10;
        # a fresh budget per phase would let 5 nodes certify order 3
        pg = complete_bipartite(4)
        sides = (pg.graph, pg.classes[0], pg.classes[1], 3)
        v = rich_pair_surrogate(*sides, node_budget=5)
        assert (v.kind, v.budget_reason) == ("inconclusive", "nodes")
        v = rich_pair_surrogate(*sides, node_budget=14)
        assert (v.kind, v.budget_reason) == ("half_graph", None)

    def test_side_size_precondition(self):
        pg = empty_bipartite(2)
        with pytest.raises(ValueError):
            rich_pair_surrogate(pg.graph, pg.classes[0], pg.classes[1], 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        # k = -1 used to return half-graph witnesses cut by a_sequence[:-1],
        # and k = 0 an empty empty_pair
        pg = complete_bipartite(3)
        with pytest.raises(ValueError, match="k must be >= 1"):
            rich_pair_surrogate(pg.graph, pg.classes[0], pg.classes[1], k)

    @pytest.mark.parametrize("a, b, bad", [([0, 1, 9], [3, 4, 5], 9), ([-1, 0, 1], [3, 4, 5], -1)])
    def test_side_vertex_outside_the_graph_rejected(self, a, b, bad):
        g = half_graph(3).graph
        with pytest.raises(ValueError, match=rf"vertex {bad} outside 0\.\.5"):
            rich_pair_surrogate(g, a, b, 2)


class TestBalancedInducedEmbed:
    def test_single_edge_into_half_graph(self):
        out = balanced_induced_embed(half_graph(3), SINGLE_EDGE)
        assert out.report is not None
        assert out.report.verify(half_graph(3), SINGLE_EDGE)

    def test_single_edge_into_empty_host_absent(self):
        out = balanced_induced_embed(empty_bipartite(3), SINGLE_EDGE)
        assert out.report is None
        assert out.exact

    def test_p3_into_henson_split(self):
        pattern = BipartitePattern(1, 2, frozenset({(0, 0), (0, 1)}))
        rng = random.Random(4)
        g = henson_approx(3, 2, UGraph.empty(2))
        verts = list(range(g.order))
        rng.shuffle(verts)
        half = g.order // 2
        host = PartitionedGraph(
            g, (frozenset(verts[:half]), frozenset(verts[half:]))
        )
        out = balanced_induced_embed(host, pattern)
        if out.report is not None:
            assert out.report.verify(host, pattern)

    def test_both_side_assignments_tried(self):
        # pattern needs a left vertex adjacent to two rights: orient the
        # host so only one assignment can work
        host = PartitionedGraph(
            UGraph.from_edges(3, [(0, 1), (0, 2)]),
            (frozenset({1, 2}), frozenset({0})),
        )
        pattern = BipartitePattern(1, 2, frozenset({(0, 0), (0, 1)}))
        out = balanced_induced_embed(host, pattern)
        assert out.report is not None
        assert out.report.side_assignment == (1, 0)

    def test_induced_semantics_reject_extra_edges(self):
        # host has both cross edges; pattern wants exactly one of two
        host = PartitionedGraph(
            UGraph.from_edges(3, [(0, 1), (0, 2)]),
            (frozenset({0}), frozenset({1, 2})),
        )
        pattern = BipartitePattern(1, 2, frozenset({(0, 0)}))
        out = balanced_induced_embed(host, pattern)
        assert out.report is None and out.exact

    @pytest.mark.parametrize("edge", [(0, 0, 0), (0,)])
    def test_edge_must_have_two_ends(self, edge):
        # used to fail on unpacking, without naming the edge
        with pytest.raises(ValueError, match=re.escape(f"pattern edge {edge} must have two ends")):
            BipartitePattern(1, 1, frozenset({edge}))

    def test_random_reports_verify(self):
        rng = random.Random(99)
        for _ in range(40):
            g, a, b = random_bipartite(rng, max_side=5)
            host = PartitionedGraph(g, (frozenset(a), frozenset(b)))
            left, right = rng.randint(1, 2), rng.randint(1, 2)
            edges = frozenset(
                (i, j)
                for i in range(left)
                for j in range(right)
                if rng.random() < 0.5
            )
            pattern = BipartitePattern(left, right, edges)
            out = balanced_induced_embed(host, pattern)
            if out.report is not None:
                assert out.report.verify(host, pattern)
            assert out.exact
            assert (out.report is None) == (not naive_balanced_embed(host, pattern))

    def test_reported_absence_is_real(self):
        # edges inside the classes make the induced condition bite on both
        # sides; about a quarter of the cases have an embedding
        rng = random.Random(7)
        found = 0
        for _ in range(150):
            host, pattern = random_embedding_case(rng, max_order=8)
            out = balanced_induced_embed(host, pattern)
            assert out.exact
            assert (out.report is None) == (not naive_balanced_embed(host, pattern))
            found += out.report is not None
        assert 20 <= found <= 130

    def test_host_needs_two_classes(self):
        pg = PartitionedGraph(UGraph.empty(2), (frozenset({0, 1}),))
        with pytest.raises(ValueError):
            balanced_induced_embed(pg, SINGLE_EDGE)


class TestReferenceEquivalence:
    """The one-recursion walk against the two-closure walk it replaced:
    same report, exactness, node count and budget reason."""

    def test_unbudgeted(self):
        rng = random.Random(19)
        found = 0
        for _ in range(400):
            host, pattern = random_embedding_case(rng)
            got = balanced_induced_embed(host, pattern)
            assert outcome(got) == outcome(reference_balanced_induced_embed(host, pattern))
            found += got.report is not None
        assert 50 <= found <= 350

    def test_every_budget(self):
        rng = random.Random(23)
        stopped = 0
        for _ in range(40):
            host, pattern = random_embedding_case(rng)
            nodes = balanced_induced_embed(host, pattern).nodes
            for budget in range(nodes + 2):
                got = balanced_induced_embed(host, pattern, node_budget=budget)
                ref = reference_balanced_induced_embed(host, pattern, node_budget=budget)
                assert outcome(got) == outcome(ref)
                stopped += got.budget_reason is not None
        assert stopped >= 2000

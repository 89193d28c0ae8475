import random
import sys
from dataclasses import replace

import pytest

import transversal_lab.transversal as transversal_module
from transversal_lab.constructions import PartitionedGraph, layered_from_digraph, tensor
from transversal_lab.errors import BudgetExceeded
from transversal_lab.graphs import BitDigraph, Budget, UGraph, has_clique, is_independent
from transversal_lab.ramsey import circulant_digraph
from transversal_lab.transversal import (
    _harden_candidate,
    _random_transitive_free_digraph,
    estimate_N,
    find_transversal,
    max_profile,
)

from oracles import (
    naive_has_clique,
    naive_has_transitive,
    naive_transversal_exists,
    reference_max_profile,
    reference_solve,
    reference_transversal,
)


def split_fibers(graph: UGraph, fibers: int, fiber_size: int, parts: int) -> PartitionedGraph:
    """Partition each fiber of a tensor blowup into `parts` balanced classes."""
    classes = []
    for f in range(fibers):
        base = f * fiber_size
        buckets = [[] for _ in range(parts)]
        for i in range(fiber_size):
            buckets[i % parts].append(base + i)
        classes.extend(frozenset(b) for b in buckets)
    return PartitionedGraph(graph, tuple(classes))


def random_partitioned(rng, max_order=18, max_classes=4):
    order = rng.randint(2, max_order)
    r = rng.randint(1, min(max_classes, order))
    assignment = [rng.randrange(r) for _ in range(order)]
    # guarantee nonempty classes
    for c in range(r):
        assignment[c % order] = c
    classes = tuple(
        frozenset(v for v in range(order) if assignment[v] == c) for c in range(r)
    )
    p = rng.random() * 0.5 + 0.1
    edges = [
        (i, j)
        for i in range(order)
        for j in range(i + 1, order)
        if rng.random() < p
    ]
    return PartitionedGraph(UGraph.from_edges(order, edges), classes)


class TestFindTransversal:
    def test_empty_graph_three_classes(self):
        pg = PartitionedGraph(
            UGraph.empty(9),
            (frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8})),
        )
        res = find_transversal(pg, 3, 3)
        assert res.status == "found"
        assert res.witness == frozenset(range(9))
        assert res.profile == (3, 3, 3)
        assert res.verify(pg, 3, 3)

    def test_tensor_fibers_split_into_two(self):
        t = tensor(UGraph.complete(3), UGraph.empty(4))
        pg = split_fibers(t, 3, 4, 2)
        assert find_transversal(pg, 3, 1).status == "none"

    def test_layered_three_cycle(self):
        pg = layered_from_digraph(circulant_digraph(3, [1]), 3)
        res = find_transversal(pg, 2, 1)
        assert res.status == "found"
        assert res.witness == frozenset({0, 3})

    def test_budget_status(self):
        pg = random_partitioned(random.Random(0), max_order=16, max_classes=4)
        res = find_transversal(pg, 2, 2, node_budget=1)
        assert (res.status, res.witness, res.nodes) == ("budget", None, 2)
        res = find_transversal(pg, 2, 2, node_budget=2)
        assert res.status == "found"
        assert res.witness == frozenset({0, 1, 8, 12})
        assert res.witness == find_transversal(pg, 2, 2).witness

    def test_negative_budget_rejected(self):
        pg = random_partitioned(random.Random(0), max_order=16, max_classes=4)
        with pytest.raises(ValueError, match="node_budget must be >= 0"):
            find_transversal(pg, 2, 2, node_budget=-1)

    def test_m_larger_than_classes(self):
        pg = PartitionedGraph(UGraph.empty(2), (frozenset({0, 1}),))
        assert find_transversal(pg, 2, 1).status == "none"


class TestVerify:
    """TransversalResult.verify on a found result and on each way a result
    can be wrong.  The layered 3-cycle of depth 3 has classes {0, 1, 2},
    {3, 4, 5} and {6, 7, 8}; its (m, ell) = (2, 2) answer is {1, 2, 3, 4}."""

    pg = layered_from_digraph(circulant_digraph(3, [1]), 3)
    res = find_transversal(pg, 2, 2)

    def test_found_result_holds(self):
        assert (self.res.status, self.res.witness, self.res.profile) == (
            "found", frozenset({1, 2, 3, 4}), (2, 2, 0)
        )
        assert self.res.verify(self.pg, 2, 2)

    def test_dependent_witness(self):
        witness = frozenset({0, 1, 3, 4})  # 0 ~ 4; profile still (2, 2, 0)
        assert not is_independent(self.pg.graph, witness)
        assert not replace(self.res, witness=witness).verify(self.pg, 2, 2)

    @pytest.mark.parametrize("profile", [(2, 2, 1), (2, 1, 0), (2, 2)])
    def test_profile_that_disagrees_with_the_witness(self, profile):
        assert not replace(self.res, profile=profile).verify(self.pg, 2, 2)

    def test_witness_meeting_too_few_classes(self):
        short = replace(self.res, witness=frozenset({1, 2}), profile=(2, 0, 0))
        assert short.verify(self.pg, 1, 2)
        assert not short.verify(self.pg, 2, 2)
        assert not short.verify(self.pg, 1, 3)

    @pytest.mark.parametrize("status", ["none", "budget"])
    def test_no_answer_that_carries_a_witness(self, status):
        assert replace(self.res, status=status, witness=None, profile=(0, 0, 0)).verify(
            self.pg, 2, 2
        )
        assert not replace(self.res, status=status).verify(self.pg, 2, 2)

    def test_witness_vertex_outside_the_graph(self):
        outside = replace(self.res, witness=frozenset({1, 2, 3, 9}))
        with pytest.raises(ValueError, match="vertex 9 outside 0..8"):
            outside.verify(self.pg, 2, 2)


class TestOracleEquivalence:
    def test_200_random_instances(self):
        rng = random.Random(88)
        for _ in range(200):
            pg = random_partitioned(rng)
            r = pg.num_classes
            m = rng.randint(1, r)
            ell = rng.randint(1, 3)
            got = find_transversal(pg, m, ell)
            want = naive_transversal_exists(pg, m, ell)
            assert (got.status == "found") == want
            if got.status == "found":
                assert is_independent(pg.graph, got.witness)
                assert sum(1 for h in got.profile if h >= ell) >= m


def solve(pg, m, ell, node_budget=None):
    res = find_transversal(pg, m, ell, node_budget=node_budget)
    return res.status, res.witness, res.profile, res.nodes


class TestReferenceEquivalence:
    """The mask walk, with its counted skip of dependent subsets and its
    capacity memo, against the plain subset-by-subset loop: the same
    status, witness, profile and node count."""

    def test_400_random_instances(self):
        rng = random.Random(61)
        statuses = set()
        skipped = small = 0
        for _ in range(400):
            pg = random_partitioned(rng)
            m = rng.randint(1, pg.num_classes)
            ell = rng.randint(1, 3)
            want = reference_transversal(pg, m, ell)
            assert solve(pg, m, ell) == want[:4]
            statuses.add(want[0])
            skipped += want[4] > 0
            small += any(len(c) < ell for c in pg.classes)
        assert statuses == {"found", "none"}
        # edges inside classes: the counted skip runs on many instances
        assert skipped >= 100
        # classes smaller than ell: the class filter drops one on many
        assert small >= 100

    def test_fewer_than_m_classes_with_ell_vertices(self):
        # only the third class has two vertices, so no pair of classes can
        # both be met twice and no combination is searched
        pg = PartitionedGraph(
            UGraph.empty(5), (frozenset({0}), frozenset({1}), frozenset({2, 3, 4}))
        )
        res = find_transversal(pg, 2, 2)
        assert (res.status, res.witness, res.profile, res.nodes) == ("none", None, (0, 0, 0), 0)
        assert res == reference_solve(pg, 2, 2, Budget())
        assert reference_transversal(pg, 2, 2)[:4] == ("none", None, (0, 0, 0), 0)

    def test_every_node_budget(self):
        rng = random.Random(17)
        checked = 0
        while checked < 10:
            pg = random_partitioned(rng, max_order=12, max_classes=3)
            m = rng.randint(1, pg.num_classes)
            ell = rng.randint(2, 3)
            free = reference_transversal(pg, m, ell)
            if not free[4] or free[3] > 150:
                continue
            checked += 1
            for budget in range(1, free[3] + 2):
                want = reference_transversal(pg, m, ell, node_budget=budget)
                assert solve(pg, m, ell, node_budget=budget) == want[:4]
                assert want[0] == ("budget" if budget < free[3] else free[0])


def layered_case(rng):
    """A layered blowup of depth 3 or 4 over a random transitive-triple-free
    digraph on 5 to 8 rows, with a random m and ell."""
    rows = rng.randint(5, 8)
    depth = rng.randint(3, 4)
    pg = layered_from_digraph(_random_transitive_free_digraph(rows, 3, rng), depth)
    return pg, rng.randint(1, rows), rng.randint(1, 3)


def traced_solve(pg, m, ell):
    """find_transversal, the class placements it walked and its
    failed-subtree memo as the call ends.  A walked placement is a call of
    the inner `pick` made by `place`, not by `pick` itself; a placement
    answered from the memo makes none.  The memo is `_solve`'s `failed`."""
    walked = 0
    memo = None

    def trace(frame, event, arg):
        nonlocal walked, memo
        name = frame.f_code.co_name
        if event == "call" and name == "pick":
            walked += frame.f_back.f_code.co_name == "place"
        elif event == "return" and name == "_solve":
            memo = dict(frame.f_locals["failed"])

    sys.setprofile(trace)
    try:
        res = find_transversal(pg, m, ell)
    finally:
        sys.setprofile(None)
    return res, walked, memo


def outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except BudgetExceeded as exc:
        return str(exc)


class TestFailedSubtreeMemo:
    """The failed-subtree memo on layered blowups, against the plain
    subset-by-subset walk and against the mask walk without the memo
    (`oracles.reference_solve`): the same status, witness, profile and
    nodes, under every budget; and exactly the placements and the memo
    entries that the plain walk says a failed-subtree memo has."""

    def test_layered_blowups_match_references(self):
        rng = random.Random(1990)
        statuses = set()
        hit_cases = hits = 0
        for _ in range(600):
            pg, m, ell = layered_case(rng)
            want = reference_transversal(pg, m, ell)
            res, walked, memo = traced_solve(pg, m, ell)
            assert (res.status, res.witness, res.profile, res.nodes) == want[:4]
            assert res == reference_solve(pg, m, ell, Budget())
            assert (walked, memo) == (want[5].walked, want[5].failed)
            statuses.add(want[0])
            hit_cases += want[5].hits > 0
            hits += want[5].hits
        assert statuses == {"found", "none"}
        # positive control: failed subtrees come back and are answered
        assert hit_cases >= 50 and hits >= 300

    def test_every_node_budget_on_none_instances(self):
        rng = random.Random(41)
        checked = 0
        while checked < 4:
            pg, m, ell = layered_case(rng)
            free = reference_transversal(pg, m, ell)
            if free[0] != "none" or free[5].hits < 3 or free[3] > 250:
                continue
            checked += 1
            for budget in range(1, free[3] + 2):
                want = reference_transversal(pg, m, ell, node_budget=budget)
                assert solve(pg, m, ell, node_budget=budget) == want[:4]
                assert want[0] == ("budget" if budget < free[3] else "none")

    def test_max_profile_under_one_budget(self):
        rng = random.Random(7)
        checked = 0
        while checked < 6:
            pg, _, ell = layered_case(rng)
            budget = Budget()
            for m in range(pg.num_classes, 0, -1):
                if reference_solve(pg, m, ell, budget).status == "found":
                    break
            total = budget.nodes
            if total > 400:
                continue
            checked += 1
            for node_budget in [None, *range(0, total + 2)]:
                assert outcome(max_profile, pg, ell, node_budget=node_budget) == outcome(
                    reference_max_profile, pg, ell, node_budget=node_budget
                )


class TestMonotonicity:
    def test_found_is_downward_closed(self):
        rng = random.Random(5)
        for _ in range(30):
            pg = random_partitioned(rng, max_order=14, max_classes=4)
            r = pg.num_classes
            m = rng.randint(1, r)
            ell = rng.randint(1, 3)
            if find_transversal(pg, m, ell).status == "found":
                for m2 in range(1, m + 1):
                    for ell2 in range(1, ell + 1):
                        assert find_transversal(pg, m2, ell2).status == "found"


class TestMaxProfile:
    def test_empty_graph_full_classes(self):
        pg = PartitionedGraph(
            UGraph.empty(8),
            tuple(frozenset({2 * i, 2 * i + 1}) for i in range(4)),
        )
        assert max_profile(pg, 2) == 4

    def test_complete_graph_singletons(self):
        pg = PartitionedGraph(
            UGraph.complete(5), tuple(frozenset({v}) for v in range(5))
        )
        assert max_profile(pg, 1) == 1

    def test_one_budget_covers_every_probe(self):
        # the probes m = 6, 5, 4, 3, 2 spend 2, 12, 30, 40 and 2 nodes, and
        # m = 2 succeeds; each fits in 40 on its own, together they need 86
        t = tensor(UGraph.complete(3), UGraph.empty(4))
        pg = split_fibers(t, 3, 4, 2)
        assert max_profile(pg, 1, node_budget=86) == 2
        with pytest.raises(BudgetExceeded, match="at most 2"):
            max_profile(pg, 1, node_budget=85)
        with pytest.raises(BudgetExceeded, match="at most 4"):
            max_profile(pg, 1, node_budget=40)

    def test_blowup_law_small(self):
        # tensor(K_3, E_6), fibers split into 2 classes: independent sets
        # live in one fiber, so the best profile is exactly 2 for ell <= 3
        t = tensor(UGraph.complete(3), UGraph.empty(6))
        pg = split_fibers(t, 3, 6, 2)
        for ell in (1, 2, 3):
            assert max_profile(pg, ell) == 2


class TestEstimateN:
    def test_no_counterexample_at_n1(self):
        est = estimate_N(3, 2, 1, 1, r=4, candidates=25)
        assert est.best_counterexample is None
        assert est.implies_n_above is None

    def test_exhaustive_ground_truth_at_n1(self):
        # every K_3-free graph on 4 singleton classes admits an independent
        # set meeting 2 classes: confirmed over all 64 labelled graphs
        for bitmask in range(1 << 6):
            pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
            edges = [p for k, p in enumerate(pairs) if (bitmask >> k) & 1]
            g = UGraph.from_edges(4, edges)
            if has_clique(g, 3):
                continue
            pg = PartitionedGraph(g, tuple(frozenset({v}) for v in range(4)))
            assert naive_transversal_exists(pg, 2, 1)

    def test_evidence_recorded_either_way(self):
        est = estimate_N(3, 2, 2, 2, r=4, strategy="local-search", candidates=40)
        assert est.candidates_tried <= 40
        if est.best_counterexample is not None:
            pg = est.best_counterexample
            assert not has_clique(pg.graph, 3)
            assert all(len(c) == 2 for c in pg.classes)
            assert find_transversal(pg, 2, 2).status == "none"
            assert est.implies_n_above == 2

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            estimate_N(0, 2, 1, 1, r=4)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            estimate_N(3, 2, 1, 1, r=4, strategy="quantum")

    @pytest.mark.parametrize(
        "args, kwargs, match",
        [
            ((3, 4, 1, 2), {"r": 3}, r"1 <= m <= r, got m=4, r=3"),
            ((1, 0, 1, 2), {"r": 3}, r"1 <= m <= r, got m=0, r=3"),
            ((3, 2, 1, 2), {"r": 0}, r"1 <= m <= r, got m=2, r=0"),
            ((3, 2, 0, 2), {"r": 3}, r"^ell must be >= 1$"),
            ((3, 2, 1, 0), {"r": 3}, r"^class_size must be >= 1$"),
            ((3, 2, 1, 2), {"r": 3, "candidates": -1}, r"^candidates must be >= 0$"),
        ],
        ids=["m-above-r", "m-zero", "r-zero", "ell-zero", "class-size-zero", "candidates-negative"],
    )
    def test_bad_arguments_rejected_before_generation(self, monkeypatch, args, kwargs, match):
        # m > r would make every candidate a vacuous counterexample; the
        # others failed deep in generation or returned quietly
        def no_generation(*_):
            raise AssertionError("a candidate was generated")

        monkeypatch.setattr(transversal_module, "_random_transitive_free_digraph", no_generation)
        with pytest.raises(ValueError, match=match):
            estimate_N(*args, **kwargs)


def reference_transitive_free_digraph(r, n, rng):
    """The generator with a brute-force transitive-set test per arc."""
    out = [0] * r
    pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
    rng.shuffle(pairs)
    for i, j in pairs:
        if rng.random() < 0.6:
            out[i] |= 1 << j
            if naive_has_transitive(BitDigraph(r, out), n):
                out[i] &= ~(1 << j)
    return tuple(out)


def reference_harden(pg, n, rng, flips):
    """Edge-flip hardening with a brute-force clique test of the whole
    graph after every flip."""
    order = pg.graph.order
    adj = list(pg.graph.adj)
    class_of = {v: idx for idx, cls in enumerate(pg.classes) for v in cls}
    for _ in range(flips):
        u = rng.randrange(order)
        v = rng.randrange(order)
        if u == v or class_of[u] == class_of[v] or (adj[u] >> v) & 1:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        if naive_has_clique(UGraph(order, adj), n):
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
    return tuple(adj)


class TestEstimateGenerators:
    """The row-level generators behind estimate_N against per-step
    brute-force references: same digraphs, same hardened graphs, same
    random stream afterwards."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_match_brute_force_references(self, n):
        added = 0
        for seed in range(12):
            r = 3 + seed % 3
            depth = 2 + seed % 2
            fast, slow = random.Random(seed), random.Random(seed)
            d = _random_transitive_free_digraph(r, n, fast)
            assert d.out == reference_transitive_free_digraph(r, n, slow)
            pg = layered_from_digraph(d, depth)
            flips = 4 * pg.graph.order
            hard = _harden_candidate(pg, n, fast, flips)
            assert hard.graph.adj == reference_harden(pg, n, slow, flips)
            assert fast.random() == slow.random()
            assert hard.classes == pg.classes
            if n >= 2:
                assert not has_clique(hard.graph, n)
            added += hard.graph.edge_count() - pg.graph.edge_count()
        # positive control: flips are accepted once K_n-freeness allows
        assert (added > 0) == (n >= 3)

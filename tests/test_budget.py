"""The one node budget every search spends from, and its contract at each
budgeted entry point: a negative budget raises, a stop reports
budget + 1 nodes and the reason "nodes", and 0 is a limit."""

import math
from math import comb

import pytest

from transversal_lab.constructions import PartitionedGraph, complete_bipartite, half_graph
from transversal_lab.embedding import (
    SINGLE_EDGE,
    balanced_induced_embed,
    half_graph_order,
    rich_pair_surrogate,
)
from transversal_lab.graphs import Budget, UGraph
from transversal_lab.ortho import alpha_lower_search, directions_of_height
from transversal_lab.ramsey import search_dr
from transversal_lab.transversal import estimate_N, find_transversal


class TestBudget:
    def test_no_budget_is_unlimited(self):
        budget = Budget()
        assert budget.limit == math.inf and budget.deadline is None
        assert budget.spend(10**9) and budget.reason is None

    def test_crossing_spend_clamps_and_later_spends_add(self):
        budget = Budget(5)
        assert budget.spend(5) and not budget.hit
        assert not budget.spend(40)
        assert (budget.nodes, budget.reason) == (6, "nodes")
        assert not budget.spend()
        assert budget.nodes == 7

    def test_zero_is_a_limit(self):
        budget = Budget(0)
        assert budget.limit == 0
        assert not budget.spend()
        assert (budget.nodes, budget.reason) == (1, "nodes")

    def test_time_reason_stays(self):
        budget = Budget(10, 0)
        while not budget.out_of_time():
            pass
        assert budget.reason == "time"
        assert not budget.spend(20)
        assert (budget.nodes, budget.reason) == (20, "time")

    def test_room_reaches_the_node_that_stops_or_reads_the_clock(self):
        assert Budget().room() == math.inf
        budget = Budget(5)
        assert budget.room() == 6
        assert budget.spend(4) and budget.room() == 2
        assert not budget.spend(budget.room())
        assert budget.room() == 1
        budget = Budget(1000, 60)
        assert budget.room() == 256
        assert budget.spend(250) and budget.room() == 6
        assert budget.spend(700) and budget.room() == 51

    @pytest.mark.parametrize(
        "node_budget, time_budget, message",
        [(-1, None, "node_budget must be >= 0"), (None, -0.5, "time_budget must be >= 0")],
    )
    def test_negative_rejected(self, node_budget, time_budget, message):
        with pytest.raises(ValueError, match=message):
            Budget(node_budget, time_budget)


def _dr(node_budget):
    res = search_dr(3, 3, node_budget=node_budget, probe=False)
    return (res.lower, res.exact, res.level_counts), res.nodes, res.budget_reason


# C_7 has no independent 4-set, so the search reaches all comb(7, 4) subsets
# of its one class, most of them inside counted runs
_C7 = PartitionedGraph(UGraph.cycle(7), (frozenset(range(7)),))


def _transversal(node_budget):
    res = find_transversal(_C7, 1, 4, node_budget=node_budget)
    return res.status, res.nodes, res.budget_reason


_POOL = directions_of_height(2, 3)


def _alpha(node_budget):
    res = alpha_lower_search(2, 2, _POOL, node_budget=node_budget)
    return (res.family, res.exact), res.nodes, res.budget_reason


_H5 = half_graph(5)


def _half_order(node_budget):
    res = half_graph_order(_H5.graph, _H5.classes[0], _H5.classes[1], node_budget=node_budget)
    return (res.order, res.exact), res.nodes, res.budget_reason


def _balanced(node_budget):
    out = balanced_induced_embed(half_graph(3), SINGLE_EDGE, node_budget=node_budget)
    return (out.report, out.exact), out.nodes, out.budget_reason


_K44 = complete_bipartite(4)


def _rich_pair(node_budget):
    # the biclique phase spends 4 nodes and finds nothing; the half-graph
    # phase spends from what is left.  The verdict reports no node count.
    v = rich_pair_surrogate(_K44.graph, _K44.classes[0], _K44.classes[1], 3, node_budget=node_budget)
    return (v.kind, v.a_witness, v.b_witness), None, v.budget_reason


# entry point, nodes of its unbudgeted run
ENTRY_POINTS = {
    "search_dr": (_dr, 1056),
    "find_transversal": (_transversal, comb(7, 4)),
    "alpha_lower_search": (_alpha, 977),
    "half_graph_order": (_half_order, 15),
    "balanced_induced_embed": (_balanced, 3),
    "rich_pair_surrogate": (_rich_pair, 14),
}


@pytest.fixture(params=sorted(ENTRY_POINTS))
def entry(request):
    return ENTRY_POINTS[request.param]


def test_negative_budget_raises(entry):
    run, _ = entry
    with pytest.raises(ValueError, match="node_budget must be >= 0"):
        run(-1)


def test_stop_reports_budget_plus_one_nodes(entry):
    run, full = entry
    free = run(None)
    assert free[1] in (None, full) and free[2] is None
    for node_budget in sorted({0, 1, 2, 7, full // 2, full - 1}):
        if node_budget >= full:
            continue
        _, nodes, reason = run(node_budget)
        assert reason == "nodes", node_budget
        assert nodes in (None, node_budget + 1), node_budget
    # a budget the run fits in exactly is no stop
    assert run(full) == free


def test_zero_budget_is_a_limit(entry):
    run, _ = entry
    outcome, nodes, reason = run(0)
    assert reason == "nodes" and nodes in (None, 1)
    assert outcome != run(None)[0]


def test_estimate_n_counts_budget_stops():
    # unbudgeted, the first candidate already has no transversal; with a
    # zero budget every search stops, and a stop is evidence neither way
    est = estimate_N(3, 3, 2, 3, r=3, candidates=10, rng_seed=0)
    assert (est.candidates_tried, est.budget_stopped) == (1, 0)
    assert est.implies_n_above == 3
    est = estimate_N(3, 3, 2, 3, r=3, candidates=10, rng_seed=0, node_budget=0)
    assert (est.candidates_tried, est.budget_stopped) == (10, 10)
    assert est.best_counterexample is None

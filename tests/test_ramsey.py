import math
import random
import time
from itertools import combinations, permutations, product

import pytest

from transversal_lab.canon import canonical_label
from transversal_lab.errors import NotACounterexample, VerificationError
from transversal_lab.graphs import (
    BitDigraph,
    Budget,
    digraph_independent,
    find_transitive_in,
    has_transitive_set,
)
from transversal_lab.ramsey import (
    _OTHER_STATES,
    _circulant_is_good,
    _extend,
    _good_extensions,
    check_counterexample,
    circulant_digraph,
    dr_bounds,
    enumerate_good_classes,
    probe_circulants,
    probe_local_search,
    search_dr,
    two_colour_ramsey_holds,
    verify_ramsey_33,
)

from oracles import (
    ReferenceAnnealState,
    all_arced_digraphs,
    all_labelled_digraphs,
    good_labelled_digraphs_3_3,
    naive_good,
    naive_transitive_from,
    reference_dr_bounds,
    reference_enumerate_good_classes,
    reference_good_children,
    reference_local_search,
    reference_probe_circulants,
    reference_two_colour_ramsey_holds,
)

C3 = BitDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
TT3 = BitDigraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])


def naive_circulant_good(q, diffs, n, m):
    """Goodness of circulant_digraph(q, diffs) on the generic predicates."""
    c = circulant_digraph(q, diffs)
    return not has_transitive_set(c, n) and not digraph_independent(c, m)


class TestCheckCounterexample:
    def test_three_cycle_certifies_dr_3_2(self):
        cert = check_counterexample(C3, 3, 2)
        assert cert.reverify()
        assert cert.order + 1 == 4

    def test_empty_digraph(self):
        cert = check_counterexample(BitDigraph.empty(4), 7, 5)
        assert cert.order == 4

    def test_tt3_rejected_with_witness(self):
        with pytest.raises(NotACounterexample) as exc:
            check_counterexample(TT3, 3, 2)
        assert exc.value.kind == "transitive"
        assert exc.value.witness == (0, 1, 2)

    def test_independent_witness(self):
        with pytest.raises(NotACounterexample) as exc:
            check_counterexample(BitDigraph.empty(3), 2, 3)
        assert exc.value.kind == "independent"
        assert str(exc.value) == "digraph contains an independent witness (0, 1, 2)"


class TestSearchDr:
    def test_dr_2_m_is_m(self):
        for m in range(2, 7):
            res = search_dr(2, m)
            assert res.exact and res.lower == res.upper == m
            assert res.proof_method == "exhaustive"

    def test_dr_3_2(self):
        res = search_dr(3, 2)
        assert res.exact and res.lower == 4
        assert res.certificate is not None and res.certificate.order == 3

    def test_dr_3_2_against_naive_enumeration(self):
        # counterexamples for m = 2 have every pair arced: 3^6 digraphs at
        # order 4, none good; the 3-cycle is good at order 3
        assert any(naive_good(d, 3, 2) for d in all_arced_digraphs(3))
        assert not any(naive_good(d, 3, 2) for d in all_arced_digraphs(4))

    def test_dr_3_3_is_9(self):
        res = search_dr(3, 3)
        assert res.exact and res.lower == res.upper == 9
        assert res.proof_method == "exhaustive"
        assert res.certificate.order == 8
        assert res.certificate.reverify()
        assert res.level_counts == (1, 3, 9, 38, 80, 66, 10, 1, 0)

    def test_max_order_below_one_rejected(self):
        for max_order in (0, -1):
            with pytest.raises(ValueError, match="max_order"):
                search_dr(3, 3, max_order=max_order)

    def test_degenerate_cases(self):
        for n, m in ((1, 5), (5, 1), (1, 1)):
            res = search_dr(n, m)
            assert res.exact and res.lower == res.upper == 1
            assert res.certificate is None

    def test_budget_degrades_gracefully(self):
        res = search_dr(3, 3, node_budget=40, probe=False)
        assert not res.exact
        assert res.budget_hit
        assert res.lower <= res.upper
        assert res.certificate is not None
        assert res.certificate.order == res.lower - 1

    def test_budget_reason_names_the_limit_hit(self):
        res = search_dr(3, 4, node_budget=5_000)
        assert res.budget_hit and res.budget_reason == "nodes"
        res = search_dr(5, 2, time_budget=0.2)
        assert res.budget_hit and res.budget_reason == "time"
        res = search_dr(3, 3)
        assert res.exact and not res.budget_hit and res.budget_reason is None

    def test_zero_time_budget_is_a_limit(self):
        res = search_dr(3, 3, time_budget=0)
        assert res.budget_hit and res.budget_reason == "time" and not res.exact
        assert res.certificate.reverify()

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValueError, match="node_budget must be >= 0"):
            search_dr(3, 3, node_budget=-5)
        with pytest.raises(ValueError, match="time_budget must be >= 0"):
            search_dr(3, 3, time_budget=-0.5)

    def test_certified_lower_bound_sound(self):
        res = search_dr(3, 3, node_budget=500, probe=False)
        cert = res.certificate
        reverified = check_counterexample(cert.digraph, 3, 3)
        assert reverified.order == res.lower - 1

    def test_time_budget_bounds_every_phase(self):
        # unbounded, the circulant scan runs past one second for (6, 2), the
        # annealer for (3, 4) and the enumeration for (5, 2); one deadline
        # must stop all three phases
        for n, m in ((6, 2), (5, 2), (3, 4)):
            start = time.monotonic()
            res = search_dr(n, m, time_budget=1.0)
            assert time.monotonic() - start < 1.5
            assert res.budget_hit
            assert res.certificate.reverify()

    def test_monotone_in_n_and_m(self):
        values = {}
        for n, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            values[(n, m)] = search_dr(n, m).lower
        assert values[(2, 2)] <= values[(2, 3)] <= values[(2, 4)]
        assert values[(2, 2)] <= values[(3, 2)]
        assert values[(2, 3)] <= values[(3, 3)]
        assert values[(3, 2)] <= values[(3, 3)]


class TestIsomorphRejection:
    def test_rejection_loses_nothing_orders_up_to_5(self):
        # canonical classes from the level search equal the canonical forms
        # of the labelled counterexample sets; the order-5 side walks all
        # 4^10 labelled digraphs on bit rows
        eng = enumerate_good_classes(3, 3, 5)
        for order in (2, 3, 4, 5):
            labelled = {canonical_label(d) for d in good_labelled_digraphs_3_3(order)}
            engine = {canonical_label(d) for d in eng.levels[order - 1]}
            assert engine == labelled

    def test_bit_row_oracle_matches_naive_good(self):
        # the bit-row goodness test keeps exactly the labelled digraphs
        # that the tuple-scanning predicates call good
        for order in (1, 2, 3, 4):
            naive = [d.out for d in all_labelled_digraphs(order) if naive_good(d, 3, 3)]
            bit_rows = [d.out for d in good_labelled_digraphs_3_3(order)]
            assert bit_rows == naive, order


def label_levels(outcome):
    """One set of canonical labels per level; each must hold a label per
    representative, or two representatives would be isomorphic."""
    sets = []
    for level in outcome.levels:
        labels = {canonical_label(d) for d in level}
        assert len(labels) == len(level), "isomorphic representatives in one level"
        sets.append(labels)
    return sets


DELETION_CASES = [
    (3, 3, 6),
    (4, 2, 6),
    (3, 4, 6),
    (5, 2, 6),
    (4, 3, 5),
    (6, 6, 5),  # no bound binds on 5 vertices: every digraph
]


class TestCanonicalDeletion:
    @pytest.mark.parametrize("n, m, max_order", DELETION_CASES)
    def test_matches_the_seen_set_reference(self, n, m, max_order):
        got = enumerate_good_classes(n, m, max_order)
        ref = reference_enumerate_good_classes(n, m, max_order)
        assert label_levels(got) == label_levels(ref)
        assert (got.nodes, got.exhausted_empty_order) == (ref.nodes, ref.exhausted_empty_order)

    @pytest.mark.parametrize("limit", [40, 500, 3_000])
    @pytest.mark.parametrize("n, m, max_order", DELETION_CASES)
    def test_budget_stops_match_the_reference(self, n, m, max_order, limit):
        got_budget, ref_budget = Budget(limit), Budget(limit)
        got = enumerate_good_classes(n, m, max_order, budget=got_budget)
        ref = reference_enumerate_good_classes(n, m, max_order, budget=ref_budget)
        assert label_levels(got) == label_levels(ref)
        assert (got.nodes, got.exhausted_empty_order) == (ref.nodes, ref.exhausted_empty_order)
        assert (got_budget.nodes, got_budget.reason) == (ref_budget.nodes, ref_budget.reason)

    def test_positive_control_qr_7(self):
        # the extremal digraph of dr(4,2) = 8 survives the rule at the
        # deepest good order; TestUniqueExtremalDigraph does the same for
        # Z_8 {2,3} at level 8 of (3,3)
        level_7 = enumerate_good_classes(4, 2, 7).levels[6]
        qr_7 = circulant_digraph(7, [1, 2, 4])
        assert canonical_label(qr_7) in {canonical_label(d) for d in level_7}

    def test_labels_only_children_whose_new_vertex_can_be_canonical(self, monkeypatch):
        # the seen-set path labelled every child; the rule labels fewer
        # children than there are, through ramsey.canonical_label
        from transversal_lab import ramsey

        calls = []

        def counting(d, cells=None):
            calls.append(cells)
            return canonical_label(d, cells=cells)

        monkeypatch.setattr(ramsey, "canonical_label", counting)
        out = enumerate_good_classes(3, 4, 5)
        assert calls and all(cells is not None for cells in calls)
        assert len(calls) < out.nodes // 3


# dr_bounds(n, m) for 1 <= n, m <= 8, row n - 1
PINNED_DR_BOUNDS = [
    [(1, 1)] * 8,
    [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8)],
    [(1, 1), (3, 4), (6, 9), (9, 16), (9, 25), (9, 36), (9, 49), (9, 64)],
    [(1, 1), (4, 8), (9, 25), (9, 56), (9, 105), (9, 176), (9, 273), (9, 400)],
    [(1, 1), (5, 16), (9, 65), (9, 176), (9, 385), (9, 736), (9, 1281), (9, 2080)],
    [(1, 1), (6, 32), (9, 161), (9, 512), (9, 1281), (9, 2752), (9, 5313), (9, 9472)],
    [(1, 1), (8, 64), (9, 385), (9, 1408), (9, 3969), (9, 9472), (9, 20097), (9, 39040)],
    [(1, 1), (12, 128), (12, 897), (12, 3712), (12, 11649), (12, 30592), (12, 70785),
     (12, 148864)],
]


class TestDrBounds:
    def test_recurrence_with_known_values(self):
        lo, hi = dr_bounds(3, 3, known={(2, 3): 3, (3, 2): 4})
        assert hi == 2 * 3 + 4 - 1 == 9

    def test_sandwich_lower(self):
        lo, hi = dr_bounds(3, 3)
        assert lo >= 6  # R(3,3) from the table

    def test_degenerate_base(self):
        assert dr_bounds(7, 1) == (1, 1)
        assert dr_bounds(1, 9) == (1, 1)

    def test_m_2_power_bounds(self):
        lo, hi = dr_bounds(5, 2)
        assert lo >= 4  # 2^((5-1)/2)
        assert hi <= 16  # 2^(5-1)

    def test_m_2_lower_bound_is_exact_ceiling(self):
        # lo >= ceil(2^((a-1)/2)), i.e. lo^2 >= 2^(a-1), with equality from
        # a = 6 on, where the power bound beats dr(a, 2) >= a: (lo-1)^2 < 2^(a-1)
        for a in range(2, 201):
            lo, _ = dr_bounds(a, 2)
            assert lo * lo >= 1 << (a - 1)
            if a >= 6:
                assert (lo - 1) ** 2 < 1 << (a - 1), a

    def test_known_exact_value_used(self):
        lo, hi = dr_bounds(3, 4, known={(3, 3): 9})
        assert hi <= 2 * 4 + 9 - 1

    @pytest.mark.parametrize(
        "known", [None, {(3, 2): 4, (4, 2): 8, (3, 3): 9, (2, 5): 5}], ids=["bare", "known"]
    )
    def test_matches_reference(self, known):
        # dropping the R(n, n, m) cap and the provisional memo entry moves
        # no interval
        for n in range(1, 12):
            for m in range(1, 12):
                assert dr_bounds(n, m, known=known) == reference_dr_bounds(n, m, known=known), (n, m)

    def test_deep_grid_needs_no_recursion(self):
        # (1000, 2) used to exceed the interpreter's recursion limit
        assert dr_bounds(1000, 2) == (math.isqrt((1 << 999) - 1) + 1, 1 << 999)

    def test_interval_always_consistent(self):
        for n in range(1, 6):
            for m in range(1, 6):
                lo, hi = dr_bounds(n, m)
                assert 1 <= lo <= hi

    def test_pinned_small_grid(self):
        got = [[dr_bounds(n, m) for m in range(1, 9)] for n in range(1, 9)]
        assert got == PINNED_DR_BOUNDS


class TestClassicalRamsey:
    def test_default_entries(self):
        # R(3,3) = 6 and R(3,4) = 9 are the lower ends they give dr_bounds
        assert dr_bounds(3, 3)[0] == 6
        assert dr_bounds(3, 4)[0] == dr_bounds(4, 3)[0] == 9

    def test_local_verification_of_r33(self):
        assert verify_ramsey_33()

    def test_k4_colouring_exists_without_mono_triangle(self):
        assert not two_colour_ramsey_holds(3, 3, 4)

    def test_matches_the_combinations_brute_force(self):
        for s, t, r in product(range(1, 5), range(1, 5), range(6)):
            assert two_colour_ramsey_holds(s, t, r) == reference_two_colour_ramsey_holds(s, t, r)


class TestCirculants:
    def test_circulant_arcs(self):
        d = circulant_digraph(5, [1, 3])
        assert d.has_arc(0, 1) and d.has_arc(0, 3)
        assert d.has_arc(4, 0) and not d.has_arc(1, 0)

    def test_probe_finds_order_8_for_3_3(self):
        best = probe_circulants(3, 3, 8)
        assert best is not None and best.order == 8
        check_counterexample(best, 3, 3)

    def test_probe_finds_order_13_for_3_4(self):
        best = probe_circulants(3, 4, 13)
        assert best is not None and best.order == 13
        cert = check_counterexample(best, 3, 4)
        assert cert.reverify()

    def test_probe_finds_order_13_for_5_2(self):
        # positive control for the transitive kernel on rotated rows
        best = probe_circulants(5, 2, 13)
        assert best is not None and best.order == 13
        assert check_counterexample(best, 5, 2).reverify()

    def test_translation_check_matches_generic_predicates(self):
        # every difference set on Z_q for q <= 9
        for q in range(2, 10):
            for mask in range(1 << (q - 1)):
                diffs = tuple(d for d in range(1, q) if (mask >> (d - 1)) & 1)
                c = circulant_digraph(q, diffs)
                for n in (3, 4, 5):
                    for m in (2, 3, 4):
                        assert _circulant_is_good(c, n, m) == (
                            not has_transitive_set(c, n) and not digraph_independent(c, m)
                        ), (q, diffs, n, m)

    def test_dropping_one_of_a_doubled_pair_stays_good(self):
        # Lemma (a), on the generic predicates: the scan offers no doubled pair
        cases = 0
        for q in range(3, 11):
            for mask in range(1 << (q - 1)):
                diffs = {d for d in range(1, q) if (mask >> (d - 1)) & 1}
                doubled = [d for d in diffs if d < q - d and q - d in diffs]
                for n in (3, 4):
                    for m in (2, 3, 4):
                        if not naive_circulant_good(q, diffs, n, m):
                            continue
                        for d in doubled:
                            cases += 1
                            assert naive_circulant_good(q, diffs - {d}, n, m), (q, diffs, d, n, m)
                            assert naive_circulant_good(q, diffs - {q - d}, n, m), (q, diffs, d, n, m)
        assert cases > 0

    @pytest.mark.parametrize("n, m", list(product((3, 4, 5), (2, 3, 4))))
    def test_lemma_scan_matches_four_state_reference(self, n, m):
        # equal deepest orders for every max_q give the same orders with a
        # good circulant as the scan over all 2^(q-1) difference sets
        for q in range(2, 13):
            got, ref = probe_circulants(n, m, q), reference_probe_circulants(n, m, q)
            assert (got is None) == (ref is None), (n, m, q)
            if got is not None:
                assert got.order == ref.order, (n, m, q)
                check_counterexample(got, n, m)

    def test_sum_free_paley_construction(self):
        # difference set {2, 5, 6} mod 13 is sum-free and its complement
        # circulant is the Paley graph, whose cliques have size <= 3
        d = circulant_digraph(13, [2, 5, 6])
        assert not has_transitive_set(d, 3)
        assert not digraph_independent(d, 4)

    def test_no_good_circulant_on_14_for_3_4(self):
        # all 2^13 difference sets on Z_14, without the lemma or vertex 0
        for mask in range(1 << 13):
            diffs = [d for d in range(1, 14) if (mask >> (d - 1)) & 1]
            assert not naive_circulant_good(14, diffs, 3, 4), diffs

    def test_annealing_probe_reaches_order_14_for_3_4(self):
        # non-circulant territory: the annealer's fixed seed schedule
        # cracks order 14, certifying dr(3,4) >= 15; the move count pins the
        # walk, so a changed delta or random draw shows here
        from transversal_lab.graphs import Budget
        from transversal_lab.ramsey import probe_local_search

        budget = Budget()
        cand = probe_local_search(4, 14, budget=budget)
        assert cand is not None and cand.order == 14
        assert check_counterexample(cand, 3, 4).reverify()
        assert budget.nodes == 598_066


def brute_force_energy(out, order, m):
    """Transitive triples plus independent m-sets, by subset scan."""
    def arc(u, v):
        return (out[u] >> v) & 1

    triples = sum(
        1
        for t in combinations(range(order), 3)
        if any(arc(x, y) and arc(x, z) and arc(y, z) for x, y, z in permutations(t))
    )
    indeps = sum(
        1
        for c in combinations(range(order), m)
        if not any(arc(u, v) or arc(v, u) for u, v in combinations(c, 2))
    )
    return triples + indeps


class TestAnnealer:
    def test_incremental_energy_matches_full_and_brute_force(self):
        # the reference walk's state: _full_energy is _annealing_energy on
        # the current arcs
        rng = random.Random(5)
        for order in (7, 8, 9, 12, 14):
            for m in (2, 3, 4):
                n_pairs = order * (order - 1) // 2
                anneal = ReferenceAnnealState(
                    order, m, [rng.randint(0, 2) for _ in range(n_pairs)]
                )
                for flip in range(200):
                    k = rng.randrange(n_pairs)
                    new = rng.choice([s for s in (0, 1, 2) if s != anneal.states[k]])
                    anneal.apply(k, new, anneal.flip_delta(k, new))
                    assert anneal.energy == anneal._full_energy()
                    if flip % 10 == 0:
                        out = anneal.build_out()
                        assert anneal.energy == brute_force_energy(out, order, m)

    def test_probe_matches_reference_walk(self):
        # the move loop on local rows takes the reference's every step:
        # same digraph, same moves spent, same limit hit
        from transversal_lab.graphs import Budget
        from transversal_lab.ramsey import probe_local_search

        found = budget_ended = 0
        for m, order, iters, node_budget in product(
            (2, 3, 4, 5), (3, 5, 8, 11, 14), (200, 9000), (None, 1, 4000)
        ):
            case = (m, order, iters, node_budget)
            fast, ref = Budget(node_budget), Budget(node_budget)
            got = probe_local_search(m, order, seeds=2, iters=iters, budget=fast)
            want = reference_local_search(m, order, seeds=2, iters=iters, budget=ref)
            assert (got is None) == (want is None), case
            assert got is None or got.out == want.out, case
            assert (fast.nodes, fast.reason) == (ref.nodes, ref.reason), case
            found += got is not None
            budget_ended += fast.reason == "nodes"
        assert (found, budget_ended) == (46, 45)

    # (node_budget, time_budget, nodes spent before the walk, out_of_time()
    # called before the walk): a budget part used by an earlier phase, one
    # already stopped on entry by nodes or by time, and a zero time budget,
    # whose clock reads at multiples of 256 all fail
    USED_BUDGETS = [
        *((None, None, pre, False) for pre in (37, 255, 300)),
        *((4000, None, pre, False) for pre in (37, 255, 300)),
        (300, None, 300, False),
        (1, None, 37, False),
        *((None, 0, pre, False) for pre in (0, 37, 255, 300)),
        (None, 0, 0, True),
        (4000, 0, 37, True),
    ]

    @pytest.mark.parametrize("node_budget, time_budget, pre, stopped", USED_BUDGETS)
    def test_probe_matches_reference_walk_on_used_budgets(
        self, node_budget, time_budget, pre, stopped
    ):
        # the local move count stops where one spend() per move would: same
        # digraph, same nodes, same reason, whatever the budget held before
        def used_budget():
            budget = Budget(node_budget, time_budget)
            if pre:  # spend(0) would read the clock at 0 nodes
                budget.spend(pre)
            if stopped:
                assert budget.out_of_time()
            return budget

        reasons = set()
        for m, order, iters in product((2, 3, 4), (3, 5, 8, 14), (200, 9000)):
            case = (m, order, iters)
            fast, ref = used_budget(), used_budget()
            got = probe_local_search(m, order, seeds=2, iters=iters, budget=fast)
            want = reference_local_search(m, order, seeds=2, iters=iters, budget=ref)
            assert (got is None) == (want is None), case
            assert got is None or got.out == want.out, case
            assert (fast.nodes, fast.reason) == (ref.nodes, ref.reason), case
            reasons.add(fast.reason)
        # positive control: each limit the budget has stops some walk
        limits = {"nodes": node_budget, "time": time_budget}
        expected = {reason for reason, limit in limits.items() if limit is not None} or {None}
        assert reasons - {None} <= expected and reasons & expected

    def test_draws_equal_randrange_and_choice(self):
        # the move loop's rejection on getrandbits(n.bit_length()) is the
        # draw randrange(n), choice and randint make, for every pair count up
        # to order 41; on a CPython whose Random draws otherwise, this fails
        def below(rng, n):
            k = rng.getrandbits(n.bit_length())
            while k >= n:
                k = rng.getrandbits(n.bit_length())
            return k

        for n in range(1, 821):
            ours, theirs = random.Random(n), random.Random(n)
            assert [below(ours, n) for _ in range(20)] == [theirs.randrange(n) for _ in range(20)]
            assert ours.getstate() == theirs.getstate(), n
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            for old in (0, 1, 2):
                assert _OTHER_STATES[old][below(ours, 2)] == theirs.choice(_OTHER_STATES[old])
                assert below(ours, 3) == theirs.randint(0, 2)
            assert ours.getstate() == theirs.getstate(), seed

    @pytest.mark.parametrize(
        "order, kwargs, name",
        [(-1, {}, "order"), (4, {"seeds": -1}, "seeds"), (4, {"iters": -5}, "iters")],
    )
    def test_negative_arguments_rejected(self, order, kwargs, name):
        budget = Budget()
        with pytest.raises(ValueError, match=name):
            probe_local_search(4, order, budget=budget, **kwargs)
        assert budget.nodes == 0

    @pytest.mark.parametrize("order", [0, 1])
    def test_orders_without_pairs_return_before_a_move(self, order):
        # no pair to draw (getrandbits(0) never falls below 0 pairs), and
        # energy 0 ends the walk before its first move, even on a budget
        # already stopped
        for budget in (Budget(), Budget(0)):
            budget.spend()
            got = probe_local_search(3, order, budget=budget)
            assert got is not None and got.order == order
            assert budget.nodes == 1

    def test_drift_guard_raises(self, monkeypatch):
        # a full recount that disagrees with the incremental energy must
        # stop the walk with an explicit error, which, unlike an assert,
        # survives python -O
        from transversal_lab import ramsey

        exact = ramsey._annealing_energy
        calls = []

        def off_by_one_after_first(d, m):
            calls.append(d)
            return exact(d, m) + (len(calls) > 1)

        monkeypatch.setattr(ramsey, "_annealing_energy", off_by_one_after_first)
        with pytest.raises(VerificationError, match="drifted"):
            ramsey.probe_local_search(2, 10, seeds=1, iters=8192)


class TestUniqueExtremalDigraph:
    def test_order_8_class_is_unique_and_circulant(self):
        eng = enumerate_good_classes(3, 3, 8)
        assert len(eng.levels[7]) == 1
        found = eng.levels[7][0]
        assert canonical_label(found) == canonical_label(circulant_digraph(8, [2, 3]))

    def test_dr_4_2_meets_power_bound(self):
        # the m = 2 upper bound 2^(n-1) is tight here, and the extremal
        # 7-vertex digraph is the quadratic-residue tournament on Z_7
        res = search_dr(4, 2)
        assert res.exact and res.lower == res.upper == 8
        assert res.proof_method == "exhaustive"
        assert canonical_label(res.certificate.digraph) == canonical_label(
            circulant_digraph(7, [1, 2, 4])
        )


def extend_by_states(parent, states):
    """The parent plus vertex k = parent.order: state bit 0 is the arc i -> k,
    bit 1 the arc k -> i."""
    k = parent.order
    rows = list(parent.out) + [0]
    for i, s in enumerate(states):
        if s & 1:
            rows[i] |= 1 << k
        if s & 2:
            rows[k] |= 1 << i
    return BitDigraph(k + 1, rows)


def has_two_cycle(d):
    return any(d.out[u] >> v & 1 and d.out[v] >> u & 1 for u, v in combinations(range(d.order), 2))


def good_children(parent, n, m):
    """The extender's good children of parent as digraphs, in its order."""
    return [_extend(parent, fwd, back) for fwd, back in _good_extensions(parent, n, m)]


class TestExtensionGenerator:
    def test_matches_naive_filter_across_parameters(self):
        # the children, in order, are the naively good one-vertex extensions
        # taken in lexicographic order of their state vectors
        from itertools import product as iproduct

        for n_t, m_i in ((3, 3), (3, 4), (4, 2), (4, 3), (2, 4), (5, 3)):
            parents = [
                d for d in all_labelled_digraphs(3) if naive_good(d, n_t, m_i)
            ][:25]
            good4 = [d for d in all_labelled_digraphs(4) if naive_good(d, n_t, m_i)]
            cyclic4 = [d for d in good4 if has_two_cycle(d)]
            parents += good4[:: max(1, len(good4) // 6)][:6] + cyclic4[:: max(1, len(cyclic4) // 6)][:6]
            if n_t != 2:
                assert any(has_two_cycle(p) and p.order == 4 for p in parents), (n_t, m_i)
            for parent in parents:
                got = [c.out for c in good_children(parent, n_t, m_i)]
                want = [
                    child.out
                    for child in (
                        extend_by_states(parent, sv)
                        for sv in iproduct(range(4), repeat=parent.order)
                    )
                    if naive_good(child, n_t, m_i)
                ]
                assert got == want, (n_t, m_i, parent.out)

    def test_transitive_from_matches_tuple_scan(self):
        # the kernel's answer on ordered masks is the tuple scan's, and a
        # tuple it returns is transitive with members in mask order
        rng = random.Random(2024)
        answers = []
        for _ in range(600):
            order = rng.randint(2, 7)
            out = [rng.getrandbits(order) & ~(1 << v) for v in range(order)]
            masks = [rng.getrandbits(order) for _ in range(rng.randint(1, 3))]
            k = rng.randint(1, 5)
            found = find_transitive_in(out, masks, k)
            assert (found is not None) == naive_transitive_from(out, masks, k), (out, masks, k)
            if found is not None:
                assert len(found) == k and all(out[a] >> b & 1 for a, b in combinations(found, 2))
                p = 0
                for u in found:
                    while p < len(masks) and not masks[p] >> u & 1:
                        p += 1
                assert p < len(masks), (out, masks, found)
            answers.append(found is not None)
        assert any(answers) and not all(answers)

    @pytest.mark.parametrize("n_t, m_i", list(product(range(2, 7), (2, 3, 4))))
    def test_matches_reference_extender(self, n_t, m_i):
        # parents of orders 1 to 6, with and without a 2-cycle: the classes
        # enumerated within 3,000 nodes, then seeded samples of the
        # reference's children up to order 6
        rng = random.Random(100 * n_t + m_i)

        def sample(level):
            cyclic = [d for d in level if has_two_cycle(d)]
            acyclic = [d for d in level if not has_two_cycle(d)]
            return rng.sample(cyclic, min(3, len(cyclic))) + rng.sample(acyclic, min(3, len(acyclic)))

        levels = enumerate_good_classes(n_t, m_i, 6, budget=Budget(3_000)).levels
        parents = [sample(level) for level in levels]
        while len(parents) < 6 and parents[-1]:
            parents.append(sample([c for p in parents[-1] for c in reference_good_children(p, n_t, m_i)]))
        assert n_t == 2 or any(has_two_cycle(p) for level in parents for p in level)
        refused = False
        for parent in (p for level in parents for p in level):
            got = [c.out for c in good_children(parent, n_t, m_i)]
            assert got == [c.out for c in reference_good_children(parent, n_t, m_i)], parent.out
            refused |= len(got) < len(good_children(parent, parent.order + 2, m_i))
        assert refused or n_t == 2 and m_i == 2, "the transitive rule refused nothing"


@pytest.mark.parametrize(
    "n, m, max_order, levels, nodes",
    [
        (5, 2, 6, (1, 2, 7, 42, 280, 2138), 15_783),
        (4, 3, 5, (1, 3, 15, 168, 4404), 26_133),
        (6, 2, 6, (1, 2, 7, 42, 582, 15496), 105_084),
    ],
)
def test_through_v_rule_keeps_the_levels(n, m, max_order, levels, nodes):
    # positive controls for n >= 4: the through-v rule still finds good
    # digraphs at the deepest order searched, with the level counts and
    # nodes of the leaf-check extender.  For (6,2) the rule searches for
    # 4-tuples, which can first close at order 6
    res = search_dr(n, m, probe=False, max_order=max_order)
    assert (res.level_counts, res.nodes) == (levels, nodes)
    assert res.certificate.order == max_order and res.certificate.reverify()

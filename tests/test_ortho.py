import random
from fractions import Fraction

import pytest

from transversal_lab.graphs import independence_number
from transversal_lab.ortho import (
    VectorFamily,
    alpha_check,
    alpha_lower_search,
    canonical_direction,
    directions_of_height,
    matching_family_q2,
    ortho_graph,
    rstar_relation,
    standard_basis,
)

from oracles import reference_alpha_lower_search


class TestCanonicalDirection:
    def test_clears_denominators(self):
        assert canonical_direction((Fraction(1, 2), Fraction(3, 4))) == (2, 3)

    def test_sign_normalization(self):
        assert canonical_direction((-2, 4)) == (1, -2)
        assert canonical_direction((0, -5)) == (0, 1)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(100):
            vec = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)
            ]
            if all(v == 0 for v in vec):
                continue
            once = canonical_direction(vec)
            assert canonical_direction(once) == once

    def test_parallel_vectors_collapse(self):
        rng = random.Random(8)
        for _ in range(100):
            vec = [rng.randint(-6, 6) for _ in range(4)]
            if not any(vec):
                continue
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            sign = rng.choice((1, -1))
            scaled = [sign * scale * v for v in vec]
            assert canonical_direction(vec) == canonical_direction(scaled)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            canonical_direction((0, 0, 0))


class TestOrthoGraph:
    def test_standard_basis_gives_complete_graph(self):
        for n in range(2, 6):
            g = ortho_graph(standard_basis(n))
            assert g.edge_count() == n * (n - 1) // 2

    def test_four_vector_family(self):
        fam = VectorFamily.from_raw(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
        g = ortho_graph(fam)
        assert g.edge_count() == 2
        assert independence_number(g) == 2

    def test_positive_coordinates_give_empty_graph(self):
        fam = VectorFamily.from_raw(3, [(1, 2, 3), (2, 1, 1), (5, 5, 1)])
        assert ortho_graph(fam).edge_count() == 0

    def test_scaling_invariance(self):
        raw = [(1, 0), (0, 1), (1, 1)]
        scaled = [(3, 0), (0, -7), (2, 2)]
        g1 = ortho_graph(VectorFamily.from_raw(2, raw))
        g2 = ortho_graph(VectorFamily.from_raw(2, scaled))
        assert g1 == g2


class TestAlphaCheck:
    def test_orthonormal_basis_m1(self):
        assert alpha_check(standard_basis(4), 1)

    def test_four_vector_family_m2(self):
        fam = VectorFamily.from_raw(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
        assert alpha_check(fam, 2)

    def test_basis_plus_all_ones_fails_m1(self):
        fam = VectorFamily.from_raw(
            3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        )
        assert not alpha_check(fam, 1)

    def test_monotone_in_m(self):
        fam = directions_of_height(2, 2)
        sub = VectorFamily(2, fam.vectors[:6])
        results = [alpha_check(sub, m) for m in range(1, 7)]
        # once true, stays true
        assert results == sorted(results)

    def test_monotone_under_removal(self):
        fam = VectorFamily.from_raw(2, [(1, 0), (0, 1), (1, 1), (1, -1)])
        assert alpha_check(fam, 2)
        for drop in range(4):
            sub = VectorFamily(
                2, tuple(v for i, v in enumerate(fam.vectors) if i != drop)
            )
            assert alpha_check(sub, 2)


class TestDirectionsOfHeight:
    @pytest.mark.parametrize(
        "n, height, message", [(0, 1, "n must be >= 1"), (2, 0, "height must be >= 1")]
    )
    def test_empty_pool_rejected(self, n, height, message):
        with pytest.raises(ValueError, match=message):
            directions_of_height(n, height)


class TestAlphaLowerSearch:
    def test_plane_pools_attain_2m(self):
        pool = directions_of_height(2, 3)
        for m in (1, 2, 3):
            res = alpha_lower_search(2, m, pool)
            assert res.exact
            assert len(res.family) == 2 * m
            assert alpha_check(res.family, m)

    def test_dimension_3_attains_2n_at_m2(self):
        pool = directions_of_height(3, 1)
        res = alpha_lower_search(3, 2, pool)
        assert res.exact and len(res.family) == 6
        assert alpha_check(res.family, 2)

    def test_whole_pool_when_m_large(self):
        pool = directions_of_height(2, 1)
        res = alpha_lower_search(2, len(pool), pool)
        assert res.family == pool

    def test_budget_degrades(self):
        pool = directions_of_height(2, 3)
        res = alpha_lower_search(2, 2, pool, node_budget=5)
        assert res.family.vectors == ((0, 1), (1, -3))
        assert (res.exact, res.nodes) == (False, 6)

    def test_m_below_one_rejected(self):
        pool = directions_of_height(2, 3)
        for m in (0, -1):
            with pytest.raises(ValueError, match="m must be >= 1"):
                alpha_lower_search(2, m, pool)

    def test_negative_budget_rejected(self):
        pool = directions_of_height(2, 3)
        with pytest.raises(ValueError, match="node_budget must be >= 0"):
            alpha_lower_search(2, 2, pool, node_budget=-1)
        res = alpha_lower_search(2, 2, pool, node_budget=0)
        assert (res.family.vectors, res.exact, res.nodes) == ((), False, 1)

    def test_matches_reference_recursion(self):
        # seeded random sub-pools, in pool order and shuffled, every m the
        # blocked-mask lemma distinguishes and budgets that stop inside
        # counted exclusion runs
        rng = random.Random(9)
        pools = [directions_of_height(2, 3), directions_of_height(3, 1), directions_of_height(3, 2),
                 directions_of_height(4, 1)]
        stopped = 0
        for case in range(300):
            base = pools[case % len(pools)]
            picked = rng.sample(base.vectors, rng.randint(0, min(len(base), 16)))
            if case % 2:
                picked.sort()
            pool = VectorFamily(base.dimension, tuple(picked))
            m = 1 + case % 4
            walk = reference_alpha_lower_search(pool.dimension, m, pool).nodes
            for budget in (None, 1, 2, 7, rng.randint(0, walk)):
                got = alpha_lower_search(pool.dimension, m, pool, node_budget=budget)
                want = reference_alpha_lower_search(pool.dimension, m, pool, node_budget=budget)
                assert (got.family, got.exact, got.nodes) == (want.family, want.exact, want.nodes), (
                    case, m, budget,
                )
                stopped += not got.exact
        assert stopped == 1073

    def test_matches_reference_recursion_at_m5_and_m6(self):
        # dimension-4 sub-pools hold non-orthogonal cliques of 5 and more,
        # so the blocked mask walks 4- and 5-cliques; budgets stop some
        # walks, and where an exact family is smaller than its pool the
        # blocked mask has ruled a vector out
        rng = random.Random(10)
        base = directions_of_height(4, 1)
        stopped = binding = 0
        for case in range(80):
            picked = rng.sample(base.vectors, rng.randint(0, 22))
            if case % 2:
                picked.sort()
            pool = VectorFamily(4, tuple(picked))
            m = 5 + case % 2
            walk = reference_alpha_lower_search(4, m, pool).nodes
            for budget in (None, 1, rng.randint(0, walk)):
                got = alpha_lower_search(4, m, pool, node_budget=budget)
                want = reference_alpha_lower_search(4, m, pool, node_budget=budget)
                assert (got.family, got.exact, got.nodes) == (want.family, want.exact, want.nodes), (
                    case, m, budget,
                )
                stopped += not got.exact
                binding += got.exact and len(got.family) < len(pool)
        assert (stopped, binding) == (151, 43)

    def test_benchmark_results_pinned(self):
        # positive controls: the exact (3,2) value and the budgeted (3,3) walk
        pool = directions_of_height(3, 2)
        res = alpha_lower_search(3, 2, pool)
        assert (len(res.family), res.exact, res.nodes) == (6, True, 189_320)
        assert alpha_check(res.family, 2)
        res = alpha_lower_search(3, 3, pool, node_budget=1_000_000)
        assert (len(res.family), res.exact, res.nodes) == (9, False, 1_000_001)
        assert res.family.vectors == (
            (0, 0, 1), (0, 1, -2), (0, 1, -1), (0, 2, 1), (1, -2, 0),
            (1, -1, -1), (1, 0, 0), (2, 1, 0), (2, 1, 1),
        )
        assert alpha_check(res.family, 3)


class TestMatchingFamily:
    def test_perfect_matching_shape(self):
        for m in range(2, 6):
            fam = matching_family_q2(m)
            g = ortho_graph(fam)
            assert len(fam) == 2 * (m - 1)
            assert g.edge_count() == m - 1
            assert all(g.degree(v) == 1 for v in range(g.order))
            assert independence_number(g) == m - 1
            assert alpha_check(fam, m - 1)


class TestRstarRelation:
    def test_plane_alpha_2(self):
        ids = rstar_relation(4, 2)
        assert ids.rstar_m_plus_1 == 5 == 2 * (3 - 1) + 1

    def test_two_n_translation(self):
        # alpha(n, 2) = 2n gives r*(n, 3) = 2n + 1 and r(G, 4) = 2n + 2
        for n in range(2, 6):
            ids = rstar_relation(2 * n, 2)
            assert ids.rstar_m_plus_1 == 2 * n + 1
            assert ids.r_m_plus_2 == 2 * n + 2

    def test_basis_case(self):
        for n in range(2, 6):
            ids = rstar_relation(n, 1)
            assert ids.rstar_m_plus_1 == n + 1
            assert ids.rhat_m_plus_1 == n + 1


class TestVectorFamily:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            VectorFamily(2, ((1, 0), (1, 0)))

    def test_from_raw_collapses_parallels(self):
        fam = VectorFamily.from_raw(2, [(1, 0), (2, 0), (-3, 0)])
        assert len(fam) == 1

    def test_height_pool_sizes(self):
        assert len(directions_of_height(2, 1)) == 4  # e1, e2, (1,1), (1,-1)
        assert len(directions_of_height(2, 3)) == 16
        assert len(directions_of_height(3, 1)) == 13

import numpy as np
import pytest

from fillin.graphs import Point, apply_completion, is_chordal, is_valid_completion
from fillin.heuristics import mdo_completion
from fillin.instances import gen_grid, gen_queen
from fillin.oracle import (
    EnumerationBudget,
    OracleBudgetError,
    affine_rank,
    brute_force_mccp,
    enumerate_completions,
    feasible_points,
)
from helpers import (
    complete_graph,
    cycle_graph,
    fig_graph,
    min_fill_dp,
    random_connected_graph,
)


class TestMinFillDp:
    """The elimination-order DP is the reference past brute force's range, so
    it is checked against brute force where both run."""

    def test_matches_brute_force(self):
        rng = np.random.default_rng(127)
        graphs = [fig_graph(), complete_graph(4)]
        graphs += [random_connected_graph(rng, int(rng.integers(4, 8)),
                                          float(rng.uniform(0.2, 0.6)))
                   for _ in range(38)]
        for g in graphs:
            assert min_fill_dp(g) == len(brute_force_mccp(g))

    @pytest.mark.parametrize("name, g, opt", [("C8", cycle_graph(8), 5),
                                              ("grid3_4", gen_grid(3, 4), 9),
                                              ("queen3_4", gen_queen(3, 4), 12)])
    def test_published_optima(self, name, g, opt):
        assert min_fill_dp(g) == opt


class TestBruteForce:
    def test_fig_graph_optimum_is_one(self):
        g = fig_graph()
        fill = brute_force_mccp(g)
        assert len(fill) == 1
        assert is_valid_completion(g, fill)

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_cycle_needs_k_minus_3(self, k):
        fill = brute_force_mccp(cycle_graph(k))
        assert len(fill) == k - 3

    def test_grid3_3_optimum_is_five(self):
        g = gen_grid(3, 3)
        fill = brute_force_mccp(g)
        assert len(fill) == 5
        assert is_valid_completion(g, fill)

    def test_budget_error_reports_progress(self):
        g = cycle_graph(8)  # optimum 5, mc = 20
        with pytest.raises(OracleBudgetError) as err:
            brute_force_mccp(g, EnumerationBudget(max_subsets_evaluated=30))
        assert err.value.last_cardinality is not None
        assert err.value.last_cardinality < 5

    def test_witness_is_canonical_and_minimal(self):
        g = cycle_graph(6)
        fill = brute_force_mccp(g)
        assert len(fill) == 3
        # no smaller completion exists
        for mask in range(1 << g.mc):
            sub = [i for i in range(g.mc) if (mask >> i) & 1]
            if len(sub) < 3:
                assert not is_valid_completion(g, sub)

    def test_no_better_than_heuristic_anywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(4, 8)), 0.4)
            opt = brute_force_mccp(g)
            assert len(opt) <= len(mdo_completion(g))


class TestEnumerateCompletions:
    def test_c4_has_three(self):
        got = set(enumerate_completions(cycle_graph(4)))
        assert got == {frozenset({0}), frozenset({1}), frozenset({0, 1})}

    def test_complete_graph_has_exactly_empty(self):
        assert list(enumerate_completions(complete_graph(4))) == [frozenset()]

    def test_c5_count_matches_direct_check(self):
        g = cycle_graph(5)
        direct = sum(
            is_valid_completion(g, [i for i in range(5) if (mask >> i) & 1])
            for mask in range(32)
        )
        assert len(list(enumerate_completions(g))) == direct

    def test_each_yielded_once_and_valid(self):
        g = fig_graph()
        comps = list(enumerate_completions(g))
        assert len(comps) == len(set(comps))
        for f in comps:
            assert is_valid_completion(g, f)

    def test_dimension_guard(self):
        with pytest.raises(OracleBudgetError, match="enumeration limit"):
            list(enumerate_completions(cycle_graph(8), max_dimension=10))

    def test_cardinality_upward_closure(self):
        # every size between the optimum and mc is achieved by some completion
        rng = np.random.default_rng(5)
        graphs = [cycle_graph(5), cycle_graph(6), fig_graph()]
        graphs += [random_connected_graph(rng, 6, 0.4) for _ in range(5)]
        for g in graphs:
            sizes = {len(f) for f in enumerate_completions(g)}
            assert sizes == set(range(min(sizes), g.mc + 1))


class TestAffineRank:
    def test_single_point_is_zero(self):
        assert affine_rank([Point(np.array([1.0, 0.0]))]) == 0

    def test_x_c4_is_full_dimensional(self):
        g = cycle_graph(4)
        assert affine_rank(feasible_points(g)) == g.mc == 2

    def test_c5_tight_points_of_interior_bound(self):
        # completions of C5 using exactly 2 chords span a facet
        g = cycle_graph(5)
        tight = [p for p in feasible_points(g) if int(p.values.sum()) == 2]
        assert affine_rank(tight) == g.mc - 1 == 4

    def test_permutation_invariance(self):
        g = cycle_graph(5)
        pts = feasible_points(g)
        rng = np.random.default_rng(1)
        r = affine_rank(pts)
        for _ in range(3):
            perm = rng.permutation(len(pts))
            assert affine_rank([pts[i] for i in perm]) == r

    def test_full_dimension_on_suite(self):
        rng = np.random.default_rng(9)
        graphs = [cycle_graph(k) for k in (4, 5, 6)]
        graphs += [fig_graph()]
        graphs += [random_connected_graph(rng, 5, 0.5) for _ in range(4)]
        for g in graphs:
            if g.mc == 0 or g.mc > 12:
                continue
            assert affine_rank(feasible_points(g)) == g.mc

    def test_upper_bound_facets_on_suite(self):
        # points with one coordinate pinned to 1 have rank mc - 1
        for g in [cycle_graph(4), cycle_graph(5), fig_graph()]:
            pts = feasible_points(g)
            for f in range(g.mc):
                tight = [p for p in pts if p.values[f] > 0.5]
                assert affine_rank(tight) == g.mc - 1

from dataclasses import fields

import numpy as np
import pytest

import fillin.lp
import fillin.solver
from fillin.cuts import evaluate
from fillin.graphs import Point, is_valid_completion, new_graph
from fillin.heuristics import mdo_completion
from fillin.instances import gen_grid, gen_queen
from fillin.oracle import brute_force_mccp
from fillin.solver import (
    FEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    SolverConfig,
    SolveResult,
    _Search,
    root_initialize,
    solve,
)
from helpers import complete_graph, cycle_graph, fig_graph, random_connected_graph


class TestConfig:
    def test_delta_range(self):
        with pytest.raises(ValueError, match="delta"):
            SolverConfig(delta=1.0)

    def test_i1_required(self):
        with pytest.raises(ValueError, match="I1"):
            SolverConfig(families_enabled=("I2", "I3"))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig(families_enabled=("I1", "I9"))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_cycles_at_least_one(self, cap):
        with pytest.raises(ValueError, match="max_cycles_per_call"):
            SolverConfig(max_cycles_per_call=cap)

    def test_as_dict_reports_every_field(self):
        cfg = SolverConfig(delta=0.3, families_enabled=("I1", "I3"), exact_i2=True,
                           exact_i3=True, max_cycles_per_call=4, time_limit_s=9.5,
                           node_limit=7, emit_all_positions=True)
        assert set(cfg.as_dict()) == {f.name for f in fields(SolverConfig)}
        assert SolverConfig(**cfg.as_dict()) == cfg
        assert cfg != SolverConfig()


class TestRootInitialize:
    def test_chordal_graph(self):
        incumbent, pool = root_initialize(complete_graph(4))
        assert incumbent == frozenset()
        assert pool == []

    def test_c6(self):
        g = cycle_graph(6)
        incumbent, pool = root_initialize(g)
        assert len(incumbent) >= 3
        assert is_valid_completion(g, incumbent)
        i1 = [c for c in pool if c.family == "I1"]
        assert any(c.rhs == 3 for c in i1)

    def test_grid3_3_incumbent(self):
        g = gen_grid(3, 3)
        incumbent, _ = root_initialize(g)
        assert len(incumbent) >= 5
        assert is_valid_completion(g, incumbent)


class TestSolveExactness:
    def test_fig_graph(self):
        g = fig_graph()
        res = solve(g)
        assert res.status == OPTIMAL
        assert res.lower_bound == res.upper_bound == 1
        assert res.best_fill == {g.fill_index(1, 3)}

    def test_chordal_input_immediate(self):
        res = solve(complete_graph(5))
        assert res.status == OPTIMAL
        assert res.upper_bound == 0
        assert res.nodes == 0
        assert res.best_fill == frozenset()

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_cycles(self, k):
        res = solve(cycle_graph(k))
        assert res.status == OPTIMAL
        assert res.upper_bound == k - 3

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(4, 9)),
                                       float(rng.uniform(0.3, 0.7)))
            res = solve(g)
            assert res.status == OPTIMAL
            assert res.upper_bound == len(brute_force_mccp(g))
            assert is_valid_completion(g, res.best_fill)
            assert len(res.best_fill) == res.upper_bound

    def test_exact_separators_do_not_change_the_answer(self):
        g = cycle_graph(7)
        base = solve(g)
        enh = solve(g, SolverConfig(exact_i2=True, exact_i3=True))
        assert enh.status == OPTIMAL
        assert enh.upper_bound == base.upper_bound == 4

    def test_i1_only_still_exact(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            g = random_connected_graph(rng, 7, 0.4)
            res = solve(g, SolverConfig(families_enabled=("I1",)))
            assert res.status == OPTIMAL
            assert res.upper_bound == len(brute_force_mccp(g))


class TestPoolMatrix:
    """The pool matrix is the only stored form of a cut, so the LP rows must
    reproduce each cut's own evaluation."""

    def test_lp_rows_match_cut_evaluation(self):
        rng = np.random.default_rng(61)
        graphs = [cycle_graph(6), gen_grid(3, 3)]
        graphs += [random_connected_graph(rng, 7, 0.35) for _ in range(2)]
        for g in graphs:
            search = _Search(g, SolverConfig())
            _, cuts = root_initialize(g)
            pooled = [c for c in cuts if search.add_cut(c)]
            assert pooled
            p = search.build_lp({})
            assert p.rows.shape == (len(pooled), g.mc)
            for x in [rng.integers(0, 2, g.mc), rng.random(g.mc)]:
                x = x.astype(float)
                want = [float(evaluate(c, Point(x))) for c in pooled]
                assert p.rhs - p.rows @ x == pytest.approx(want, rel=0, abs=1e-12)


class TestWarmBasis:
    @pytest.mark.parametrize("name, g", [("grid3_5", gen_grid(3, 5)),
                                         ("queen4_4", gen_queen(4, 4))])
    def test_only_the_root_lp_starts_cold(self, monkeypatch, name, g):
        cold = []
        solve_lp = fillin.solver.solve_lp

        def counting(problem, basis=None):
            cold.append(basis is None)
            return solve_lp(problem, basis=basis)

        monkeypatch.setattr(fillin.solver, "solve_lp", counting)
        a = solve(g)
        assert a.status == OPTIMAL and a.nodes > 1
        assert cold[0] and sum(cold) == 1, f"{name}: {sum(cold)} of {len(cold)} LPs cold"
        b = solve(g)
        assert (b.nodes, b.total_cuts, b.best_fill) == (a.nodes, a.total_cuts, a.best_fill)


class TestLimitsAndBounds:
    def test_node_limit_reports_feasible(self):
        g = gen_grid(3, 4)
        res = solve(g, SolverConfig(node_limit=1))
        assert res.status in (FEASIBLE, OPTIMAL)
        assert res.lower_bound <= res.upper_bound
        assert is_valid_completion(g, res.best_fill)

    def test_time_limit_reports_bounds(self):
        g = gen_grid(4, 4)
        res = solve(g, SolverConfig(time_limit_s=0.2))
        assert res.status in (TIME_LIMIT, OPTIMAL)
        assert res.lower_bound <= res.upper_bound
        assert is_valid_completion(g, res.best_fill)

    def test_lp_pivot_cap_still_exact(self, monkeypatch):
        # Every LP stops at its pivot cap, so the search branches on parent
        # bounds down to fully fixed leaves.  On the last graph the
        # minimum-degree incumbent (2) misses the optimum (1): only the
        # leaves can find it.
        monkeypatch.setattr(fillin.lp, "PIVOTS_PER_DIM", 0)
        mdo_misses = new_graph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5),
                                   (2, 3), (2, 4), (3, 4), (3, 5)])
        assert len(mdo_completion(mdo_misses)) > len(brute_force_mccp(mdo_misses))
        for g in (fig_graph(), cycle_graph(5), cycle_graph(6), mdo_misses):
            res = solve(g)
            assert res.status == OPTIMAL
            assert res.upper_bound == res.lower_bound == len(brute_force_mccp(g))
            assert is_valid_completion(g, res.best_fill)

    def test_optimal_iff_bounds_meet(self):
        for cfg in (SolverConfig(), SolverConfig(node_limit=2)):
            res = solve(cycle_graph(6), cfg)
            assert (res.status == OPTIMAL) == (res.lower_bound == res.upper_bound)


class TestReporting:
    def test_cut_accounting(self):
        res = solve(gen_grid(3, 4))
        assert set(res.cuts_by_family) == {"I1", "I2", "I3", "I4"}
        assert res.total_cuts == sum(res.cuts_by_family.values())
        assert res.total_cuts > 0

    def test_determinism(self):
        g = gen_grid(3, 4)
        a = solve(g)
        b = solve(g)
        assert a.nodes == b.nodes
        assert a.cuts_by_family == b.cuts_by_family
        assert a.best_fill == b.best_fill

    def test_ub_never_worse_than_mdo(self):
        rng = np.random.default_rng(59)
        graphs = [cycle_graph(6), fig_graph(), gen_grid(3, 3)]
        graphs += [random_connected_graph(rng, 7, 0.4) for _ in range(5)]
        for g in graphs:
            res = solve(g)
            assert res.upper_bound <= len(mdo_completion(g))

    def test_wall_time_recorded(self):
        res = solve(cycle_graph(5))
        assert res.wall_time_s >= 0.0

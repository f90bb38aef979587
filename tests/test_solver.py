from dataclasses import fields

import numpy as np
import pytest

import fillin.graphs
import fillin.heuristics
import fillin.lp
import fillin.solver
from fillin.cuts import evaluate
from fillin.graphs import Graph, Point, is_valid_completion, new_graph
from fillin.heuristics import chordalize_with_order, mdo_completion, mdo_order
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
from helpers import (
    complete_graph,
    cycle_graph,
    fig_graph,
    myciel4,
    random_connected_graph,
    reference_refresh_active,
)


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
        # The per-call cap is the constant separation.MAX_CUTS_PER_CALL; the
        # field is gone, so every value is refused as an unknown keyword.
        with pytest.raises(TypeError, match="max_cycles_per_call"):
            SolverConfig(max_cycles_per_call=cap)
        assert len(fields(SolverConfig)) == 6

    def test_as_dict_reports_every_field(self):
        cfg = SolverConfig(delta=0.3, families_enabled=("I1", "I3"), exact_i2=True,
                           time_limit_s=9.5, node_limit=7, emit_all_positions=True)
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

    def test_incumbent_is_the_better_min_degree_completion(self):
        # grid4_4: static 25, dynamic 18 (the optimum)
        g = gen_grid(4, 4)
        assert len(root_initialize(g)[0]) == 18
        rng = np.random.default_rng(89)
        graphs = [gen_queen(4, 4), cycle_graph(7)]
        graphs += [random_connected_graph(rng, int(rng.integers(6, 13)), 0.3)
                   for _ in range(30)]
        for g in graphs:
            static = mdo_completion(g)
            dynamic = chordalize_with_order(g, mdo_order(g, dynamic=True))
            assert root_initialize(g)[0] == min(static, dynamic, key=len)


class TestChordalityTestedOnce:
    def test_solve_tests_the_input_once(self, monkeypatch):
        tested = []
        for mod in (fillin.graphs, fillin.heuristics):
            peo = mod._perfect_elimination_order

            def counting(adj, peo=peo):
                tested.append(adj)
                return peo(adj)

            monkeypatch.setattr(mod, "_perfect_elimination_order", counting)
        rng = np.random.default_rng(97)
        graphs = [complete_graph(5), gen_grid(3, 4)]
        graphs += [random_connected_graph(rng, 9, 0.3) for _ in range(10)]
        for g in graphs:
            tested.clear()
            solve(g)
            assert sum(adj is g.adj_mask for adj in tested) == 1


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
        enh = solve(g, SolverConfig(exact_i2=True))
        assert enh.status == OPTIMAL
        assert enh.upper_bound == base.upper_bound == 4

    def test_i1_only_still_exact(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            g = random_connected_graph(rng, 7, 0.4)
            res = solve(g, SolverConfig(families_enabled=("I1",)))
            assert res.status == OPTIMAL
            assert res.upper_bound == len(brute_force_mccp(g))


class TestThresholdEscalation:
    def test_skips_a_threshold_that_rounds_to_a_tried_set(self, monkeypatch):
        # C5 at 0.4 everywhere: 0.5 rounds to the bare cycle (no violated
        # cut), 0.25 to the complete graph; 0.75 rounds like 0.5 and is skipped
        g = cycle_graph(5)
        deltas = []
        sep = fillin.solver.separate_threshold

        def recording(g, x, delta, **kwargs):
            deltas.append(delta)
            return sep(g, x, delta, **kwargs)

        monkeypatch.setattr(fillin.solver, "separate_threshold", recording)
        search = _Search(g, SolverConfig())
        assert fillin.solver._fractional_cuts(search, Point(np.full(g.mc, 0.4))) == []
        assert deltas == [0.5, 0.25]
        deltas.clear()
        cuts = fillin.solver._fractional_cuts(search, Point(np.full(g.mc, 0.3)))
        assert deltas == [0.5] and {c.family for c in cuts} >= {"I1"}


    def test_exact_i2_only_when_thresholds_find_nothing(self, monkeypatch):
        g = cycle_graph(5)
        exact = []
        sep = fillin.solver.separate_i2_exact

        def counting(g, x, **kwargs):
            exact.append(x)
            return sep(g, x, **kwargs)

        monkeypatch.setattr(fillin.solver, "separate_i2_exact", counting)
        search = _Search(g, SolverConfig(exact_i2=True))
        assert fillin.solver._fractional_cuts(search, Point(np.full(g.mc, 0.3)))
        assert exact == []  # the threshold at 0.5 found I1
        fillin.solver._fractional_cuts(search, Point(np.full(g.mc, 0.4)))
        assert len(exact) == 1


class TestRootBound:
    """Separation scans until it holds violated cuts, so the root loop does
    not stop on an unlucky first few cycles."""

    def test_myciel4_is_proved_at_the_root(self):
        res = solve(myciel4())
        assert (res.status, res.upper_bound, res.nodes) == (OPTIMAL, 46, 1)

    @pytest.mark.parametrize("name, g, floor", [("grid4_5", gen_grid(4, 5), 21),
                                                ("queen5_5", gen_queen(5, 5), 69)])
    def test_root_lower_bound(self, name, g, floor):
        assert solve(g, SolverConfig(node_limit=1)).lower_bound >= floor


class TestRefreshActive:
    def test_matches_the_loop(self):
        # a pool of k rows with zero coefficients: the slack at any point is
        # -rhs, so each round sets rhs to drive the slack it wants
        rng = np.random.default_rng(101)
        g = cycle_graph(6)
        k = 200
        search = _Search(g, SolverConfig())
        for i in range(k):
            search.pool_keys.add(i)
        search._matrix = np.zeros((k, g.mc))
        search._idle = np.zeros(k, dtype=np.intp)
        search.active = rng.permutation(k)[:80].tolist()
        active, idle = list(search.active), dict.fromkeys(range(k), 0)
        busy = rng.uniform(0.6, 1.0, k)  # chance a row is slack in a round
        dropped = 0
        for _ in range(120):
            u = rng.random(k)
            slack = np.where(u < busy, rng.uniform(1e-7, 1.0, k),
                             rng.choice([-0.5, -2e-6, -1e-6, 0.0, 1e-6], k))
            search._rhs = -slack
            n = search.refresh_active(np.zeros(g.mc))
            before = len(active)
            active, n_ref = reference_refresh_active(active, idle, slack.copy(),
                                                     _Search.IDLE_DROP)
            dropped += before + n_ref - len(active)
            assert search.active == active and n == n_ref
            assert search._idle.tolist() == [idle[i] for i in range(k)]
        assert dropped > 0


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


class TestNoGraphBuilt:
    def test_solve_builds_no_graph(self, monkeypatch):
        rng = np.random.default_rng(83)
        graphs = [gen_grid(3, 5)] + [random_connected_graph(rng, int(rng.integers(8, 13)),
                                                             float(rng.uniform(0.2, 0.5)))
                                     for _ in range(20)]
        built = []
        repairs = []
        init = Graph.__init__
        repair = fillin.solver.primal_repair

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def counting_repair(g, x):
            repairs.append(x)
            return repair(g, x)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        monkeypatch.setattr(fillin.solver, "primal_repair", counting_repair)
        for g in graphs:
            assert solve(g).status == OPTIMAL
        assert repairs  # the repair heuristic ran
        assert built == []

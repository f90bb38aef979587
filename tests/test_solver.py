import logging
import math
import random
import time
from collections import Counter
from dataclasses import fields
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fillin.graphs
import fillin.heuristics
import fillin.lp
import fillin.separation
import fillin.solver
from fillin.cuts import FAMILIES, Cut, cut_i1, cut_i2, cut_i3, cut_i4, evaluate
from fillin.graphs import Graph, Point, is_valid_completion, new_graph
from fillin.heuristics import chordalize_with_order, mdo_completion, mdo_order
from fillin.instances import gen_grid, gen_mycielski, gen_queen
from fillin.lp import packing_basis
from fillin.oracle import brute_force_mccp, feasible_points
from fillin.separation import separate_integer
from fillin.solver import (
    BOUND_TOL,
    FEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    SolverConfig,
    SolveResult,
    _best_packing,
    _packing,
    _Search,
    root_initialize,
    solve,
)
from helpers import (
    complete_graph,
    cycle_graph,
    fig_graph,
    min_fill_dp,
    myciel3,
    myciel4,
    random_connected_graph,
    reference_refresh_active,
    root_closes,
    search_digest,
)


def recording_lps(monkeypatch) -> list:
    """Route solve's LP calls through a wrapper; the list it returns fills
    with one (problem, result) pair per call."""
    lps = []
    solve_lp = fillin.solver.solve_lp

    def recording(problem, basis=None, **kwargs):
        res = solve_lp(problem, basis=basis, **kwargs)
        lps.append((problem, res))
        return res

    monkeypatch.setattr(fillin.solver, "solve_lp", recording)
    return lps


def fake_clock(monkeypatch, lps: list, lp_lead: float = 0.0) -> None:
    """Point the solver's and the LP's clocks at one that reads the number of
    LPs solved so far, so it stands still inside a solve; the LP's clock
    runs lp_lead seconds ahead."""
    monkeypatch.setattr(fillin.solver, "time",
                        SimpleNamespace(perf_counter=lambda: float(len(lps))))
    monkeypatch.setattr(fillin.lp, "time",
                        SimpleNamespace(perf_counter=lambda: len(lps) + lp_lead))


class TestConfig:
    def test_i1_required(self):
        with pytest.raises(ValueError, match="I1"):
            SolverConfig(families_enabled=("I2", "I3"))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig(families_enabled=("I1", "I9"))

    def test_exact_i2_needs_i2(self):
        # exact I2 separation would pool I2 cuts with the family disabled
        with pytest.raises(ValueError, match="exact_i2.*I2"):
            SolverConfig(families_enabled=("I1", "I3"), exact_i2=True)
        assert SolverConfig(families_enabled=("I1", "I2"), exact_i2=True).exact_i2

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_cycles_at_least_one(self, cap):
        # The per-call cap is the constant separation.MAX_CUTS_PER_CALL; the
        # field is gone, so every value is refused as an unknown keyword.
        with pytest.raises(TypeError, match="max_cycles_per_call"):
            SolverConfig(max_cycles_per_call=cap)
        assert len(fields(SolverConfig)) == 4

    def test_emit_all_positions_is_gone(self):
        # I2 and I4 are separated at one position per cycle, always
        with pytest.raises(TypeError, match="emit_all_positions"):
            SolverConfig(emit_all_positions=True)
        assert len(fields(SolverConfig)) == 4

    def test_delta_is_gone(self):
        # fractional points are rounded at the fixed solver.THRESHOLDS
        with pytest.raises(TypeError, match="delta"):
            SolverConfig(delta=0.5)
        assert [f.name for f in fields(SolverConfig)] == [
            "families_enabled", "exact_i2", "time_limit_s", "node_limit"]

    @pytest.mark.parametrize("limit", [float("nan"), -0.5, float("-inf"), True, "5"])
    def test_time_limit_is_a_number_at_least_zero(self, limit):
        # a NaN limit compares false with every time, so it never fired; a
        # bool passed for a 1 s limit, and a string failed with a TypeError
        with pytest.raises(ValueError, match="time_limit_s"):
            SolverConfig(time_limit_s=limit)
        assert SolverConfig(time_limit_s=0).time_limit_s == 0

    @pytest.mark.parametrize("limit", [-3, 2.5, "4", True])
    def test_node_limit_is_an_int_at_least_zero(self, limit):
        with pytest.raises(ValueError, match="node_limit"):
            SolverConfig(node_limit=limit)
        assert SolverConfig(node_limit=0).node_limit == 0


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
        # C5 at 0.4 everywhere: 0.8 rounds to the bare cycle (no violated
        # cut), 0.4 to the complete graph; 0.9 rounds like 0.8 and is skipped
        g = cycle_graph(5)
        deltas = []
        sep = fillin.solver.separate_threshold

        def recording(g, x, delta, **kwargs):
            deltas.append(delta)
            return sep(g, x, delta, **kwargs)

        monkeypatch.setattr(fillin.solver, "separate_threshold", recording)
        search = _Search(g, SolverConfig())
        assert fillin.solver._fractional_cuts(search, Point(np.full(g.mc, 0.4))) == []
        assert deltas == [0.8, 0.4]
        deltas.clear()
        cuts = fillin.solver._fractional_cuts(search, Point(np.full(g.mc, 0.3)))
        assert deltas == [0.8] and {c.family for c in cuts} >= {"I1"}

    def test_reaches_the_last_threshold(self, monkeypatch):
        # C5 at 0.85 on the fill pairs (0,2) and (0,3), 0 elsewhere: 0.8
        # rounds to a fan, which is chordal; 0.4 rounds to the same set and
        # is skipped; 0.9 rounds to the bare cycle, whose I1 and I4 rows the
        # point violates
        g = cycle_graph(5)
        deltas = []
        sep = fillin.solver.separate_threshold

        def recording(g, x, delta, **kwargs):
            deltas.append(delta)
            return sep(g, x, delta, **kwargs)

        monkeypatch.setattr(fillin.solver, "separate_threshold", recording)
        x = np.zeros(g.mc)
        x[[g.fill_index(0, 2), g.fill_index(0, 3)]] = 0.85
        cuts = fillin.solver._fractional_cuts(_Search(g, SolverConfig()), Point(x))
        assert deltas == [0.8, 0.9] == [fillin.solver.THRESHOLDS[i] for i in (0, 2)]
        assert sorted((c.family, c.rhs) for c in cuts) == [("I1", 2), ("I4", 1)]

    def test_exact_i2_only_when_thresholds_find_nothing(self, monkeypatch):
        # C26 is past separation.EXACT_MAX_N, the vertex cap of exact I3,
        # which does not apply to exact I2; its I1 row is violated only
        # below x = 23 / 299 on every pair
        exact = []
        sep = fillin.solver.separate_i2_exact

        def counting(g, x, **kwargs):
            exact.append(x)
            return sep(g, x, **kwargs)

        monkeypatch.setattr(fillin.solver, "separate_i2_exact", counting)
        for g, low in ((cycle_graph(5), 0.3), (cycle_graph(26), 0.05)):
            exact.clear()
            search = _Search(g, SolverConfig(exact_i2=True))
            assert fillin.solver._fractional_cuts(search, Point(np.full(g.mc, low)))
            assert exact == []  # the threshold at 0.8 found I1
            fillin.solver._fractional_cuts(search, Point(np.full(g.mc, 0.4)))
            assert len(exact) == 1


class TestRootBound:
    """Separation scans until it holds violated cuts, so the root loop does
    not stop on an unlucky first few cycles."""

    def test_myciel4_is_proved_at_the_root(self):
        res = solve(myciel4())
        assert (res.status, res.upper_bound, res.nodes) == (OPTIMAL, 46, 1)

    @pytest.mark.parametrize("name, g, floor", [("grid4_4", gen_grid(4, 4), 17),
                                                ("grid4_5", gen_grid(4, 5), 21),
                                                ("queen5_5", gen_queen(5, 5), 69)])
    def test_root_lower_bound(self, name, g, floor):
        assert solve(g, SolverConfig(node_limit=1)).lower_bound >= floor


class TestRootPackingBound:
    """Root cuts are unit covering rows; those with pairwise disjoint
    supports sum to a lower bound that can close a solve before any LP."""

    @pytest.mark.parametrize("name, g, opt", [("C5", cycle_graph(5), 2),
                                              ("C6", cycle_graph(6), 3),
                                              ("C7", cycle_graph(7), 4),
                                              ("fig", fig_graph(), 1),
                                              ("grid3_3", gen_grid(3, 3), 5)])
    def test_closes_without_an_lp(self, monkeypatch, name, g, opt):
        lps = recording_lps(monkeypatch)
        res = solve(g)
        assert (res.status, res.lower_bound, res.upper_bound, res.nodes) == (OPTIMAL, opt, opt, 0)
        assert is_valid_completion(g, res.best_fill) and len(res.best_fill) == opt
        assert lps == []
        # the counts are the harvest's, as the pool would have counted them
        harvest = root_initialize(g)[1]
        assert res.total_cuts == len({c.key() for c in harvest}) == len(harvest)
        by_family = Counter(c.family for c in harvest)
        assert res.cuts_by_family == {fam: by_family[fam] for fam in FAMILIES}

    def test_a_root_that_closes_screens_evaluates_and_checks_nothing(self, monkeypatch):
        # it builds its cuts from the table, with no screen, no evaluation
        # and no Cut(...) re-checking them; an open root's search screens
        # and evaluates, and Cut(...) is counted where it is called
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for module, name in ((fillin.separation, "screen_cycle"),
                             (fillin.separation, "evaluate"), (fillin.solver, "evaluate")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(Cut, "__init__", counting("Cut", Cut.__init__))
        table = counting("table", Cut._from_table)
        monkeypatch.setattr(Cut, "_from_table", classmethod(lambda cls, *args: table(*args)))
        for g in (cycle_graph(5), gen_grid(3, 3), TestBestPacking.G990):
            before = calls["table"]
            res = solve(g)
            assert (res.status, res.nodes) == (OPTIMAL, 0) and res.total_cuts > 0
            assert calls["table"] - before >= res.total_cuts
        assert set(calls) == {"table"}
        res = solve(gen_grid(3, 4))
        assert res.nodes > 0 and calls["screen_cycle"] > 0 and calls["evaluate"] > 0
        Cut(gen_grid(3, 4), {0: 1}, 1, "I1")
        assert calls["Cut"] == 1

    def test_an_invalid_incumbent_is_not_proved(self, monkeypatch):
        # the three long diagonals of C6 leave the chordless 4-cycle
        # 0-1-4-3, yet they meet the packing bound 3 of the root cuts
        g = cycle_graph(6)
        bad = frozenset(g.fill_index(u, u + 3) for u in range(3))
        assert not is_valid_completion(g, bad)
        cuts = root_initialize(g)[1]
        assert sum(c.rhs for _, c in _packing(cuts)) == len(bad)
        monkeypatch.setattr(fillin.solver, "root_initialize", lambda g, cfg: (bad, cuts))
        res = solve(g)
        assert (res.status, res.lower_bound, res.upper_bound) == (OPTIMAL, 3, 3)
        assert is_valid_completion(g, res.best_fill)

    def test_a_short_packing_still_runs_the_search(self, monkeypatch):
        # grid3_4: packing 7 against the incumbent 9
        g = gen_grid(3, 4)
        assert sum(c.rhs for _, c in _packing(root_initialize(g)[1])) == 7
        lps = recording_lps(monkeypatch)
        res = solve(g)
        assert (res.status, res.upper_bound, res.nodes, res.total_cuts) == (OPTIMAL, 9, 1, 24)
        assert lps

    @pytest.mark.parametrize("k", range(4, 10))
    def test_cycle_bound_is_k_minus_3(self, k):
        assert sum(c.rhs for _, c in _packing(root_initialize(cycle_graph(k))[1])) == k - 3

    def test_never_above_the_optimum(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            g = random_connected_graph(rng, int(rng.integers(4, 9)),
                                       float(rng.uniform(0.2, 0.6)))
            bound = sum(c.rhs for _, c in _packing(root_initialize(g)[1]))
            assert bound <= len(brute_force_mccp(g))

    def test_only_unit_rows_with_disjoint_supports_count(self):
        chain = [row({0: 1, 1: 1}, 1), row({1: 1, 2: 1}, 1), row({2: 1, 3: 1}, 1)]
        assert sum(r.rhs for _, r in _packing(chain)) == 2  # the middle row meets the first
        # 2 x_4 >= 2 says only x_4 >= 1: counting its rhs would claim 2
        assert sum(r.rhs for _, r in _packing([row({4: 2}, 2)])) == 0
        assert sum(r.rhs for _, r in _packing([row({4: 1, 5: -1}, 1, "I2")])) == 0


def row(coeffs: dict, rhs: int, family: str = "I1") -> Cut:
    """A cut on C6 with no provenance: the packings read only its
    coefficients and rhs."""
    return Cut(cycle_graph(6), coeffs, rhs, family)


def full_harvest(g: Graph, families=FAMILIES) -> list:
    """Every root cut: integer separation at x = 0."""
    return separate_integer(g, Point.zeros(g), families=families).cuts


class TestLazyRootHarvest:
    """The root harvest stops at the first cut after which the packing
    bound reaches the incumbent; only a root that closes is cut short."""

    @staticmethod
    def graphs(seed: int, count: int) -> list:
        rng = np.random.default_rng(seed)
        return [random_connected_graph(rng, int(rng.integers(5, 13)),
                                       float(rng.uniform(0.15, 0.5)))
                for _ in range(count)]

    def test_harvest_is_the_shortest_closing_prefix(self):
        short = whole = 0
        for g in self.graphs(149, 60):
            incumbent, harvest = root_initialize(g)
            full = full_harvest(g) if incumbent else []
            k = next((k for k in range(1, len(full) + 1)
                      if sum(c.rhs for _, c in _packing(full[:k])) >= len(incumbent)), len(full))
            assert [c.key() for c in harvest] == [c.key() for c in full[:k]]
            assert [c.family for c in harvest] == [c.family for c in full[:k]]
            short += k < len(full)
            whole += k == len(full)
        assert short and whole  # both ends of the stop are exercised

    def test_search_is_the_one_the_full_harvest_gives(self, monkeypatch):
        graphs = self.graphs(151, 40)
        lazy = [solve(g) for g in graphs]
        root = fillin.solver.root_initialize
        monkeypatch.setattr(fillin.solver, "root_initialize", lambda g, cfg: (
            root(g, cfg)[0], full_harvest(g, cfg.families_enabled)))
        closed = 0
        for g, a in zip(graphs, lazy):
            b = solve(g)
            assert ((a.status, a.lower_bound, a.upper_bound, a.nodes, a.best_fill)
                    == (b.status, b.lower_bound, b.upper_bound, b.nodes, b.best_fill))
            if a.nodes:
                assert (a.cuts_by_family, a.total_cuts) == (b.cuts_by_family, b.total_cuts)
            else:
                assert a.total_cuts <= b.total_cuts
                closed += a.total_cuts < b.total_cuts
        assert closed and any(a.nodes for a in lazy)

    def test_grid3_3_closes_on_its_first_cut(self, monkeypatch):
        g = gen_grid(3, 3)
        assert len(full_harvest(g)) == 8
        incumbent, harvest = root_initialize(g)
        assert len(harvest) == 1
        assert sum(c.rhs for _, c in _packing(harvest)) == len(incumbent) == 5
        lps = recording_lps(monkeypatch)
        res = solve(g)
        assert (res.status, res.lower_bound, res.nodes, res.total_cuts) == (OPTIMAL, 5, 0, 1)
        assert lps == []


class TestBestPacking:
    """When the greedy root packing is one short of the incumbent, a
    bounded search over the same rows looks for a packing that reaches it."""

    # tuning-pool graph 990 of many-small: greedy packing 2, incumbent 3
    G990 = new_graph(8, [(0, 1), (0, 3), (1, 2), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5),
                         (4, 7)])

    def test_only_unit_rows_with_disjoint_supports_count(self):
        g = cycle_graph(6)
        chain = [row({1: 1, 2: 1}, 1), row({0: 1, 1: 1}, 1), row({2: 1, 3: 1}, 1)]
        assert sum(r.rhs for _, r in _packing(chain)) == 1  # the first row meets both
        assert _best_packing(g, chain, 2) == [1, 2]
        assert _best_packing(g, chain, 3) == []
        assert _best_packing(g, [row({4: 2}, 2)], 1) == []
        assert _best_packing(g, [row({4: 1, 5: -1}, 1, "I2")], 1) == []

    def test_a_packing_never_above_the_optimum(self, monkeypatch):
        # at every target, the rows returned are unit and pairwise disjoint,
        # reach the target, and sum to no more than the optimum; with the
        # cap out of reach the search finds the exhaustive maximum
        rng = np.random.default_rng(157)
        exhaustive = 0
        for _ in range(60):
            g = random_connected_graph(rng, int(rng.integers(4, 9)),
                                       float(rng.uniform(0.2, 0.6)))
            cuts, opt = full_harvest(g), len(brute_force_mccp(g))
            for target in range(1, opt + 2):
                rows = _best_packing(g, cuts, target)
                supports = [set(cuts[i].coeffs) for i in rows]
                assert all(set(cuts[i].coeffs.values()) == {1} for i in rows)
                assert sum(map(len, supports)) == len(set().union(*supports))
                assert not rows or opt >= sum(cuts[i].rhs for i in rows) >= target
            unit = [i for i, c in enumerate(cuts) if set(c.coeffs.values()) == {1}]
            if len(unit) > 12:
                continue
            best = max(sum(cuts[i].rhs for i in s)
                       for k in range(len(unit) + 1) for s in combinations(unit, k)
                       if sum(len(cuts[i].coeffs) for i in s)
                       == len(set().union(*(cuts[i].coeffs for i in s))))
            with monkeypatch.context() as m:
                m.setattr(fillin.solver, "PACKING_WORK", 1 << len(unit))
                assert sum(cuts[i].rhs for i in _best_packing(g, cuts, best)) == best
                assert _best_packing(g, cuts, best + 1) == []
            exhaustive += 1
        assert exhaustive > 30

    def test_graph_990_closes_at_the_root(self, monkeypatch):
        g = self.G990
        incumbent, harvest = root_initialize(g)
        assert sum(c.rhs for _, c in _packing(harvest)) == 2 and len(incumbent) == 3
        lps = recording_lps(monkeypatch)
        res = solve(g)
        assert (res.status, res.lower_bound, res.upper_bound, res.nodes) == (OPTIMAL, 3, 3, 0)
        assert is_valid_completion(g, res.best_fill) and lps == []
        # the counts are those of the full harvest
        assert [c.key() for c in harvest] == [c.key() for c in full_harvest(g)]
        by_family = Counter(c.family for c in harvest)
        assert res.total_cuts == len(harvest)
        assert res.cuts_by_family == {fam: by_family[fam] for fam in FAMILIES}

    def test_the_cap_sends_it_back_to_the_search(self, monkeypatch):
        # one row reaches 3 alone, so a single visit would close it
        monkeypatch.setattr(fillin.solver, "PACKING_WORK", 0)
        lps = recording_lps(monkeypatch)
        res = solve(self.G990)
        assert (res.status, res.lower_bound, res.upper_bound) == (OPTIMAL, 3, 3)
        assert res.nodes > 0 and lps

    def test_same_search_where_it_does_not_close(self, monkeypatch):
        # a root the packing search leaves open keeps the greedy packing,
        # so its search is the one without the packing search, to the pivot
        rnd = random.Random(163)
        graphs = ([gen_grid(3, 5), gen_queen(3, 5), gen_queen(4, 4), myciel3()]
                  + [tree_plus_pairs(rnd, rnd.randint(8, 12)) for _ in range(20)])
        searched = fillin.solver._best_packing
        calls = []
        monkeypatch.setattr(fillin.solver, "_best_packing", lambda g, rows, target: (
            calls.append(searched(g, rows, target)) or calls[-1]))
        open_roots = [g for g in graphs if not root_closes(g)]
        assert len(open_roots) >= 8 and [] in calls  # myciel3 among them: 9 against 10
        cfg = SolverConfig()
        digest = search_digest(open_roots, cfg)
        monkeypatch.setattr(fillin.solver, "_best_packing", lambda g, rows, target: [])
        assert search_digest(open_roots, cfg) == digest


class TestPastBruteForce:
    def test_matches_min_fill_dp(self):
        # connected graphs like many-small's: a random spanning tree plus
        # density 0.2-0.5
        rng = np.random.default_rng(131)
        by_bound = by_search = 0
        for _ in range(60):
            g = random_connected_graph(rng, int(rng.integers(9, 14)),
                                       float(rng.uniform(0.2, 0.5)))
            res = solve(g)
            assert res.status == OPTIMAL
            assert res.lower_bound == res.upper_bound == min_fill_dp(g)
            assert is_valid_completion(g, res.best_fill)
            assert len(res.best_fill) == res.upper_bound
            by_bound += res.nodes == 0 and res.upper_bound > 0
            by_search += res.nodes > 0
        assert by_bound >= 10 and by_search >= 10


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
            pooled = [c for c in root_initialize(g)[1] if search.add_cut(c)]
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
    def test_no_lp_starts_cold(self, monkeypatch, name, g):
        # the root LP starts from the packing basis of the root cuts, every
        # later one from a basis an earlier LP returned (its tight rows
        # named by their contents, which outlive the active set), and some
        # with the kept inverse of that basis's block
        starts, returned = [], set()
        calls = with_inverse = 0
        solve_lp, start = fillin.solver.solve_lp, fillin.lp._DualSimplex.start

        def named(problem, basis):
            return basis.cols, tuple((problem.rows[i].tobytes(), problem.rhs[i])
                                     for i in basis.rows)

        def recording(problem, basis=None, inverse=None, **kwargs):
            nonlocal calls, with_inverse
            calls += 1
            if calls == 1:
                packing = [i for i, _ in _packing(root_initialize(g)[1])]
                assert basis == packing_basis(problem.rows, packing) and packing
            else:
                assert named(problem, basis) in returned
            if inverse is not None:
                with_inverse += 1
                block = problem.rows[list(basis.rows)][:, list(basis.cols)]
                assert np.abs(inverse @ block - np.eye(len(block))).max() <= 1e-9
            res = solve_lp(problem, basis=basis, inverse=inverse, **kwargs)
            if res.basis is not None:
                returned.add(named(problem, res.basis))
            return res

        def recording_start(lp, cols, rows, inverse=None):
            starts.append(len(cols))
            return start(lp, cols, rows, inverse)

        monkeypatch.setattr(fillin.solver, "solve_lp", recording)
        monkeypatch.setattr(fillin.lp._DualSimplex, "start", recording_start)
        a = solve(g)
        assert a.status == OPTIMAL and a.nodes > 1
        # one start per LP (a refused basis would add a slack start), none empty
        assert len(starts) == calls and 0 not in starts, f"{name}: {starts}"
        assert with_inverse > 0
        monkeypatch.undo()
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
        # bounds down to fully fixed leaves.  No graph closes at the root,
        # so the search runs.  On root_misses the root incumbent (3) misses
        # the optimum (2): only the leaves can find it.
        monkeypatch.setattr(fillin.lp, "PIVOTS_PER_DIM", 0)
        root_misses = new_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4),
                                    (2, 5), (3, 4), (3, 5), (4, 5)])
        assert len(root_initialize(root_misses)[0]) > len(brute_force_mccp(root_misses))
        graphs = [gen_queen(3, 3), root_misses]
        rng = np.random.default_rng(109)
        for _ in range(300):  # few graphs this small stay open at the root
            g = random_connected_graph(rng, int(rng.integers(6, 9)),
                                       float(rng.uniform(0.3, 0.6)))
            # small enough to enumerate every leaf
            if g.mc <= 9 and not root_closes(g):
                graphs.append(g)
                if len(graphs) == 5:
                    break
        assert len(graphs) == 5
        lps = recording_lps(monkeypatch)
        for g in graphs:
            lps.clear()
            res = solve(g)
            assert any(r.status == fillin.lp.ITERATION_LIMIT for _, r in lps)
            assert res.status == OPTIMAL
            assert res.upper_bound == res.lower_bound == len(brute_force_mccp(g))
            assert is_valid_completion(g, res.best_fill)

    @pytest.mark.parametrize("g, cfg", [
        pytest.param(gen_grid(5, 5), SolverConfig(exact_i2=True, time_limit_s=2),
                     id="grid5_5-exact_i2"),
        pytest.param(gen_queen(5, 5), SolverConfig(time_limit_s=2), id="queen5_5"),
        # n = 47: one LP takes seconds, and exact I2 runs over 47 centres
        pytest.param(gen_mycielski(5), SolverConfig(time_limit_s=2), id="myciel5"),
        pytest.param(gen_mycielski(5), SolverConfig(exact_i2=True, time_limit_s=2),
                     id="myciel5-exact_i2"),
    ])
    def test_time_limit_holds_on_a_hard_rung(self, g, cfg):
        t0 = time.perf_counter()
        res = solve(g, cfg)
        assert time.perf_counter() - t0 < 2.5
        assert res.lower_bound <= res.upper_bound
        assert is_valid_completion(g, res.best_fill)

    def test_root_node_stops_within_one_round_of_the_limit(self, monkeypatch):
        # A fake clock advances one second per LP solve.  grid4_4's root
        # node takes 17 solves with no limit; under a 5 s limit the check
        # before each round stops it after the sixth (the first one past
        # the limit), and the search returns with the root node re-queued.
        # The LP reads the same clock.
        lps = recording_lps(monkeypatch)
        fake_clock(monkeypatch, lps)
        g = gen_grid(4, 4)
        res = solve(g, SolverConfig(time_limit_s=5))
        assert len(lps) == 6
        assert (res.status, res.nodes) == (TIME_LIMIT, 1)
        assert res.lower_bound <= res.upper_bound
        assert is_valid_completion(g, res.best_fill)

    def test_lower_bound_keeps_the_last_lp_objective(self, monkeypatch):
        # the same fake clock: the root re-queues at the bound its LPs
        # proved, not at the bound it was pushed with
        lps = recording_lps(monkeypatch)
        fake_clock(monkeypatch, lps)
        g = gen_grid(4, 4)
        res = solve(g, SolverConfig(time_limit_s=5))
        last = [r.objective for _, r in lps if r.status == fillin.lp.OPTIMAL][-1]
        assert res.status == TIME_LIMIT
        assert res.upper_bound > res.lower_bound >= math.ceil(last - BOUND_TOL) > 0

    @pytest.mark.parametrize("name, g, cfg", [
        ("grid3_6", gen_grid(3, 6), SolverConfig()),
        ("queen4_4", gen_queen(4, 4), SolverConfig()),
        ("grid3_6-exact_i2", gen_grid(3, 6), SolverConfig(exact_i2=True)),
    ])
    def test_a_node_bound_never_falls(self, monkeypatch, name, g, cfg):
        # a node replaces its bound by each LP objective: none falls below
        # the bound the node was pushed with or below the LP before it,
        # beyond BOUND_TOL, so no node gives up a bound it had proved
        lps = recording_lps(monkeypatch)
        falls = []
        process_node = fillin.solver._process_node

        def checked(search, fixings, bound, basis, deadline):
            first = len(lps)
            process_node(search, fixings, bound, basis, deadline)
            for _, r in lps[first:]:
                if r.status == fillin.lp.OPTIMAL:
                    falls.append(bound - r.objective)
                    bound = r.objective

        monkeypatch.setattr(fillin.solver, "_process_node", checked)
        assert solve(g, cfg).status == OPTIMAL
        assert len(falls) > 10
        assert max(falls) < BOUND_TOL, sorted(falls)[-3:]

    def test_root_is_pushed_at_its_packing_bound(self):
        # with a limit of 0 the root is popped never: lb is its push bound
        g = gen_grid(4, 4)
        res = solve(g, SolverConfig(time_limit_s=0))
        assert (res.status, res.nodes) == (TIME_LIMIT, 0)
        assert res.lower_bound == sum(c.rhs for _, c in _packing(root_initialize(g)[1])) > 0

    def test_an_lp_past_the_deadline_requeues_its_node(self, monkeypatch):
        # the LP's clock runs half a second ahead of the solver's: the sixth
        # root LP starts inside the limit and stops at its first clock read,
        # and the node goes back on the heap instead of branching
        lps = recording_lps(monkeypatch)
        fake_clock(monkeypatch, lps, lp_lead=0.5)
        branched = []
        monkeypatch.setattr(fillin.solver, "_branch", lambda *args: branched.append(args))
        g = gen_grid(4, 4)
        res = solve(g, SolverConfig(time_limit_s=5.2))
        assert len(lps) == 6 and branched == []
        assert (lps[-1][1].status, lps[-1][1].iterations) == (fillin.lp.ITERATION_LIMIT, 0)
        assert (res.status, res.nodes) == (TIME_LIMIT, 1)
        last = [r.objective for _, r in lps if r.status == fillin.lp.OPTIMAL][-1]
        assert res.lower_bound >= math.ceil(last - BOUND_TOL)

    def test_exact_i2_gets_the_solve_deadline(self, monkeypatch):
        deadlines = []
        sep = fillin.solver.separate_i2_exact

        def recording(g, x, deadline=None):
            deadlines.append(deadline)
            return sep(g, x, deadline=deadline)

        monkeypatch.setattr(fillin.solver, "separate_i2_exact", recording)
        g = gen_queen(3, 4)
        t0 = time.perf_counter()
        assert solve(g, SolverConfig(exact_i2=True, time_limit_s=60)).status == OPTIMAL
        t1 = time.perf_counter()
        assert deadlines and all(t0 + 60 <= d <= t1 + 60 for d in deadlines)
        deadlines.clear()
        assert solve(g, SolverConfig(exact_i2=True)).status == OPTIMAL
        assert deadlines and set(deadlines) == {None}

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

    def test_debug_logs_each_pooled_cut_and_spot_checks_it(self, caplog):
        # every pooled cut is checked against the incumbent; none rejects it
        caplog.set_level(logging.DEBUG, logger="fillin.solver")
        res = solve(gen_grid(3, 4))
        cut_lines = [r for r in caplog.records if r.getMessage().startswith("cut ")]
        assert len(cut_lines) == res.total_cuts > 0
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

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


@st.composite
def small_connected_graphs(draw):
    """A cycle through the first 4-n of n = 4-7 vertices, the rest hung on as
    a random tree, plus up to n - 3 extra edges."""
    n = draw(st.integers(4, 7))
    k = draw(st.integers(4, n))
    edges = {(v - 1, v) for v in range(1, k)} | {(0, k - 1)}
    edges |= {(draw(st.integers(0, v - 1)), v) for v in range(k, n)}
    edges |= draw(st.sets(st.sampled_from(list(combinations(range(n), 2))),
                          max_size=n - 3))
    return new_graph(n, sorted(edges))


def tree_plus_pairs(rnd, n: int) -> Graph:
    """A graph built like many-small's: a random tree on n vertices plus
    every other pair with one probability in 0.2-0.5, drawn from rnd."""
    density = rnd.uniform(0.2, 0.5)
    edges = {(rnd.randrange(v), v) for v in range(1, n)}
    edges |= {p for p in combinations(range(n), 2) if rnd.random() < density}
    return new_graph(n, sorted(edges))


@st.composite
def random_tree_graphs(draw):
    """Connected graphs built like many-small's on n = 9-12 vertices."""
    n = draw(st.integers(9, 12))
    return tree_plus_pairs(draw(st.randoms(use_true_random=False)), n)


def solve_capturing(g: Graph, cfg: SolverConfig | None = None):
    """solve(g, cfg) and its _Search (None when g is chordal)."""
    searches = []
    init = _Search.__init__

    def capturing_init(self, *args, **kwargs):
        searches.append(self)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Search, "__init__", capturing_init)
        res = solve(g, cfg)
    return res, (searches[0] if searches else None)


def pooled_rows(search: _Search) -> tuple[np.ndarray, np.ndarray]:
    """The pool's rows and right-hand sides, checked to be integers."""
    k = len(search.pool_keys)
    rows = np.rint(search._matrix[:k]).astype(np.int64)
    rhs = np.rint(search._rhs[:k]).astype(np.int64)
    assert (rows == search._matrix[:k]).all() and (rhs == search._rhs[:k]).all()
    return rows, rhs


class TestPoolValidity:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(small_connected_graphs())
    def test_no_pooled_row_cuts_off_a_completion(self, g):
        # every pooled cut is globally valid: no chordal completion violates it
        res, search = solve_capturing(g)
        assert res.status == OPTIMAL
        if search is None:
            return  # g is chordal: the solve needed no search
        rows, rhs = pooled_rows(search)
        points = np.array([np.rint(p.values) for p in feasible_points(g)], dtype=np.int64)
        assert (points @ rows.T >= rhs).all()

    def test_no_pooled_row_cuts_off_a_sampled_completion(self):
        # graphs too large to enumerate pool cuts beyond the root: each
        # pooled row must hold at the completions of random elimination
        # orders and at the optimum found
        rng = np.random.default_rng(97)
        rnd = random.Random(97)
        graphs = [gen_grid(3, 5), gen_grid(3, 6), gen_queen(3, 5), myciel3()]
        graphs += [tree_plus_pairs(rnd, rnd.randint(9, 12)) for _ in range(30)]
        beyond_root = 0
        for g in graphs:
            res, search = solve_capturing(g)
            assert res.status == OPTIMAL
            if search is None:
                continue
            rows, rhs = pooled_rows(search)
            completions = [chordalize_with_order(g, rng.permutation(g.n))
                           for _ in range(200)] + [res.best_fill]
            points = np.zeros((len(completions), g.mc), dtype=np.int64)
            for i, fill in enumerate(completions):
                points[i, list(fill)] = 1
            assert (points @ rows.T >= rhs).all()
            beyond_root += len(rows) - len({c.key() for c in root_initialize(g)[1]})
        assert beyond_root >= 100


class TestOneCutIdentity:
    def test_pool_refuses_no_separated_cut(self, monkeypatch):
        # separation reports each inequality once, by the pool's own key,
        # and never re-finds a pooled row (violated ones re-enter the LP
        # first); so every cut offered to the pool is new
        offered, refused = [], []
        add_cut = _Search.add_cut

        def counting(self, cut):
            new = add_cut(self, cut)
            (offered if new else refused).append(cut.to_line())
            return new

        monkeypatch.setattr(_Search, "add_cut", counting)
        ladder = [gen_grid(3, c) for c in (3, 4, 5, 6)]
        ladder += [gen_queen(r, c) for r, c in ((3, 3), (3, 4), (3, 5), (4, 4))]
        ladder += [myciel3(), myciel4()]
        for g in ladder:
            assert solve(g).status == OPTIMAL
        exact = SolverConfig(exact_i2=True)
        for g in (gen_grid(3, 4), gen_grid(3, 5), gen_queen(3, 5), gen_queen(4, 4),
                  myciel3()):
            assert solve(g, exact).status == OPTIMAL
        assert refused == []
        assert len(offered) > 1500


class TestLpRows:
    def test_every_optimal_lp_point_satisfies_its_rows(self, monkeypatch):
        # only graphs whose root needs an LP, so the sample does not depend
        # on how many roots close without one; most take one LP
        lps = recording_lps(monkeypatch)
        checked = []

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(random_tree_graphs().filter(lambda g: not root_closes(g)))
        def check(g):
            lps.clear()
            assert solve(g).status == OPTIMAL
            for p, res in lps:
                if res.status == fillin.lp.CUTOFF:
                    # most LPs stop at the cutoff: their optimum lies above
                    # its bound, at a point that must satisfy the rows too
                    bound, res = res.objective, fillin.lp.solve_lp(p)
                    if res.status == fillin.lp.OPTIMAL:
                        assert res.objective >= bound - 1e-9
                if res.status != fillin.lp.OPTIMAL:
                    continue
                x = res.point.values
                assert (p.lb - 1e-9 <= x).all() and (x <= p.ub + 1e-9).all()
                assert (p.rows @ x >= p.rhs - 1e-7).all()
                checked.append(x)

        check()
        assert len(checked) >= 100


class TestPooledCycleMemo:
    """The scans skip cycles whose screened cuts the pool's map holds, and
    the search stays the one without the skip, to the pivot."""

    @staticmethod
    def graphs() -> list:
        rnd = random.Random(131)
        # grid3_6 loses a cut if a cycle with any of its cuts pooled is skipped
        return ([gen_grid(3, 5), gen_grid(3, 6), gen_queen(3, 5), gen_queen(4, 4), myciel3()]
                + [tree_plus_pairs(rnd, rnd.randint(8, 12)) for _ in range(10)])

    @staticmethod
    def counting_skips(monkeypatch) -> Counter:
        """Count the cycles the scans enumerate and the ones they screen;
        the difference is the cycles they skip.  The root enumerates cycles
        too, and builds the cuts of each (cycle_rows) unscreened: those
        cycles are not the scans'."""
        seen = Counter()
        cycles = fillin.separation.iter_chordless_cycles
        screen, rows = fillin.separation.screen_cycle, fillin.separation.cycle_rows

        def enumerating(*args):
            for cyc in cycles(*args):
                seen["cycles"] += 1
                yield cyc

        def screening(*args):
            seen["screened"] += 1
            return screen(*args)

        def reading(*args):
            seen["cycles"] -= 1
            return rows(*args)

        monkeypatch.setattr(fillin.separation, "iter_chordless_cycles", enumerating)
        monkeypatch.setattr(fillin.separation, "screen_cycle", screening)
        monkeypatch.setattr(fillin.separation, "cycle_rows", reading)
        return seen

    @pytest.mark.parametrize("exact_i2", [False, True])
    def test_search_unchanged_without_the_skip(self, monkeypatch, exact_i2):
        graphs, cfg = self.graphs(), SolverConfig(exact_i2=exact_i2)
        seen = self.counting_skips(monkeypatch)
        skipping = search_digest(graphs, cfg)
        assert seen["cycles"] - seen["screened"] > 1000 and seen["screened"] > 0
        # the scans' default: an empty map, which skips nothing
        for name in ("separate_integer", "separate_threshold"):
            monkeypatch.setattr(fillin.solver, name, lambda *args, sep=getattr(
                fillin.solver, name), pooled=None, **kwargs: sep(*args, **kwargs))
        seen.clear()
        assert search_digest(graphs, cfg) == skipping
        assert seen["cycles"] == seen["screened"] > 0

    def test_every_pooled_cut_rebuilds_from_its_cycle_and_params(self, monkeypatch):
        # the map names each pooled cut by its canonical cycle and positions,
        # and its builder makes the same cut from them: exact I2 cuts too,
        # whose centre is rarely the canonical start
        builders = {"I1": cut_i1, "I2": cut_i2, "I3": cut_i3, "I4": cut_i4}
        add_cut, pooled = _Search.add_cut, []

        def collecting(self, cut):
            new = add_cut(self, cut)
            if new:
                pooled.append(cut)
            return new

        separate_i2_exact, exact = fillin.solver.separate_i2_exact, set()

        def collecting_exact(g, x, deadline=None):
            rep = separate_i2_exact(g, x, deadline=deadline)
            exact.update(c.key() for c in rep.cuts)
            return rep

        monkeypatch.setattr(_Search, "add_cut", collecting)
        monkeypatch.setattr(fillin.solver, "separate_i2_exact", collecting_exact)
        total = off_start = 0
        for g in (gen_grid(3, 5), gen_queen(3, 5), myciel3()):
            pooled.clear()
            res, search = solve_capturing(g, SolverConfig(exact_i2=True))
            assert res.status == OPTIMAL
            by_cycle = {}
            for cut in pooled:
                assert cut.cycle.canonical() is cut.cycle
                rebuilt = builders[cut.family](cut.graph, cut.cycle, *cut.params)
                assert rebuilt.key() == cut.key()
                by_cycle.setdefault(cut.cycle.vertices, set()).add((cut.family, cut.params))
                off_start += cut.key() in exact and cut.params != (0,)
            assert search.by_cycle == by_cycle
            total += len(pooled)
        assert total > 100 and off_start > 20

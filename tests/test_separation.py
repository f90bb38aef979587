import numpy as np
import pytest

import fillin.separation

from fillin.cuts import Cut, CutError, cut_i1, cut_i3, evaluate
from fillin.graphs import (
    Cycle,
    Graph,
    Point,
    apply_completion,
    is_chordal,
    iter_chordless_cycles,
    new_graph,
)
from fillin.instances import gen_grid
from fillin.separation import (
    MAX_CUTS_PER_CALL,
    VIOLATION_TOL,
    SeparationCapabilityError,
    SeparationError,
    SeparationReport,
    _extended_values,
    _i2_shortest_paths,
    separate_i2_exact,
    separate_i3_exact,
    separate_integer,
    separate_threshold,
)
from helpers import (
    complete_graph,
    cycle_graph,
    dijkstra_avoiding,
    exhaustive_i2_violation,
    exhaustive_i3_violation,
    fig_graph,
    myciel4,
    random_connected_graph,
    reference_separate,
)


def assert_same_report(rep, ref):
    assert [c.to_line() for c in rep.cuts] == [c.to_line() for c in ref.cuts]
    assert [(c.family, c.params, c.cycle) for c in rep.cuts] == [
        (c.family, c.params, c.cycle) for c in ref.cuts]
    assert rep.violations == ref.violations
    assert rep.stats.cycles_examined == ref.stats.cycles_examined


class TestIntegerSeparation:
    def test_c4_at_zero(self):
        # I2 on a chordless 4-cycle is I1: one inequality, reported once
        g = cycle_graph(4)
        rep = separate_integer(g, Point.zeros(g))
        assert [c.family for c in rep.cuts] == ["I1"]
        assert rep.violations == [1]
        rep = separate_integer(g, Point.zeros(g), families=("I2",))
        assert [c.family for c in rep.cuts] == ["I2"]
        assert rep.cuts[0].key() == cut_i1(g, Cycle((0, 1, 2, 3))).key()

    def test_fig_graph_at_zero_single_cycle(self):
        g = fig_graph()
        rep = separate_integer(g, Point.zeros(g), max_cuts=1)
        cycles = {c.cycle.vertices for c in rep.cuts}
        assert len(cycles) == 1
        assert cycles <= {(0, 1, 2, 3), (1, 2, 3, 4), (0, 1, 4, 3)}

    @pytest.mark.parametrize("family", ["I1", "I2", "I3", "I4"])
    def test_builder_refusals_propagate(self, monkeypatch, family):
        # on a chordless cycle no builder can refuse, so a refusal is a
        # defect; C6 at zero builds all four families
        g = cycle_graph(6)
        assert [c.family for c in separate_integer(g, Point.zeros(g)).cuts] == [
            "I1", "I2", "I3", "I4"]

        def refuse(*args):
            raise CutError("refused")

        monkeypatch.setattr(fillin.separation, "cut_" + family.lower(), refuse)
        with pytest.raises(CutError, match="refused"):
            separate_integer(g, Point.zeros(g))

    def test_c5_at_zero_all_families(self):
        # I3 on a chordless 5-cycle is I1: reported once, as I1, unless I1
        # is left out
        g = cycle_graph(5)
        rep = separate_integer(g, Point.zeros(g))
        by_family = {c.family: v for c, v in zip(rep.cuts, rep.violations)}
        assert by_family == {"I1": 2, "I2": 1, "I4": 1}
        rep = separate_integer(g, Point.zeros(g), families=("I2", "I3", "I4"))
        by_family = {c.family: v for c, v in zip(rep.cuts, rep.violations)}
        assert by_family == {"I2": 1, "I3": 2, "I4": 1}

    def test_empty_iff_chordal(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            g = random_connected_graph(rng, int(rng.integers(4, 9)),
                                       float(rng.uniform(0.2, 0.8)))
            x = Point((rng.random(g.mc) < rng.uniform(0, 0.5)).astype(float))
            rep = separate_integer(g, x)
            completed = apply_completion(g, x.fill_set())
            ok, _ = is_chordal(completed)
            assert (len(rep.cuts) == 0) == ok

    def test_every_cut_strictly_violated(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            g = random_connected_graph(rng, int(rng.integers(4, 9)), 0.35)
            x = Point((rng.random(g.mc) < 0.2).astype(float))
            rep = separate_integer(g, x)
            for cut, v in zip(rep.cuts, rep.violations):
                assert v > 1e-6
                assert evaluate(cut, x) == pytest.approx(v)

    def test_fractional_input_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(SeparationError, match="integral"):
            separate_integer(g, Point(np.array([0.5, 0.0])))

    def test_dimension_mismatch(self):
        g = cycle_graph(4)
        with pytest.raises(SeparationError, match="dimension"):
            separate_integer(g, Point(np.zeros(3)))

    def test_respects_family_selection(self):
        g = cycle_graph(5)
        rep = separate_integer(g, Point.zeros(g), families=("I1",))
        assert {c.family for c in rep.cuts} == {"I1"}


class TestThresholdSeparation:
    def test_c5_point4_finds_nothing(self):
        g = cycle_graph(5)
        rep = separate_threshold(g, Point(np.full(5, 0.4)), 0.5)
        assert rep.cuts == []

    def test_c5_point3_keeps_i1(self):
        g = cycle_graph(5)
        rep = separate_threshold(g, Point(np.full(5, 0.3)), 0.5)
        by_family = {c.family: v for c, v in zip(rep.cuts, rep.violations)}
        assert by_family["I1"] == pytest.approx(0.5)

    def test_integer_points_match_integer_separation(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(4, 9)), 0.3)
            x = Point((rng.random(g.mc) < 0.25).astype(float))
            a = separate_integer(g, x)
            b = separate_threshold(g, x, float(rng.uniform(0.05, 0.95)))
            assert [c.key() for c in a.cuts] == [c.key() for c in b.cuts]

    def test_kept_cuts_checked_at_true_point(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(5, 8)), 0.35)
            x = Point(rng.random(g.mc))
            rep = separate_threshold(g, x, 0.5)
            for cut, v in zip(rep.cuts, rep.violations):
                assert evaluate(cut, x) == pytest.approx(v)
                assert v > 1e-6

    def test_delta_out_of_range(self):
        g = cycle_graph(4)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(SeparationError, match="threshold"):
                separate_threshold(g, Point.zeros(g), bad)


class TestAgainstCompletedGraphReference:
    """Separation on adjacency masks gives exactly the report of building
    the completed Graph and searching it pair by pair."""

    OPTIONS = [
        {},
        {"max_cuts": 1},
        {"families": ("I1", "I3"), "max_cuts": 3},
        {"families": ("I1", "I2", "I4"), "max_cuts": 50},
    ]

    @pytest.mark.parametrize("opts", OPTIONS)
    def test_integer(self, opts):
        rng = np.random.default_rng(53)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(4, 13)),
                                       float(rng.uniform(0.15, 0.5)))
            x = Point((rng.random(g.mc) < rng.uniform(0, 0.4)).astype(float))
            ref = reference_separate(g, x, x.fill_set(), **opts)
            assert_same_report(separate_integer(g, x, **opts), ref)

    @pytest.mark.parametrize("opts", OPTIONS)
    def test_threshold(self, opts):
        rng = np.random.default_rng(59)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(4, 13)),
                                       float(rng.uniform(0.15, 0.5)))
            x = Point(rng.random(g.mc) * rng.uniform(0.3, 1.0))
            delta = float(rng.choice([0.25, 0.5, 0.75]))
            on = np.flatnonzero(x.values >= delta)
            ref = reference_separate(g, x, on, **opts)
            assert_same_report(separate_threshold(g, x, delta, **opts), ref)

    def test_threshold_builds_no_graph(self, monkeypatch):
        rng = np.random.default_rng(61)
        g = random_connected_graph(rng, 11, 0.3)
        x = Point(rng.random(g.mc))
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        rep = separate_threshold(g, x, 0.5)
        assert rep.stats.cycles_examined > 0
        assert built == []


class TestStopRule:
    def test_stops_once_the_cap_is_held(self):
        g = myciel4()
        full = separate_integer(g, Point.zeros(g), max_cuts=10**6)
        assert len(full) > MAX_CUTS_PER_CALL
        rep = separate_integer(g, Point.zeros(g))
        assert len(rep) == MAX_CUTS_PER_CALL
        assert rep.cuts == full.cuts[:MAX_CUTS_PER_CALL]
        assert rep.stats.cycles_examined < full.stats.cycles_examined

    def test_scans_every_cycle_below_the_cap(self):
        g = gen_grid(4, 5)
        x = Point(np.random.default_rng(7).random(g.mc) * 0.6)
        on = np.flatnonzero(x.values >= 0.5).tolist()
        rep = separate_threshold(g, x, 0.5)
        assert 0 < len(rep) < MAX_CUTS_PER_CALL
        assert rep.stats.cycles_examined == len(list(iter_chordless_cycles(g, on)))

    @pytest.mark.parametrize("separate", ["integer", "threshold"])
    def test_builds_only_the_cuts_it_reports(self, monkeypatch, separate):
        g = gen_grid(4, 5)
        rng = np.random.default_rng(7)
        if separate == "integer":
            x = Point((rng.random(g.mc) < 0.1).astype(float))
            run = lambda: separate_integer(g, x)  # noqa: E731
        else:
            # most cycles of the rounded graph give no violated cut at x
            x = Point(rng.random(g.mc) * 0.6)
            run = lambda: separate_threshold(g, x, 0.5)  # noqa: E731
        built = []
        init = Cut.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Cut, "__init__", counting_init)
        rep = run()
        assert len(built) == len(rep) > 0
        if separate == "threshold":
            assert rep.stats.cycles_examined > len(rep)


class TestReport:
    def test_one_copy_per_inequality(self):
        # on a 5-cycle I1 and I3 are the same inequality: the first family
        # to report it keeps it, and a repeat under either family is refused
        g = cycle_graph(5)
        c = Cycle((0, 1, 2, 3, 4))
        i1, i3 = cut_i1(g, c), cut_i3(g, c)
        assert i1.key() == i3.key()
        rep = SeparationReport()
        assert rep.add(i1, 2.0)
        assert not rep.add(i3, 2.0)
        assert not rep.add(cut_i1(g, c), 2.0)
        assert not rep.add(cut_i3(g, Cycle((1, 2, 3, 4, 0))), 2.0)
        assert [cut.family for cut in rep.cuts] == ["I1"]
        assert rep.violations == [2.0]


class TestOneIdentity:
    """A report holds each inequality once, by Cut.key(), the identity the
    solver's cut pool dedupes by."""

    def test_no_report_holds_two_cuts_with_one_key(self):
        rng = np.random.default_rng(89)
        cuts = dict.fromkeys(["integer", "threshold", "exact_i2", "exact_i3"], 0)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(4, 8)),
                                       float(rng.uniform(0.2, 0.5)))
            xi = Point((rng.random(g.mc) < 0.2).astype(float))
            x = Point(rng.random(g.mc) * rng.uniform(0.2, 1.0))
            for name, rep in [("integer", separate_integer(g, xi)),
                              ("integer", separate_integer(g, Point.zeros(g))),
                              ("threshold", separate_threshold(g, x, 0.5)),
                              ("exact_i2", separate_i2_exact(g, x)),
                              ("exact_i3", separate_i3_exact(g, x))]:
                keys = [c.key() for c in rep.cuts]
                assert len(set(keys)) == len(keys)
                cuts[name] += len(keys)
        assert min(cuts.values()) >= 10

    @pytest.mark.parametrize("m", [1, 5, 10, 20, 26])
    def test_cap_counts_distinct_inequalities(self, m):
        # grid3_6 at x = 0 has 26 distinct violated cuts, 10 of them on the
        # 4-cycles where I1 and I2 coincide
        g = gen_grid(3, 6)
        assert len(separate_integer(g, Point.zeros(g), max_cuts=10**6)) == 26
        rep = separate_integer(g, Point.zeros(g), max_cuts=m)
        assert len({c.key() for c in rep.cuts}) == len(rep) == m


class TestExactI2:
    def test_c5_small_fractional_point(self):
        g = cycle_graph(5)
        rep = separate_i2_exact(g, Point(np.full(5, 0.1)))
        assert rep.cuts
        for cut, v in zip(rep.cuts, rep.violations):
            assert cut.family == "I2"
            assert v > 1e-6

    def test_integer_chordal_point_empty(self):
        g = cycle_graph(5)
        x = Point.from_fill(g, [g.fill_index(0, 2), g.fill_index(0, 3)])
        assert separate_i2_exact(g, x).cuts == []

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_agreement_with_exhaustive_enumeration(self, k):
        g = cycle_graph(k)
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            x = Point(rng.random(g.mc) ** float(rng.uniform(0.5, 3.0)))
            found = separate_i2_exact(g, x)
            exhaustive = exhaustive_i2_violation(g, x)
            assert bool(found.cuts) == (exhaustive is not None)
            for cut, v in zip(found.cuts, found.violations):
                assert evaluate(cut, x) == pytest.approx(v)
                assert v > 1e-6

    def test_agreement_on_noncycle_graphs(self):
        rng = np.random.default_rng(61)
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(5, 8)), 0.4)
            x = Point(rng.random(g.mc))
            found = separate_i2_exact(g, x)
            exhaustive = exhaustive_i2_violation(g, x)
            assert bool(found.cuts) == (exhaustive is not None)


class TestBatchedExactI2:
    """The batched shortest paths against the per-triple Dijkstra they
    replace: same distances, same violated triples, valid paths."""

    def test_matches_per_triple_dijkstra(self):
        rng = np.random.default_rng(83)
        for _ in range(8):
            n = int(rng.integers(8, 15))
            g = random_connected_graph(rng, n, float(rng.uniform(0.2, 0.5)))
            x = rng.random(g.mc)
            x[rng.random(g.mc) < 0.3] = 0.0  # zero-weight edges and ties
            x[rng.random(g.mc) < 0.1] = 1.0
            xt = _extended_values(g, Point(x))
            batched, reference = set(), set()
            for c in range(n):
                dist, nxt = _i2_shortest_paths(xt, c)
                for p in range(n):
                    for q in range(p + 1, n):
                        if c in (p, q):
                            continue
                        ref, _ = dijkstra_avoiding(xt, n, src=q, dst=p, forbidden=c,
                                                   banned_pair=(p, q))
                        assert dist[q, p] == pytest.approx(ref, rel=0, abs=1e-9)
                        path = [q]
                        while path[-1] != p:
                            path.append(int(nxt[q, path[-1], p]))
                        assert len(path) >= 3 and len(set(path)) == len(path)
                        assert c not in path
                        weight = sum(1.0 - xt[a, b] + 0.5 * (xt[c, a] + xt[c, b])
                                     for a, b in zip(path, path[1:]))
                        assert weight == pytest.approx(dist[q, p], rel=0, abs=1e-9)
                        bound = 1.0 - xt[p, q] - (1.0 - 1.5 * xt[p, c]) \
                            - (1.0 - 1.5 * xt[c, q])
                        if bound - dist[q, p] > VIOLATION_TOL:
                            batched.add((c, p, q))
                        if bound - ref > VIOLATION_TOL:
                            reference.add((c, p, q))
            assert batched == reference
            assert separate_i2_exact(g, Point(x)).stats.cycles_examined == len(batched)


class TestExactI3:
    def test_c6_distance2_point(self):
        g = cycle_graph(6)
        vals = np.zeros(g.mc)
        for j in range(6):
            vals[g.fill_index(*sorted((j, (j + 2) % 6)))] = 0.1
        rep = separate_i3_exact(g, Point(vals))
        assert rep.cuts
        assert max(rep.violations) == pytest.approx(1.4)

    def test_complete_minus_edge_empty(self):
        g = new_graph(5, [p for p in
                          [(a, b) for a in range(5) for b in range(a + 1, 5)]
                          if p != (0, 1)])
        rep = separate_i3_exact(g, Point(np.array([0.5])))
        assert rep.cuts == []

    def test_vertex_cap(self):
        g = cycle_graph(8)
        with pytest.raises(SeparationCapabilityError, match="threshold"):
            separate_i3_exact(g, Point.zeros(g), vertex_cap=7)

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_agreement_with_exhaustive_enumeration(self, k):
        g = cycle_graph(k)
        rng = np.random.default_rng(200 + k)
        for _ in range(20):
            x = Point(rng.random(g.mc) ** float(rng.uniform(0.5, 3.0)))
            found = separate_i3_exact(g, x)
            exhaustive = exhaustive_i3_violation(g, x)
            assert bool(found.cuts) == (exhaustive is not None)
            for cut, v in zip(found.cuts, found.violations):
                assert evaluate(cut, x) == pytest.approx(v)
                assert v > 1e-6

    def test_agreement_on_noncycle_graphs(self):
        rng = np.random.default_rng(67)
        for _ in range(8):
            g = random_connected_graph(rng, int(rng.integers(5, 8)), 0.45)
            x = Point(rng.random(g.mc))
            found = separate_i3_exact(g, x)
            exhaustive = exhaustive_i3_violation(g, x)
            assert bool(found.cuts) == (exhaustive is not None)


class TestDeterminism:
    def test_reports_are_reproducible(self):
        rng = np.random.default_rng(71)
        g = random_connected_graph(rng, 7, 0.4)
        x = Point(rng.random(g.mc))
        for sep in (
            lambda: separate_threshold(g, x, 0.5),
            lambda: separate_i2_exact(g, x),
            lambda: separate_i3_exact(g, x),
        ):
            a, b = sep(), sep()
            assert [c.to_line() for c in a.cuts] == [c.to_line() for c in b.cuts]
            assert a.violations == b.violations

    def test_stats_populated(self):
        g = cycle_graph(6)
        rep = separate_integer(g, Point.zeros(g))
        assert rep.stats.cycles_examined >= 1
        rep2 = separate_i2_exact(g, Point(np.full(g.mc, 0.05)))
        assert rep2.stats.dijkstra_calls > 0

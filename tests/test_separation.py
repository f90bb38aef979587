import time
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fillin.separation

from fillin.cuts import FAMILIES, Cut, CutError, cut_i1, cut_i2, cut_i3, evaluate
from fillin.graphs import (
    Cycle,
    Graph,
    Point,
    apply_completion,
    is_chordal,
    iter_chordless_cycles,
    new_graph,
)
from fillin.instances import gen_grid, gen_queen
from fillin.separation import (
    MAX_CUTS_PER_CALL,
    VIOLATION_TOL,
    SeparationCapabilityError,
    SeparationError,
    SeparationReport,
    _extended_values,
    _i2_paths,
    root_rows,
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
    i2_shortest_paths,
    loop_extended_values,
    myciel3,
    myciel4,
    per_centre_first_hops,
    per_centre_separate_i2,
    random_connected_graph,
    reference_separate,
)


@st.composite
def graphs_and_points(draw, nmin, nmax):
    """A connected graph on nmin-nmax vertices, a cycle through the first k
    of them with the rest hung on as a random tree plus up to n - 3 extra
    edges, and a point whose values come from a coarse grid or uniformly."""
    n = draw(st.integers(nmin, nmax))
    k = draw(st.integers(4, n))
    edges = {(v - 1, v) for v in range(1, k)} | {(0, k - 1)}
    edges |= {(draw(st.integers(0, v - 1)), v) for v in range(k, n)}
    edges |= draw(st.sets(st.sampled_from(list(combinations(range(n), 2))),
                          max_size=n - 3))
    g = new_graph(n, sorted(edges))
    assume(g.mc > 0)
    value = st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 1.0]) | st.floats(0.0, 1.0)
    return g, Point(np.array(draw(st.lists(value, min_size=g.mc, max_size=g.mc))))


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

    def test_fig_graph_at_zero_single_cycle(self, monkeypatch):
        g = fig_graph()
        monkeypatch.setattr(fillin.separation, "MAX_CUTS_PER_CALL", 1)
        rep = separate_integer(g, Point.zeros(g))
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


class TestRootRows:
    """The root's cuts are integer separation at x = 0, cut for cut, built
    from the table with no screen and no evaluation: on a chordless cycle
    of g each screened entry is a unit row violated at 0, so the screen and
    the keep rule would keep it iff its key is new."""

    @staticmethod
    def assert_rows_are_the_cuts(g, families=FAMILIES):
        rows = list(root_rows(g, families))
        cuts = separate_integer(g, Point.zeros(g), families=families).cuts
        assert [(r.key(), r.family, r.cycle, r.params) for r in rows] == [
            (c.key(), c.family, c.cycle, c.params) for c in cuts]
        assert [r.to_line() for r in rows] == [c.to_line() for c in cuts]
        assert all(set(r.coeffs.values()) == {1} and r.rhs >= 1 for r in rows)
        return rows

    @pytest.mark.parametrize("name, g", [
        *[(f"grid3_{c}", gen_grid(3, c)) for c in (3, 4, 5, 6)],
        *[(f"queen{r}_{c}", gen_queen(r, c)) for r, c in ((3, 3), (3, 4), (3, 5), (4, 4))],
        ("myciel3", myciel3()), ("myciel4", myciel4())])
    def test_on_every_ladder_rung(self, name, g):
        rows = self.assert_rows_are_the_cuts(g)
        capped = name in ("queen3_5", "queen4_4", "myciel4")
        assert (len(rows) == MAX_CUTS_PER_CALL) == capped

    def test_on_random_graphs(self):
        rng = np.random.default_rng(179)
        families = [FAMILIES, ("I1",), ("I1", "I2"), ("I1", "I3", "I4")]
        rows = 0
        for i in range(200):
            g = random_connected_graph(rng, int(rng.integers(4, 13)),
                                       float(rng.uniform(0.1, 0.5)))
            rows += len(self.assert_rows_are_the_cuts(g, families[i % 4]))
        assert rows > 1000


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
    the completed Graph and searching it pair by pair.  An option max_cuts
    is the reference's cap and, set as MAX_CUTS_PER_CALL, separation's."""

    OPTIONS = [
        {},
        {"max_cuts": 1},
        {"families": ("I1", "I3"), "max_cuts": 3},
        {"families": ("I1", "I2", "I4"), "max_cuts": 50},
    ]

    @staticmethod
    def separation_options(monkeypatch, opts):
        if "max_cuts" in opts:
            monkeypatch.setattr(fillin.separation, "MAX_CUTS_PER_CALL", opts["max_cuts"])
        return {k: v for k, v in opts.items() if k != "max_cuts"}

    @pytest.mark.parametrize("opts", OPTIONS)
    def test_integer(self, monkeypatch, opts):
        sep_opts = self.separation_options(monkeypatch, opts)
        rng = np.random.default_rng(53)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(4, 13)),
                                       float(rng.uniform(0.15, 0.5)))
            x = Point((rng.random(g.mc) < rng.uniform(0, 0.4)).astype(float))
            ref = reference_separate(g, x, x.fill_set(), **opts)
            assert_same_report(separate_integer(g, x, **sep_opts), ref)

    @pytest.mark.parametrize("opts", OPTIONS)
    def test_threshold(self, monkeypatch, opts):
        sep_opts = self.separation_options(monkeypatch, opts)
        rng = np.random.default_rng(59)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(4, 13)),
                                       float(rng.uniform(0.15, 0.5)))
            x = Point(rng.random(g.mc) * rng.uniform(0.3, 1.0))
            delta = float(rng.choice([0.25, 0.5, 0.75]))
            on = np.flatnonzero(x.values >= delta)
            ref = reference_separate(g, x, on, **opts)
            assert_same_report(separate_threshold(g, x, delta, **sep_opts), ref)

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
    def test_stops_once_the_cap_is_held(self, monkeypatch):
        g = myciel4()
        with monkeypatch.context() as m:
            m.setattr(fillin.separation, "MAX_CUTS_PER_CALL", 10**6)
            full = separate_integer(g, Point.zeros(g))
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
        table = Cut._from_table

        def counting(cls, *args):
            built.append(args)
            return table(*args)

        monkeypatch.setattr(Cut, "_from_table", classmethod(counting))
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
        zero = [0] * g.mc
        assert rep.add(i1, zero)
        assert not rep.add(i3, zero)
        assert not rep.add(cut_i1(g, c), zero)
        assert not rep.add(cut_i3(g, Cycle((1, 2, 3, 4, 0))), zero)
        assert [cut.family for cut in rep.cuts] == ["I1"]
        assert rep.violations == [2.0]

    def test_keeps_only_strictly_violated_cuts(self):
        # I1 on C5: its five chords sum to at least 2
        g = cycle_graph(5)
        i1 = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        rep = SeparationReport()
        assert not rep.add(i1, [1] * g.mc)
        assert not rep.add(i1, [0.4] * g.mc)  # tight
        assert not rep.add(i1, [0.4 - 1e-7] * g.mc)  # violated within the tolerance
        assert rep.cuts == []
        # a refused cut is not held, so its key stays free
        assert rep.add(i1, [0.3] * g.mc)
        assert rep.violations == [pytest.approx(0.5)]


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
    def test_cap_counts_distinct_inequalities(self, monkeypatch, m):
        # grid3_6 at x = 0 has 26 distinct violated cuts, 10 of them on the
        # 4-cycles where I1 and I2 coincide
        g = gen_grid(3, 6)
        monkeypatch.setattr(fillin.separation, "MAX_CUTS_PER_CALL", 10**6)
        assert len(separate_integer(g, Point.zeros(g))) == 26
        monkeypatch.setattr(fillin.separation, "MAX_CUTS_PER_CALL", m)
        rep = separate_integer(g, Point.zeros(g))
        assert len({c.key() for c in rep.cuts}) == len(rep) == m


def counting_screens(monkeypatch) -> list:
    """Route the scan's screen_cycle through a wrapper; the list it returns
    fills with the vertices of each cycle screened."""
    screened = []
    screen = fillin.separation.screen_cycle

    def counting(g, cyc, *args):
        screened.append(cyc.vertices)
        return screen(g, cyc, *args)

    monkeypatch.setattr(fillin.separation, "screen_cycle", counting)
    return screened


def pooled_map(cuts) -> dict:
    """The scans' pooled map of cuts: canonical cycle -> {(family, positions)}."""
    pooled = {}
    for cut in cuts:
        pooled.setdefault(cut.cycle.vertices, set()).add((cut.family, cut.params))
    return pooled


class TestPooledCycles:
    """A scan skips a cycle only when every cut it would screen on it is in
    the pooled map; at points that violate no pooled cut, the reports are
    the ones with no map."""

    def test_same_reports_as_without_the_memo(self, monkeypatch):
        screened = counting_screens(monkeypatch)
        rng = np.random.default_rng(113)
        skipped = compared = 0
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(6, 11)),
                                       float(rng.uniform(0.2, 0.45)))
            if g.mc == 0:
                continue
            # integer scans at 0/1 points build every screened cut of each
            # cycle they reach
            cuts = [c for _ in range(6) for c in
                    separate_integer(g, Point(rng.integers(0, 2, g.mc).astype(float))).cuts]
            fractional = Point(rng.choice([0.0, 0.3, 0.5, 0.7, 0.85, 1.0], size=g.mc))
            integral = Point(rng.integers(0, 2, g.mc).astype(float))
            for x, runs in ((fractional, [(separate_threshold, (d,)) for d in (0.8, 0.4, 0.9)]),
                            (integral, [(separate_integer, ())])):
                # the pool: every one of those cuts that x satisfies
                pooled = pooled_map(c for c in cuts if evaluate(c, x) <= VIOLATION_TOL)
                for sep, args in runs:
                    screened.clear()
                    ref = sep(g, x, *args)
                    plain = len(screened)
                    screened.clear()
                    rep = sep(g, x, *args, pooled=pooled)
                    assert_same_report(rep, ref)
                    skipped += plain - len(screened)
                    compared += 1
        assert compared >= 100 and skipped > 100

    def test_a_cycle_missing_one_screened_entry_is_screened(self, monkeypatch):
        # C6 at 1/2 on every chord, rounded at 0.8: the one cycle stays
        # chordless and none of its four screened cuts is violated
        screened = counting_screens(monkeypatch)
        g = cycle_graph(6)
        cuts = separate_integer(g, Point.zeros(g)).cuts
        assert sorted(c.family for c in cuts) == ["I1", "I2", "I3", "I4"]
        x = Point(np.full(g.mc, 0.5))
        ref = separate_threshold(g, x, 0.8)
        assert len(ref) == 0 and ref.stats.cycles_examined == 1
        for missing in cuts:
            screened.clear()
            rest = pooled_map(c for c in cuts if c is not missing)
            assert_same_report(separate_threshold(g, x, 0.8, pooled=rest), ref)
            assert screened == [cuts[0].cycle.vertices]
        screened.clear()
        assert_same_report(separate_threshold(g, x, 0.8, pooled=pooled_map(cuts)), ref)
        assert screened == []

    def test_an_exact_i2_cut_marks_only_its_own_position(self, monkeypatch):
        # an exact I2 cut names its centre's position on the canonical
        # cycle: off position 0 it does not stand in for the I2 cut the
        # scan screens on that cycle, which is still screened; at position
        # 0 it is that cut
        screened = counting_screens(monkeypatch)
        rng = np.random.default_rng(127)
        rotated = at_start = 0
        for _ in range(60):
            g = random_connected_graph(rng, int(rng.integers(6, 10)), 0.3)
            if g.mc == 0:
                continue
            scan = separate_integer(g, Point.zeros(g)).cuts
            on_scanned = {c.cycle.vertices: c for c in scan if c.family == "I2"}
            for e in separate_i2_exact(g, random_i2_point(rng, g)).cuts:
                screened_i2 = on_scanned.get(e.cycle.vertices)
                if screened_i2 is None:
                    continue
                if e.params == (0,):
                    assert e.key() == screened_i2.key()
                    at_start += 1
                    continue
                rotated += 1
                pooled = pooled_map([c for c in scan if c is not screened_i2] + [e])
                assert ("I2", (0,)) not in pooled[e.cycle.vertices]
                screened.clear()
                separate_integer(g, Point.zeros(g), pooled=pooled)
                assert e.cycle.vertices in screened
        assert rotated > 20 and at_start > 5


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

    def test_a_past_deadline_returns_before_any_centre(self):
        g = gen_grid(3, 4)
        x = Point(np.full(g.mc, 0.3))
        full = separate_i2_exact(g, x)
        assert full.cuts
        assert separate_i2_exact(g, x, deadline=time.perf_counter() - 1.0).cuts == []
        later = separate_i2_exact(g, x, deadline=time.perf_counter() + 60.0)
        assert [c.key() for c in later.cuts] == [c.key() for c in full.cuts]

    def test_the_clock_is_read_before_each_centre(self, monkeypatch):
        # the k-th clock read returns k, so a deadline of k + 0.5 lets exactly
        # k centres through; each stop keeps the cuts found so far
        g = gen_grid(3, 4)
        x = Point(np.full(g.mc, 0.3))
        rep = separate_i2_exact(g, x)
        full, centres = [c.key() for c in rep.cuts], rep.stats.dijkstra_calls
        reads = []
        monkeypatch.setattr(fillin.separation, "time", SimpleNamespace(
            perf_counter=lambda: reads.append(None) or len(reads)))
        sizes = []
        for k in range(centres + 1):
            reads.clear()
            keys = [c.key() for c in separate_i2_exact(g, x, deadline=k + 0.5).cuts]
            assert len(reads) == min(k + 1, centres)
            assert keys == full[:len(keys)]
            sizes.append(len(keys))
        assert sizes[0] == 0 and sizes[-1] == len(full) and sizes == sorted(sizes)

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

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(graphs_and_points(5, 6))
    def test_property_agreement_with_exhaustive_enumeration(self, case):
        g, x = case
        found = separate_i2_exact(g, x)
        assert bool(found.cuts) == (exhaustive_i2_violation(g, x) is not None)
        for cut, v in zip(found.cuts, found.violations):
            assert v == evaluate(cut, x)

    def test_peak_allocation_stays_cubic(self):
        # every centre is searched, yet no array holds more than n^3 entries:
        # one n^4 array of floats would take 6.5 MB here
        g = gen_grid(5, 6)
        n = g.n
        tracemalloc.start()
        try:
            rep = separate_i2_exact(g, Point(np.full(g.mc, 0.3)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.stats.dijkstra_calls == n == 30
        assert peak < 16 * n ** 3 * 8


def i2_walk(first, nxt, q, p):
    """The q-p walk i2_shortest_paths encodes: first hop, then nxt."""
    walk = [q, int(first[q, p])]
    while walk[-1] != p:
        walk.append(int(nxt[walk[-1], p]))
    return walk


def i2_weight(xt, c, walk):
    return sum(1.0 - xt[a, b] + 0.5 * (xt[c, a] + xt[c, b]) for a, b in zip(walk, walk[1:]))


def i2_bound(xt, c, p, q):
    return 1.0 - xt[p, q] - (1.0 - 1.5 * xt[p, c]) - (1.0 - 1.5 * xt[c, q])


def random_i2_point(rng, g):
    """Uniform values, or values on a coarse grid; some zeros and ones, so
    the auxiliary graph has zero-weight edges and ties."""
    if rng.random() < 0.5:
        x = rng.choice([0.0, 1 / 3, 0.5, 2 / 3, 1.0], size=g.mc)
    else:
        x = rng.random(g.mc)
        x[rng.random(g.mc) < 0.3] = 0.0
        x[rng.random(g.mc) < 0.1] = 1.0
    return Point(x)


class TestExtendedValues:
    def test_matches_the_loop(self):
        rng = np.random.default_rng(167)
        graphs = [complete_graph(5), cycle_graph(4)]
        graphs += [random_connected_graph(rng, int(rng.integers(4, 15)),
                                          float(rng.uniform(0.15, 0.9))) for _ in range(40)]
        for g in graphs:
            for _ in range(3):
                x = random_i2_point(rng, g)
                assert np.array_equal(_extended_values(g, x), loop_extended_values(g, x))


class TestBatchedExactI2:
    """The all-centres shortest paths against the per-triple Dijkstra they
    replace.  Off the violated triples a walk may return to q, so dist may
    be lower there, and nothing reads it; on every triple violated under
    either computation the two agree and the walk is a simple path."""

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
            for c, dist, first, nxt in i2_shortest_paths(xt, np.arange(n)):
                for p in range(n):
                    for q in range(p + 1, n):
                        if c in (p, q):
                            continue
                        ref, _ = dijkstra_avoiding(xt, n, src=q, dst=p, forbidden=c,
                                                   banned_pair=(p, q))
                        bound = i2_bound(xt, c, p, q)
                        if bound - dist[q, p] > VIOLATION_TOL:
                            batched.add((c, p, q))
                        if bound - ref > VIOLATION_TOL:
                            reference.add((c, p, q))
                        if (c, p, q) not in batched | reference:
                            continue
                        assert dist[q, p] == pytest.approx(ref, rel=0, abs=1e-9)
                        walk = i2_walk(first, nxt, q, p)
                        assert len(walk) >= 3 and len(set(walk)) == len(walk)
                        assert c not in walk
                        assert i2_weight(xt, c, walk) == pytest.approx(ref, rel=0, abs=1e-9)
            assert batched == reference
            assert separate_i2_exact(g, Point(x)).stats.cycles_examined == len(batched)

    def test_every_walk_has_two_or_more_hops(self):
        # on every pair, violated or not: dist is the weight of the encoded
        # walk, which avoids c, never takes the direct q-p edge and is no
        # heavier than the shortest such path avoiding q as well
        rng = np.random.default_rng(89)
        for _ in range(6):
            n = int(rng.integers(6, 12))
            g = random_connected_graph(rng, n, float(rng.uniform(0.2, 0.5)))
            xt = _extended_values(g, random_i2_point(rng, g))
            for c, dist, first, nxt in i2_shortest_paths(xt, np.arange(n)):
                for p in range(n):
                    for q in range(n):
                        if len({c, p, q}) < 3:
                            continue
                        walk = i2_walk(first, nxt, q, p)
                        assert len(walk) >= 3 and walk[1] not in (p, q)
                        assert c not in walk
                        assert i2_weight(xt, c, walk) == pytest.approx(dist[q, p], rel=0,
                                                                       abs=1e-9)
                        ref, _ = dijkstra_avoiding(xt, n, src=q, dst=p, forbidden=c,
                                                   banned_pair=(p, q))
                        assert dist[q, p] <= ref + 1e-9

    def test_no_candidate_walk_revisits_q(self):
        # the docstring's argument: a walk that returns to q is never
        # violated, so no fallback search is needed
        rng = np.random.default_rng(97)
        candidates = 0
        for _ in range(150):
            n = int(rng.integers(6, 14))
            g = random_connected_graph(rng, n, float(rng.uniform(0.15, 0.5)))
            xt = _extended_values(g, random_i2_point(rng, g))
            for c, dist, first, nxt in i2_shortest_paths(xt, np.arange(n)):
                for p in range(n):
                    for q in range(p + 1, n):
                        if c in (p, q) or i2_bound(xt, c, p, q) - dist[q, p] <= VIOLATION_TOL:
                            continue
                        candidates += 1
                        walk = i2_walk(first, nxt, q, p)
                        assert q not in walk[1:] and len(set(walk)) == len(walk)
        assert candidates > 5000

    def test_same_report_as_per_centre_batches(self):
        rng = np.random.default_rng(101)
        kept = 0
        for _ in range(60):
            n = int(rng.integers(6, 15))
            g = random_connected_graph(rng, n, float(rng.uniform(0.15, 0.5)))
            x = random_i2_point(rng, g)
            rep, ref = separate_i2_exact(g, x), per_centre_separate_i2(g, x)
            assert_same_report(rep, ref)
            assert rep.stats.dijkstra_calls == ref.stats.dijkstra_calls
            kept += len(rep)
        assert kept > 100


class TestOnePassFirstHop:
    def test_matches_the_per_centre_argmin(self):
        # zeros and ones give zero-weight edges and equal sums, so many
        # minima are attained at several first hops: the pass must keep the
        # smallest, as argmin does, and the same float sum
        rng = np.random.default_rng(107)
        ties = 0
        for _ in range(40):
            n = int(rng.integers(5, 14))
            g = random_connected_graph(rng, n, float(rng.uniform(0.15, 0.5)))
            xt = _extended_values(g, random_i2_point(rng, g))
            centres = np.flatnonzero(rng.random(n) < 0.7)
            dist, first, _ = _i2_paths(xt, centres)
            assert dist.shape == first.shape == (len(centres), n, n)
            for j, c in enumerate(centres):
                ref_dist, ref_first, tied = per_centre_first_hops(xt, int(c))
                assert np.array_equal(dist[j], ref_dist)
                assert np.array_equal(first[j], ref_first)
                ties += tied
        assert ties > 1000

    def test_a_past_deadline_builds_no_path(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("paths built past the deadline")

        monkeypatch.setattr(fillin.separation, "_i2_paths", refuse)
        g = gen_grid(3, 4)
        x = Point(np.full(g.mc, 0.3))
        rep = separate_i2_exact(g, x, deadline=time.perf_counter() - 1.0)
        assert rep.cuts == [] and rep.stats.dijkstra_calls > 0


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

    def test_vertex_cap(self, monkeypatch):
        g = cycle_graph(8)
        monkeypatch.setattr(fillin.separation, "EXACT_MAX_N", 7)
        with pytest.raises(SeparationCapabilityError, match="threshold"):
            separate_i3_exact(g, Point.zeros(g))

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

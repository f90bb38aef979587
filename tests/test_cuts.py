import math

import numpy as np
import pytest

from fillin.cuts import (
    Cut,
    CutError,
    FamilyInapplicableError,
    cut_i1,
    cut_i2,
    cut_i3,
    cut_i4,
    evaluate,
    lift_chord,
    lift_conditional,
    lift_zero_pad,
    screen_cycle,
)
from fillin.graphs import Cycle, Graph, Point, new_graph
from fillin.oracle import feasible_points
from helpers import (
    all_cycle_sequences,
    cycle_graph,
    fig_graph,
    random_connected_graph,
    reference_cut,
)


def coeffs_by_pair(cut):
    return {cut.graph.fill_pair(f): a for f, a in cut.coeffs.items()}


class TestI1:
    def test_c4(self):
        g = cycle_graph(4)
        cut = cut_i1(g, Cycle((0, 1, 2, 3)))
        assert coeffs_by_pair(cut) == {(0, 2): 1, (1, 3): 1}
        assert cut.rhs == 1

    def test_c5(self):
        g = cycle_graph(5)
        cut = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        assert all(a == 1 for a in cut.coeffs.values())
        assert len(cut.coeffs) == 5
        assert cut.rhs == 2

    def test_path_fragment_conditional_form(self):
        # 5-cycle with exterior pairs {1,2}, {2,3}, {0,4} absent from the graph
        g = Graph(5, [(0, 1), (3, 4)], require_connected=False)
        cut = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        by_pair = coeffs_by_pair(cut)
        assert by_pair == {
            (0, 2): 1, (0, 3): 1, (1, 3): 1, (1, 4): 1, (2, 4): 1,
            (1, 2): -2, (2, 3): -2, (0, 4): -2,
        }
        assert cut.rhs == 2 * (1 - 3)

    def test_interior_edge_rejected(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        with pytest.raises(CutError, match=r"\(0, 2\)"):
            cut_i1(g, Cycle((0, 1, 2, 3)))


class TestI2:
    def test_c6_position_1(self):
        g = cycle_graph(6)
        cut = cut_i2(g, Cycle((0, 1, 2, 3, 4, 5)), 1)
        assert coeffs_by_pair(cut) == {(0, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1}
        assert cut.rhs == 1

    def test_c4_coincides_with_i1(self):
        g = cycle_graph(4)
        c = Cycle((0, 1, 2, 3))
        assert cut_i2(g, c, 0).key() == cut_i1(g, c).key()

    def test_c5_with_missing_exterior_edge(self):
        # C5 sequence over the graph missing edge {1,2}
        g = new_graph(5, [(0, 1), (2, 3), (3, 4), (0, 4)])
        cut = cut_i2(g, Cycle((0, 1, 2, 3, 4)), 0)
        assert coeffs_by_pair(cut) == {(1, 4): 1, (0, 2): 1, (0, 3): 1, (1, 2): -1}
        assert cut.rhs == 0
        for p in feasible_points(g):
            assert evaluate(cut, p) <= 0

    def test_bad_position(self):
        with pytest.raises(CutError, match="position"):
            cut_i2(cycle_graph(5), Cycle((0, 1, 2, 3, 4)), 5)

    def test_real_support_pair_rejected(self):
        # {0,2} is an edge, so position 1 has no valid cut
        g = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        with pytest.raises(CutError, match="support"):
            cut_i2(g, Cycle((0, 1, 2, 3)), 1)

    def test_rotation_symmetry_family(self):
        g = cycle_graph(6)
        c = Cycle((0, 1, 2, 3, 4, 5))
        cuts = [cut_i2(g, c, i) for i in range(6)]
        assert len({cut.key() for cut in cuts}) == 6
        # rotating all vertices by one maps each position's cut to the next
        for i in range(6):
            rotated = {
                tuple(sorted(((u + 1) % 6, (v + 1) % 6))): a
                for (u, v), a in coeffs_by_pair(cuts[i]).items()
            }
            assert rotated == coeffs_by_pair(cuts[(i + 1) % 6])


class TestI3:
    def test_c6(self):
        g = cycle_graph(6)
        cut = cut_i3(g, Cycle((0, 1, 2, 3, 4, 5)))
        assert coeffs_by_pair(cut) == {
            (1, 5): 1, (0, 2): 1, (1, 3): 1, (2, 4): 1, (3, 5): 1, (0, 4): 1,
        }
        assert cut.rhs == 2

    def test_c5_same_support_as_i1(self):
        g = cycle_graph(5)
        c = Cycle((0, 1, 2, 3, 4))
        assert cut_i3(g, c).key() == cut_i1(g, c).key()

    def test_c6_missing_one_exterior_edge(self):
        g = new_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        cut = cut_i3(g, Cycle((0, 1, 2, 3, 4, 5)))
        by_pair = coeffs_by_pair(cut)
        assert by_pair[(0, 1)] == -2
        assert sum(1 for a in by_pair.values() if a == 1) == 6
        assert cut.rhs == 0
        for p in feasible_points(g):
            assert evaluate(cut, p) <= 0

    def test_too_short(self):
        with pytest.raises(FamilyInapplicableError):
            cut_i3(cycle_graph(4), Cycle((0, 1, 2, 3)))


class TestI4:
    def test_c6_example_positions(self):
        g = cycle_graph(6)
        cut = cut_i4(g, Cycle((0, 1, 2, 3, 4, 5)), 4, 1)
        assert coeffs_by_pair(cut) == {
            (0, 3): 1, (0, 4): 1, (1, 3): 1, (1, 5): 1,
            (2, 4): 1, (2, 5): 1, (3, 5): 1,
        }
        assert cut.rhs == 2

    def test_c5_default_positions(self):
        g = cycle_graph(5)
        cut = cut_i4(g, Cycle((0, 1, 2, 3, 4)), 2, 0)
        assert len(cut.coeffs) == 3
        assert cut.rhs == 1
        for p in feasible_points(g):
            assert evaluate(cut, p) <= 0

    def test_c6_with_one_missing_exterior_edge(self):
        g = new_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        cut = cut_i4(g, Cycle((0, 1, 2, 3, 4, 5)), 4, 1)
        by_pair = coeffs_by_pair(cut)
        assert by_pair[(0, 1)] == -2
        assert cut.rhs == 0
        for p in feasible_points(g):
            assert evaluate(cut, p) <= 0

    def test_distance_requirement(self):
        with pytest.raises(FamilyInapplicableError, match="distance"):
            cut_i4(cycle_graph(5), Cycle((0, 1, 2, 3, 4)), 1, 0)

    def test_too_short(self):
        with pytest.raises(FamilyInapplicableError):
            cut_i4(cycle_graph(4), Cycle((0, 1, 2, 3)), 2, 0)


class TestAgainstPairwiseReference:
    def test_builders_match_pair_by_pair_construction(self):
        # the fill-table builders give the same cut, or the same refusal,
        # as building each family from the cycle's exterior/interior pairs
        rng = np.random.default_rng(67)
        builders = {"I1": cut_i1, "I2": cut_i2, "I3": cut_i3, "I4": cut_i4}
        checked = refused = 0
        for _ in range(60):
            n = int(rng.integers(4, 10))
            g = random_connected_graph(rng, n, float(rng.uniform(0.1, 0.6)))
            for _ in range(10):
                k = int(rng.integers(4, n + 1))
                c = Cycle(rng.permutation(n)[:k].tolist())
                specs = [("I1", ()), ("I3", ())]
                specs += [("I2", (i,)) for i in range(k)]
                specs += [("I4", (i, j)) for j in range(k) for i in range(k)
                          if c.dist(i, j) >= 2]
                for family, params in specs:
                    try:
                        ref = reference_cut(g, c, family, params)
                    except CutError as e:
                        with pytest.raises(type(e)):
                            builders[family](g, c, *params)
                        refused += 1
                        continue
                    cut = builders[family](g, c, *params)
                    assert cut.to_line() == ref.to_line()
                    assert (cut.cycle, cut.params) == (ref.cycle, ref.params)
                    checked += 1
        assert checked > 1000 and refused > 1000


class TestScreenCycle:
    BUILDERS = {"I1": cut_i1, "I2": cut_i2, "I3": cut_i3, "I4": cut_i4}

    def test_every_family_and_position_in_order(self):
        g = cycle_graph(6)
        c = Cycle(range(6))
        vals = [0.5] * g.mc
        specs = screen_cycle(g, c, vals, floor=-math.inf)
        assert specs == [("I1", ()), ("I2", (0,)), ("I3", ()), ("I4", (2, 0))]
        for family, params in specs:
            cut = self.BUILDERS[family](g, c, *params)
            assert (cut.family, cut.params) == (family, params or None)
        assert screen_cycle(g, c, vals, ("I2",), floor=-math.inf) == [("I2", (0,))]
        # with I1 enabled, the copies of I1 (I2 on a 4-cycle, I3 on a
        # 5-cycle) are not listed
        c4, c5 = cycle_graph(4), cycle_graph(5)
        assert screen_cycle(c4, Cycle(range(4)), [0.5] * 2, floor=-math.inf) == [
            ("I1", ())]
        assert screen_cycle(c4, Cycle(range(4)), [0.5] * 2, ("I2",),
                            floor=-math.inf) == [("I2", (0,))]
        assert screen_cycle(c5, Cycle(range(5)), [0.5] * 5, floor=-math.inf) == [
            ("I1", ()), ("I2", (0,)), ("I4", (2, 0))]
        assert screen_cycle(c5, Cycle(range(5)), [0.5] * 5, ("I2", "I3", "I4"),
                            floor=-math.inf) == [("I2", (0,)), ("I3", ()), ("I4", (2, 0))]

    def test_screened_violation_is_the_builders(self):
        # each family's closed-form violation is evaluate on the built cut,
        # to rounding error, at integer and fractional points
        rng = np.random.default_rng(71)
        checked = 0
        for trial in range(120):
            n = int(rng.integers(4, 10))
            g = random_connected_graph(rng, n, float(rng.uniform(0.1, 0.6)))
            for _ in range(10):
                k = int(rng.integers(4, n + 1))
                c = Cycle(rng.permutation(n)[:k].tolist()).canonical()
                if trial % 2:
                    vals = rng.random(g.mc).tolist()
                else:
                    vals = rng.integers(0, 2, g.mc).tolist()
                # one family at a time: with all enabled, I2 on a 4-cycle
                # and I3 on a 5-cycle are left to I1
                specs = [spec for family in self.BUILDERS
                         for spec in screen_cycle(g, c, vals, (family,), -math.inf)]
                for family, params in specs:
                    try:
                        v = evaluate(self.BUILDERS[family](g, c, *params), vals)
                    except CutError:
                        continue
                    spec = (family, params)
                    assert spec in screen_cycle(g, c, vals, (family,), v - 1e-9)
                    assert spec not in screen_cycle(g, c, vals, (family,), v + 1e-9)
                    checked += 1
        assert checked > 1000


class TestLiftZeroPad:
    def test_c4_into_host(self):
        sub = cycle_graph(4)
        host = new_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)])
        cut = cut_i1(sub, Cycle((0, 1, 2, 3)))
        lifted = lift_zero_pad(cut, {0: 0, 1: 1, 2: 2, 3: 3}, host)
        assert coeffs_by_pair(lifted) == {(0, 2): 1, (1, 3): 1}
        assert lifted.rhs == 1
        for p in feasible_points(host):
            assert evaluate(lifted, p) <= 0

    def test_preserves_violation_of_padded_points(self):
        sub = cycle_graph(4)
        host = new_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
        cut = cut_i1(sub, Cycle((0, 1, 2, 3)))
        lifted = lift_zero_pad(cut, {0: 0, 1: 1, 2: 2, 3: 3}, host)
        rng = np.random.default_rng(2)
        for _ in range(10):
            xs = Point(rng.random(sub.mc))
            xh = np.zeros(host.mc)
            for f in range(sub.mc):
                u, v = sub.fill_pair(f)
                xh[host.fill_index(u, v)] = xs.values[f]
            assert evaluate(lifted, Point(xh)) == pytest.approx(evaluate(cut, xs))

    def test_mapped_pair_is_host_edge(self):
        sub = cycle_graph(4)
        host = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        cut = cut_i1(sub, Cycle((0, 1, 2, 3)))
        with pytest.raises(CutError, match="edge of the supergraph"):
            lift_zero_pad(cut, {0: 0, 1: 1, 2: 2, 3: 3}, host)

    def test_non_injective_map(self):
        sub = cycle_graph(4)
        cut = cut_i1(sub, Cycle((0, 1, 2, 3)))
        with pytest.raises(CutError, match="injective"):
            lift_zero_pad(cut, {0: 0, 1: 1, 2: 2, 3: 0}, cycle_graph(6))

    def test_zero_cut(self):
        sub = cycle_graph(4)
        lifted = lift_zero_pad(Cut(sub, {}, 0, "LIFTED"), {0: 0, 1: 1, 2: 2, 3: 3},
                               cycle_graph(6))
        assert lifted.coeffs == {} and lifted.rhs == 0


class TestLiftConditional:
    def test_empty_missing_is_identity(self):
        g = cycle_graph(5)
        cut = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        out = lift_conditional(cut, [])
        assert out.key() == cut.key()

    def test_path_fragment_from_cycle(self):
        g = cycle_graph(5)
        base = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        out = lift_conditional(base, [(1, 2), (2, 3), (4, 0)])
        direct = cut_i1(
            Graph(5, [(0, 1), (3, 4)], require_connected=False),
            Cycle((0, 1, 2, 3, 4)),
        )
        assert coeffs_by_pair(out) == coeffs_by_pair(direct)
        assert out.rhs == direct.rhs == -4

    def test_i3_on_c6_one_missing(self):
        g = cycle_graph(6)
        base = cut_i3(g, Cycle((0, 1, 2, 3, 4, 5)))
        out = lift_conditional(base, [(0, 1)])
        assert coeffs_by_pair(out)[(0, 1)] == -2
        assert out.rhs == 0

    def test_all_missing_present_reproduces_violation(self):
        g = cycle_graph(5)
        base = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        out = lift_conditional(base, [(1, 2), (2, 3), (4, 0)])
        sparse = out.graph
        rng = np.random.default_rng(4)
        for _ in range(10):
            xb = rng.random(g.mc)
            xs = np.zeros(sparse.mc)
            for f in range(g.mc):
                xs[sparse.fill_index(*g.fill_pair(f))] = xb[f]
            for p in [(1, 2), (2, 3), (0, 4)]:
                xs[sparse.fill_index(*p)] = 1.0
            assert evaluate(out, Point(xs)) == pytest.approx(evaluate(base, Point(xb)))

    def test_negative_coefficient_rejected(self):
        g = cycle_graph(5)
        cut = Cut(g, {0: -1}, 0, "LIFTED")
        with pytest.raises(CutError, match="nonnegative"):
            lift_conditional(cut, [(0, 1)])

    def test_non_edge_rejected(self):
        g = cycle_graph(5)
        cut = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        with pytest.raises(CutError, match="not an edge"):
            lift_conditional(cut, [(0, 2)])


class TestLiftChord:
    def test_subcycle_through_chord_on_c5(self):
        g = cycle_graph(5)
        base = Cut(g, {g.fill_index(1, 3): 1, g.fill_index(2, 4): 1}, 1, "I1")
        out = lift_chord(base, g.fill_index(1, 4))
        assert coeffs_by_pair(out) == {(1, 3): 1, (2, 4): 1, (1, 4): -1}
        assert out.rhs == 0
        for p in feasible_points(g):
            assert evaluate(out, p) <= 0

    def test_zero_rhs_input(self):
        g = cycle_graph(5)
        base = Cut(g, {0: 1}, 0, "I1")
        out = lift_chord(base, 1)
        assert out.coeffs == {0: 1} and out.rhs == 0

    def test_length4_subcycle_of_c6(self):
        g = cycle_graph(6)
        base = Cut(g, {g.fill_index(0, 2): 1, g.fill_index(1, 3): 1}, 1, "I1")
        out = lift_chord(base, g.fill_index(0, 3))
        assert coeffs_by_pair(out) == {(0, 2): 1, (1, 3): 1, (0, 3): -1}
        for p in feasible_points(g):
            assert evaluate(out, p) <= 0

    def test_chord_collision(self):
        g = cycle_graph(5)
        base = Cut(g, {0: 1, 1: 1}, 1, "I1")
        with pytest.raises(CutError, match="collides"):
            lift_chord(base, 0)


class TestEvaluate:
    def test_i1_c4_points(self):
        g = cycle_graph(4)
        cut = cut_i1(g, Cycle((0, 1, 2, 3)))
        assert evaluate(cut, Point(np.array([0.0, 0.0]))) == 1
        assert evaluate(cut, Point(np.array([1.0, 0.0]))) == 0

    def test_conditional_cut_arithmetic(self):
        g = cycle_graph(5)
        base = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        out = lift_conditional(base, [(1, 2), (2, 3), (4, 0)])
        sparse = out.graph
        x = np.zeros(sparse.mc)
        for p in [(1, 2), (2, 3), (0, 4)]:
            x[sparse.fill_index(*p)] = 1.0
        assert evaluate(out, Point(x)) == 2

    def test_integer_points_evaluate_exactly(self):
        g = cycle_graph(5)
        cut = cut_i1(g, Cycle((0, 1, 2, 3, 4)))
        v = evaluate(cut, Point(np.array([1.0, 1.0, 0.0, 0.0, 0.0])))
        assert isinstance(v, int)
        assert v == 0

    def test_dimension_mismatch(self):
        g = cycle_graph(4)
        cut = cut_i1(g, Cycle((0, 1, 2, 3)))
        with pytest.raises(CutError, match="dimension"):
            evaluate(cut, Point(np.zeros(5)))


class TestCutPlumbing:
    def test_structural_dedupe_key(self):
        g = cycle_graph(5)
        c = Cycle((0, 1, 2, 3, 4))
        assert cut_i1(g, c).key() == cut_i3(g, c).key()
        assert cut_i1(g, c).key() != cut_i2(g, c, 0).key()

    def test_key_is_built_once(self):
        c = cut_i1(cycle_graph(5), Cycle((0, 1, 2, 3, 4)))
        assert c.key() is c.key()

    def test_to_line_lists_exact_integer_terms(self):
        g = new_graph(5, [(0, 1), (2, 3), (3, 4), (0, 4)])
        cut = cut_i2(g, Cycle((0, 1, 2, 3, 4)), 0)
        family, rhs, k, *terms = cut.to_line().split()
        assert (family, int(rhs), int(k)) == ("I2", cut.rhs, len(cut.coeffs))
        assert terms == [f"{f}:{a}" for f, a in cut.coeffs.items()]

    def test_zero_coefficients_dpropped(self):
        g = cycle_graph(4)
        cut = Cut(g, {0: 0, 1: 2}, 1, "LIFTED")
        assert cut.coeffs == {1: 2}

    def test_non_integer_coefficient_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(CutError, match="integer"):
            Cut(g, {0: 1.5}, 1, "LIFTED")


def _suite_graphs():
    yield cycle_graph(4)
    yield cycle_graph(5)
    yield cycle_graph(6)
    yield cycle_graph(7)
    # paths that close into cycles: one exterior edge of C5/C6 missing
    yield new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    yield new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    yield fig_graph()
    rng = np.random.default_rng(17)
    for _ in range(12):
        yield random_connected_graph(rng, int(rng.integers(4, 8)),
                                     float(rng.uniform(0.25, 0.7)))


def _generated_cuts(g, cycles_cap=200):
    count = 0
    for cyc in all_cycle_sequences(g.n):
        count += 1
        if count > cycles_cap:
            return
        try:
            yield cut_i1(g, cyc)
        except CutError:
            pass
        for i in range(len(cyc)):
            try:
                yield cut_i2(g, cyc, i)
            except CutError:
                pass
        if len(cyc) >= 5:
            yield cut_i3(g, cyc)
            for j in range(len(cyc)):
                for i in range(len(cyc)):
                    if cyc.dist(i, j) >= 2:
                        yield cut_i4(g, cyc, i, j)


class TestValiditySuite:
    @pytest.mark.parametrize("gi", range(19))
    def test_no_cut_violates_any_completion(self, gi):
        g = list(_suite_graphs())[gi]
        pts = feasible_points(g)
        matrix = np.array([np.rint(p.values).astype(int) for p in pts])
        for cut in _generated_cuts(g):
            a = np.zeros(g.mc, dtype=int)
            for f, coef in cut.coeffs.items():
                a[f] = coef
            lhs = matrix @ a
            assert (lhs >= cut.rhs).all(), f"{cut} violated on graph {gi}"


class TestFacetRanks:
    def _tight_rank(self, g, cut):
        pts = feasible_points(g)
        tight = [p for p in pts if evaluate(cut, p) == 0]
        from fillin.oracle import affine_rank
        return affine_rank(tight)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_i1_is_facet_on_cycles(self, k):
        g = cycle_graph(k)
        cut = cut_i1(g, Cycle(tuple(range(k))))
        assert self._tight_rank(g, cut) == g.mc - 1

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_i2_position1_is_facet_on_cycles(self, k):
        g = cycle_graph(k)
        cut = cut_i2(g, Cycle(tuple(range(k))), 1)
        assert self._tight_rank(g, cut) == g.mc - 1

    @pytest.mark.parametrize("k", [5, 6])
    def test_i3_is_facet_on_cycles(self, k):
        g = cycle_graph(k)
        cut = cut_i3(g, Cycle(tuple(range(k))))
        assert self._tight_rank(g, cut) == g.mc - 1

    @pytest.mark.parametrize("k", [5, 6])
    def test_i4_is_facet_on_cycles(self, k):
        g = cycle_graph(k)
        cut = cut_i4(g, Cycle(tuple(range(k))), 2, 0)
        assert self._tight_rank(g, cut) == g.mc - 1

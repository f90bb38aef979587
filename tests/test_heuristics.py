import numpy as np
import pytest

from fillin.graphs import Point, is_chordal, is_valid_completion, new_graph
from fillin.heuristics import (
    chordalize_with_order,
    mdo_completion,
    mdo_order,
    primal_repair,
)
from fillin.oracle import brute_force_mccp
from helpers import (
    CHORDAL_TRAP_EDGES,
    chordal_trap_graph,
    complete_graph,
    cycle_graph,
    fig_graph,
    path_graph,
    random_connected_graph,
)


class TestMdoOrder:
    def test_fig_graph_order(self):
        assert mdo_order(fig_graph()) == (0, 2, 4, 1, 3)

    def test_path3_endpoints_first(self):
        assert mdo_order(path_graph(3)) == (0, 2, 1)

    def test_complete_graph_identity(self):
        assert mdo_order(complete_graph(5)) == (0, 1, 2, 3, 4)

    def test_static_degrees(self):
        # a star center keeps its big degree even after leaves are eliminated
        g = new_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        order = mdo_order(g)
        assert order[-1] == 0


class TestChordalize:
    def test_fig_graph_with_mdo_order_is_optimal(self):
        g = fig_graph()
        fill = chordalize_with_order(g, (0, 2, 4, 1, 3))
        assert fill == {g.fill_index(1, 3)}
        assert len(fill) == len(brute_force_mccp(g))

    def test_chordal_input_with_its_peo(self):
        g = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        ok, peo = is_chordal(g)
        assert ok
        assert chordalize_with_order(g, peo) == frozenset()

    def test_c4_any_ordering_one_diagonal(self):
        from itertools import permutations

        g = cycle_graph(4)
        for order in permutations(range(4)):
            fill = chordalize_with_order(g, order)
            assert len(fill) == 1

    def test_always_valid_completion(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(4, 10)),
                                       float(rng.uniform(0.2, 0.8)))
            order = tuple(rng.permutation(g.n))
            assert is_valid_completion(g, chordalize_with_order(g, order))

    def test_needs_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            chordalize_with_order(cycle_graph(4), (0, 1, 2, 2))

    def test_chordal_input_gets_no_fill(self):
        g = chordal_trap_graph()
        assert is_chordal(g)[0]
        assert chordalize_with_order(g, mdo_order(g))  # the order alone adds fill
        assert mdo_completion(g) == frozenset()

    def test_never_beats_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            g = random_connected_graph(rng, int(rng.integers(4, 8)), 0.4)
            assert len(mdo_completion(g)) >= len(brute_force_mccp(g))


class TestPrimalRepair:
    def test_already_chordal_fill_returned_asis(self):
        g = fig_graph()
        x = Point.from_fill(g, [g.fill_index(1, 3)])
        assert primal_repair(g, x) == {g.fill_index(1, 3)}

    def test_chordal_completed_graph_returned_asis(self):
        # g + E(x) is the chordal trap graph, where the static order adds fill
        g = new_graph(7, [e for e in CHORDAL_TRAP_EDGES if e != (2, 3)])
        assert not is_chordal(g)[0]
        x = Point.from_fill(g, [g.fill_index(2, 3)])
        assert primal_repair(g, x) == {g.fill_index(2, 3)}

    def test_c5_from_zero_matches_mdo(self):
        g = cycle_graph(5)
        repaired = primal_repair(g, Point.zeros(g))
        assert repaired == mdo_completion(g)
        assert len(repaired) == 2  # the optimum for a 5-cycle

    def test_contains_the_given_fill(self):
        g = fig_graph()
        start = frozenset({g.fill_index(0, 2)})
        repaired = primal_repair(g, Point.from_fill(g, start))
        assert start <= repaired
        assert len(repaired) >= 2
        assert is_valid_completion(g, repaired)

    def test_rejects_fractional_points(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="integral"):
            primal_repair(g, Point(np.array([0.5, 0.0])))

    def test_always_valid_and_deterministic(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(4, 9)), 0.3)
            x = Point((rng.random(g.mc) < 0.3).astype(float))
            a = primal_repair(g, x)
            b = primal_repair(g, x)
            assert a == b
            assert x.fill_set() <= a
            assert is_valid_completion(g, a)

import tracemalloc
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillin.graphs import (
    Cycle,
    Graph,
    GraphError,
    Point,
    apply_completion,
    is_chordal,
    is_valid_completion,
    iter_chordless_cycles,
    new_graph,
)
from helpers import (
    complete_graph,
    cycle_graph,
    ext_pairs,
    fig_graph,
    find_chordless_cycle,
    int_pairs,
    missing_ext,
    neighbours,
    random_connected_graph,
    reference_chordless_cycles,
)


class TestConstruction:
    def test_fig_graph_counts(self):
        g = fig_graph()
        assert g.n == 5
        assert g.m == 6
        assert g.mc == 4

    def test_triangle_has_no_fill(self):
        g = new_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.mc == 0

    def test_c4_fill_indexing(self):
        g = cycle_graph(4)
        assert g.mc == 2
        assert g.fill_edges == ((0, 2), (1, 3))
        assert g.fill_index(2, 0) == 0
        assert g.fill_index(1, 3) == 1
        assert g.fill_pair(1) == (1, 3)

    def test_fill_index_bijection(self):
        g = fig_graph()
        for i, pair in enumerate(g.fill_edges):
            assert g.fill_index(*pair) == i
            assert g.fill_pair(i) == pair
            assert pair not in g.edges

    def test_views_agree_with_the_edge_list(self):
        # adjacency is stored once, as masks; every view of it agrees with a
        # reference built from the edge list
        rng = np.random.default_rng(167)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            pairs = list(combinations(range(n), 2))
            listed = [pairs[i] for i in rng.permutation(len(pairs))[
                :int(rng.integers(0, len(pairs) + 1))]]
            g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in listed],
                      require_connected=False)
            edges = frozenset(listed)
            fill = tuple(p for p in pairs if p not in edges)
            assert g.edges == edges and g.edges is g.edges  # derived once, then kept
            assert (g.m, g.mc, g.fill_edges) == (len(edges), len(fill), fill)
            assert [g.fill_pair(i) for i in range(g.mc)] == list(fill)
            assert all(g.fill_index(*p) == i for i, p in enumerate(fill))
            for u in range(-1, n + 1):
                for v in range(-1, n + 1):
                    assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
            same = Graph(n, sorted(edges), require_connected=False)
            assert same == g and hash(same) == hash(g)
            if fill:
                other = Graph(n, sorted(edges | {fill[0]}), require_connected=False)
                assert other != g and other.edges != g.edges

    def test_has_edge_takes_numpy_integers_past_63_vertices(self):
        g = Graph(70, [(68, 69), (1, 69)], require_connected=False)
        assert g.has_edge(np.int64(68), np.int64(69)) and g.has_edge(np.int64(69), 1)
        assert not g.has_edge(np.int64(67), np.int64(69))

    @pytest.mark.parametrize("n, edges", [(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
                                          (70, [(v, v + 1) for v in range(69)])])
    def test_a_numpy_edge_array_gives_the_same_graph(self, n, edges):
        # past 63 vertices too, where numpy masks would overflow int64
        g, listed = new_graph(n, np.array(edges)), new_graph(n, edges)
        assert g == listed and g.edges == listed.edges
        assert (g.mc, g.fill_table, g.fill_edges) == (listed.mc, listed.fill_table,
                                                      listed.fill_edges)
        assert all(type(mask) is int for mask in g.adj_mask)

    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(GraphError, match=r"edge \(0, 1.5\) has a non-integer endpoint"):
            new_graph(3, [(0, 1.5), (1, 2)])

    def test_a_12_vertex_graph_takes_under_2_kb(self):
        # the fill table (a tuple of n * n indices) is most of it
        rng = np.random.default_rng(173)
        specs = [[(u, v) for u, v in combinations(range(12), 2)
                  if v == u + 1 or rng.random() < rng.uniform(0.2, 0.5)]
                 for _ in range(200)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graphs = [new_graph(12, edges) for edges in specs]
            per_graph = (tracemalloc.get_traced_memory()[0] - before) / len(graphs)
        finally:
            tracemalloc.stop()
        assert per_graph < 2048

    def test_duplicate_edges_collapse(self):
        g = new_graph(3, [(0, 1), (1, 0), (1, 2), (0, 2)])
        assert g.m == 3

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            new_graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            new_graph(3, [(0, 3)])

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            new_graph(4, [(0, 1), (2, 3)])

    def test_not_a_fill_edge(self):
        g = cycle_graph(4)
        with pytest.raises(GraphError, match="not a fill edge"):
            g.fill_index(0, 1)

    @pytest.mark.parametrize("u, v", [(-1, 1), (1, -1), (-2, -4), (0, 4), (4, 0),
                                      (5, 2), (0, 1), (3, 0), (2, 2)])
    def test_fill_index_rejects_non_fill_pairs(self, u, v):
        # negative, out-of-range, real edges and the diagonal: none may wrap
        # around the flat n*n table into another pair's index
        g = cycle_graph(4)
        with pytest.raises(GraphError, match="not a fill edge"):
            g.fill_index(u, v)


class TestChordality:
    def test_fig_graph_not_chordal(self):
        ok, order = is_chordal(fig_graph())
        assert not ok
        assert order is None

    def test_fig_graph_plus_13_chordal(self):
        g = fig_graph()
        ok, order = is_chordal(apply_completion(g, [g.fill_index(1, 3)]))
        assert ok
        assert sorted(order) == list(range(5))

    def test_complete_graph_chordal(self):
        ok, _ = is_chordal(complete_graph(5))
        assert ok

    def test_peo_witness_is_valid(self):
        g = apply_completion(cycle_graph(6), [0, 1])  # two chords from v0
        ok, order = is_chordal(g)
        if not ok:
            return
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [u for u in neighbours(g, v) if pos[u] > pos[v]]
            for i, a in enumerate(later):
                for b in later[i + 1:]:
                    assert g.has_edge(a, b)


class TestChordlessCycles:
    def test_c4_returns_itself(self):
        cyc = find_chordless_cycle(cycle_graph(4))
        assert cyc.vertices == (0, 1, 2, 3)

    def test_fig_graph_returns_one_of_three(self):
        cyc = find_chordless_cycle(fig_graph())
        expected = {(0, 1, 2, 3), (1, 2, 3, 4), (0, 1, 4, 3)}
        assert cyc.canonical().vertices in expected

    def test_fig_graph_all_three_found(self):
        cycles = {c.vertices for c in iter_chordless_cycles(fig_graph())}
        assert cycles == {(0, 1, 2, 3), (1, 2, 3, 4), (0, 1, 4, 3)}

    def test_chordal_graph_returns_none(self):
        g = apply_completion(fig_graph(), [fig_graph().fill_index(1, 3)])
        assert find_chordless_cycle(g) is None

    def test_cycle_structure_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(4, 9)), 0.4)
            for cyc in iter_chordless_cycles(g):
                assert len(cyc) >= 4
                for p in ext_pairs(cyc):
                    assert p in g.edges
                for p in int_pairs(cyc):
                    assert p not in g.edges

    def test_cycles_are_yielded_canonical(self):
        # separation hands the cycles to the builders as they come
        rng = np.random.default_rng(31)
        seen = 0
        for _ in range(60):
            n = int(rng.integers(4, 13))
            g = random_connected_graph(rng, n, float(rng.uniform(0.1, 0.5)))
            fill = [f for f in range(g.mc) if rng.random() < 0.2]
            for c in iter_chordless_cycles(g, fill):
                assert c.canonical() is c
                seen += 1
        assert seen > 200

    def test_same_sequence_as_per_triple_search(self):
        # one BFS per (v, w) must reproduce the per-triple search exactly,
        # on the graph itself and on completions given as fill indices
        rng = np.random.default_rng(23)
        for _ in range(120):
            n = int(rng.integers(4, 17))
            g = random_connected_graph(rng, n, float(rng.uniform(0.1, 0.5)))
            share = rng.uniform(0, 0.3)
            fill = [f for f in range(g.mc) if rng.random() < share]
            assert list(iter_chordless_cycles(g)) == list(reference_chordless_cycles(g))
            assert list(iter_chordless_cycles(g, fill)) == list(
                reference_chordless_cycles(apply_completion(g, fill)))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(4, 10).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
    def test_networkx_cross_check(self, case):
        n, edge_bits, fill_bits = case
        pairs = combinations(range(n), 2)
        g = Graph(n, [p for p, on in zip(pairs, edge_bits) if on], require_connected=False)
        fill = [f for f in range(g.mc) if fill_bits[f]]
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        h.add_edges_from(g.fill_pair(f) for f in fill)
        cycles = list(iter_chordless_cycles(g, fill))
        for cyc in cycles:
            induced = {tuple(sorted(e)) for e in h.subgraph(cyc.vertices).edges}
            assert induced == set(ext_pairs(cyc))
        assert (not cycles) == nx.is_chordal(h)
        assert is_valid_completion(g, fill) == nx.is_chordal(h)
        assert is_chordal(apply_completion(g, fill))[0] == nx.is_chordal(h)

    def test_agreement_with_chordality(self):
        # the two independent procedures must agree on every small graph
        rng = np.random.default_rng(11)
        for _ in range(80):
            g = random_connected_graph(rng, int(rng.integers(4, 9)),
                                       float(rng.uniform(0.2, 0.8)))
            ok, _ = is_chordal(g)
            assert ok == (find_chordless_cycle(g) is None)


class TestCompletionOps:
    def test_apply_completion_adds_edges(self):
        g = cycle_graph(4)
        h = apply_completion(g, [0])
        assert h.m == g.m + 1
        assert g.m == 4  # original untouched
        ok, _ = is_chordal(h)
        assert ok

    def test_fig_graph_minimal_completion(self):
        g = fig_graph()
        fill = [g.fill_index(0, 2), g.fill_index(2, 4), g.fill_index(0, 4)]
        ok, _ = is_chordal(apply_completion(g, fill))
        assert ok

    def test_empty_completion_is_identity(self):
        g = fig_graph()
        assert apply_completion(g, []) == g

    def test_out_of_range_fill_index(self):
        with pytest.raises(GraphError, match="out of range"):
            apply_completion(cycle_graph(4), [5])

    def test_is_valid_completion_fig(self):
        g = fig_graph()
        assert is_valid_completion(g, [g.fill_index(1, 3)])

    def test_c5_single_chord_insufficient(self):
        g = cycle_graph(5)
        for i in range(g.mc):
            assert not is_valid_completion(g, [i])

    def test_c5_fan_completion(self):
        g = cycle_graph(5)
        fill = [g.fill_index(0, 2), g.fill_index(0, 3)]
        assert is_valid_completion(g, fill)
        # cross-check against every subset of the five chords
        sizes = [
            len(sub)
            for mask in range(32)
            for sub in [[i for i in range(5) if (mask >> i) & 1]]
            if is_valid_completion(g, sub)
        ]
        assert min(sizes) == 2

    def test_full_complement_always_chordal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(4, 9)), 0.3)
            assert is_valid_completion(g, range(g.mc))


class TestCycleType:
    def test_needs_four_distinct_vertices(self):
        with pytest.raises(GraphError):
            Cycle((0, 1, 2))
        with pytest.raises(GraphError):
            Cycle((0, 1, 2, 1))

    def test_ext_int_partition(self):
        c = Cycle((0, 1, 2, 3, 4))
        ext, inte = set(ext_pairs(c)), set(int_pairs(c))
        assert not ext & inte
        assert len(ext) == 5
        assert len(ext) + len(inte) == 10

    def test_cyclic_distance(self):
        c = Cycle((0, 1, 2, 3, 4, 5))
        assert c.dist(0, 1) == 1
        assert c.dist(0, 3) == 3
        assert c.dist(1, 5) == 2

    def test_canonical_idempotent(self):
        c = Cycle((4, 2, 0, 3, 1))
        assert c.canonical().canonical() == c.canonical()

    def test_canonical_cycle_is_returned_as_is(self):
        c = Cycle((0, 1, 3, 4, 2))
        assert c.canonical() is c
        assert Cycle((0, 2, 4, 3, 1)).canonical() == c
        assert Cycle((1, 3, 4, 2, 0)).canonical() == c

    def test_rotations_and_reflections_canonicalize_identically(self):
        base = (2, 5, 1, 4, 0, 3)
        canon = Cycle(base).canonical()
        for shift in range(len(base)):
            rot = base[shift:] + base[:shift]
            assert Cycle(rot).canonical() == canon
            assert Cycle(tuple(reversed(rot))).canonical() == canon

    def test_missing_ext(self):
        g = new_graph(5, [(0, 1), (2, 3), (3, 4), (4, 0), (1, 2)])
        c = Cycle((0, 1, 2, 3, 4))
        assert missing_ext(c, g) == []
        h = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert missing_ext(c, h) == [(0, 4)]


class TestPoint:
    def test_integrality(self):
        assert Point(np.array([0.0, 1.0, 1.0])).is_integral()
        assert Point(np.array([0.0, 1.0 - 1e-8])).is_integral()
        assert not Point(np.array([0.5, 1.0])).is_integral()

    def test_fill_set(self):
        assert Point(np.array([1.0, 0.0, 1.0])).fill_set() == {0, 2}
        with pytest.raises(GraphError):
            Point(np.array([0.4])).fill_set()

    def test_from_fill_roundtrip(self):
        g = cycle_graph(5)
        p = Point.from_fill(g, [1, 3])
        assert p.fill_set() == {1, 3}

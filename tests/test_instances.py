import importlib.resources as importlib_resources
import inspect
import re

import networkx as nx
import pytest

from fillin.graphs import GraphError, is_chordal, new_graph
from fillin.instances import (
    InstanceError,
    gen_caveman,
    gen_grid,
    gen_mycielski,
    gen_queen,
    load_completion,
    load_instance,
    parse_dimacs,
    parse_edgelist,
    save_instance,
    serialize_dimacs,
    serialize_edgelist,
)

DATA = importlib_resources.files("fillin") / "data"


class TestGrid:
    @pytest.mark.parametrize("r,c,n,m", [(3, 3, 9, 12), (3, 4, 12, 17),
                                         (4, 4, 16, 24), (3, 6, 18, 27)])
    def test_sizes(self, r, c, n, m):
        g = gen_grid(r, c)
        assert (g.n, g.m) == (n, m)

    def test_2x2_is_a_4cycle(self):
        g = gen_grid(2, 2)
        assert (g.n, g.m) == (4, 4)
        ok, _ = is_chordal(g)
        assert not ok

    def test_edge_structure(self):
        g = gen_grid(3, 3)
        assert g.has_edge(0, 1) and g.has_edge(0, 3)
        assert not g.has_edge(0, 4)  # no diagonals

    def test_degenerate_dims(self):
        with pytest.raises(InstanceError):
            gen_grid(1, 5)


class TestQueen:
    @pytest.mark.parametrize("r,c,n,m", [(3, 3, 9, 28), (3, 4, 12, 46),
                                         (3, 5, 15, 67), (4, 4, 16, 76)])
    def test_sizes(self, r, c, n, m):
        g = gen_queen(r, c)
        assert (g.n, g.m) == (n, m)

    def test_2x2_is_complete(self):
        g = gen_queen(2, 2)
        assert g.m == 6

    def test_corner_degree(self):
        # corner of an n x n board attacks n-1 cells each on its row,
        # column, and single usable diagonal
        for n in (3, 4, 5):
            g = gen_queen(n, n)
            assert g.adj_mask[0].bit_count() == 3 * (n - 1)

    def test_degenerate_dims(self):
        with pytest.raises(InstanceError):
            gen_queen(2, 1)


class TestCaveman:
    def test_edge_count_preserved(self):
        for seed in range(5):
            g = gen_caveman(4, 4, 0.30, seed=seed)
            assert g.n == 16
            assert g.m == 4 * 6

    def test_beta_one_returns_clique(self):
        g = gen_caveman(5, 1, 0.30, seed=1)
        assert g.m == 10
        ok, _ = is_chordal(g)
        assert ok

    def test_deterministic_for_fixed_seed(self):
        a = gen_caveman(5, 4, 0.3, seed=42)
        b = gen_caveman(5, 4, 0.3, seed=42)
        assert a.edges == b.edges
        c = gen_caveman(5, 4, 0.3, seed=43)
        assert a.edges != c.edges  # overwhelmingly likely

    def test_connected_always(self):
        for seed in range(10):
            g = gen_caveman(4, 5, 0.25, seed=seed)
            assert g.is_connected()

    def test_param_validation(self):
        with pytest.raises(InstanceError):
            gen_caveman(1, 3, 0.3)
        with pytest.raises(InstanceError):
            gen_caveman(4, 0, 0.3)
        with pytest.raises(InstanceError):
            gen_caveman(4, 4, 0.0)
        with pytest.raises(InstanceError):
            gen_caveman(4, 4, 1.0)

    def test_retry_budget(self):
        with pytest.raises(InstanceError, match="connected"):
            gen_caveman(4, 4, 0.3, seed=0, max_retries=0)


class TestMycielski:
    @pytest.mark.parametrize("k, n, m", [(2, 5, 5), (3, 11, 20), (4, 23, 71), (5, 47, 236)])
    def test_sizes(self, k, n, m):
        g = gen_mycielski(k)
        assert (g.n, g.m) == (n, m)

    @pytest.mark.parametrize("k", [3, 4])
    def test_isomorphic_to_the_vendored_file(self, k):
        def nx_graph(g):
            h = nx.Graph(sorted(g.edges))
            h.add_nodes_from(range(g.n))
            return h
        vendored = parse_dimacs((DATA / f"myciel{k}.col").read_text())
        assert nx.is_isomorphic(nx_graph(gen_mycielski(k)), nx_graph(vendored))

    def test_degenerate_k(self):
        with pytest.raises(InstanceError):
            gen_mycielski(1)


class TestDimacs:
    def test_parse_basic(self):
        text = "c a comment\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
        g = parse_dimacs(text)
        assert (g.n, g.m) == (4, 4)
        assert g.has_edge(0, 1) and g.has_edge(0, 3)

    def test_vendored_myciel3(self):
        g = parse_dimacs((DATA / "myciel3.col").read_text())
        assert (g.n, g.m) == (11, 20)

    def test_vendored_myciel4(self):
        g = parse_dimacs((DATA / "myciel4.col").read_text())
        assert (g.n, g.m) == (23, 71)

    def test_duplicate_edges_warn(self):
        text = "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\ne 1 3\n"
        with pytest.warns(UserWarning, match="duplicate"):
            g = parse_dimacs(text)
        assert g.m == 3

    def test_declared_count_mismatch_warns(self):
        with pytest.warns(UserWarning, match="declares"):
            parse_dimacs("p edge 3 5\ne 1 2\ne 2 3\ne 1 3\n")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(InstanceError, match="line 2"):
            parse_dimacs("p edge 3 1\ne 1 9\n")
        with pytest.raises(InstanceError, match="line 1"):
            parse_dimacs("e 1 2\n")
        with pytest.raises(InstanceError, match="line 3"):
            parse_dimacs("c x\np edge 3 1\ne 1\n")
        with pytest.raises(InstanceError, match="missing problem line"):
            parse_dimacs("c nothing here\n")

    @pytest.mark.parametrize("text, line", [
        ("c x\np edge three 1\ne 1 2\n", 2),
        ("p edge 3 1.5\ne 1 2\n", 1),
        ("p edge 3 1\ne 1 b\n", 2),
    ])
    def test_non_integer_field_names_its_line(self, text, line):
        with pytest.raises(InstanceError, match=f"line {line}: non-integer"):
            parse_dimacs(text)

    @pytest.mark.parametrize("text, line", [
        ("p edge 2 1\ne 1 2\np edge 1 0\n", 3),  # shrinks past a checked edge
        ("p edge 3 2\ne 1 2\np edge 5 2\ne 4 5\n", 3),  # grows to admit one
        ("c x\np edge 3 2\np edge 3 2\ne 1 2\ne 2 3\n", 3),
    ])
    def test_second_problem_line_names_its_line(self, text, line):
        with pytest.raises(InstanceError, match=f"line {line}: second problem line"):
            parse_dimacs(text)

    def test_empty_edge_graph_rejected_as_disconnected(self):
        with pytest.raises(Exception, match="disconnected"):
            parse_dimacs("p edge 3 0\n")

    def test_roundtrip(self):
        g = gen_grid(3, 3)
        back = parse_dimacs(serialize_dimacs(g, comment="roundtrip"))
        assert back.edges == g.edges and back.n == g.n


class TestEdgeList:
    def test_roundtrip(self):
        g = gen_queen(3, 3)
        back = parse_edgelist(serialize_edgelist(g))
        assert back.edges == g.edges and back.n == g.n

    def test_header_mismatch(self):
        with pytest.raises(InstanceError, match="declares"):
            parse_edgelist("3 2\n0 1\n")

    def test_malformed(self):
        with pytest.raises(InstanceError, match="header"):
            parse_edgelist("3\n0 1\n")

    def test_errors_name_the_file_line(self):
        # comments and blank lines count: the bad edge is on line 5
        with pytest.raises(InstanceError, match="line 5:"):
            parse_edgelist("# c\n\n3 2\n0 1\n1 2 3\n")
        with pytest.raises(InstanceError, match="line 2: expected header"):
            parse_edgelist("# c\n3\n0 1\n")

    @pytest.mark.parametrize("text, line", [
        ("3 two\n0 1\n1 2\n", 1),
        ("# c\n3 2\n0 1\n1 x\n", 4),
        ("3 2\n0 1\n1 2.0\n", 3),
    ])
    def test_non_integer_field_names_its_line(self, text, line):
        with pytest.raises(InstanceError, match=f"line {line}: non-integer"):
            parse_edgelist(text)

    @pytest.mark.parametrize("text, error", [
        ("3 2\n0 1\n1 5\n", "line 3: vertex out of range"),
        ("# c\n3 2\n-1 2\n1 2\n", "line 3: vertex out of range"),
        ("3 2\n0 1\n1 3\n", "line 3: vertex out of range"),
        ("3 2\n0 1\n1 1\n", "line 3: self-loop"),
    ])
    def test_bad_edge_names_its_line(self, text, error):
        with pytest.raises(InstanceError, match=error):
            parse_edgelist(text)

    def test_duplicate_edges_warn(self):
        with pytest.warns(UserWarning, match="1 duplicate edge line"):
            g = parse_edgelist("3 3\n0 1\n1 0\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_load_save_by_extension(self, tmp_path):
        g = gen_grid(2, 3)
        el = tmp_path / "g.el"
        col = tmp_path / "g.col"
        save_instance(g, str(el))
        save_instance(g, str(col))
        assert load_instance(str(el)) == g
        assert load_instance(str(col)) == g
        assert col.read_text().startswith("p edge") and el.read_text().startswith("6 7")

    def test_save_takes_no_format_or_comment(self):
        assert list(inspect.signature(save_instance).parameters) == ["g", "path"]


# The same bad pair, as a DIMACS `e` line, an edge-list line and a
# completion line of a 4-vertex graph, each on line 3 of its file.
BAD_PAIRS = [
    ("1 x", "line 3: non-integer field in '1 x'"),
    ("1 9", "line 3: vertex out of range in '1 9'"),
    ("-1 2", "line 3: vertex out of range in '-1 2'"),
    ("2 2", "line 3: self-loop in '2 2'"),
    ("1 2 3", "line 3: expected a pair `u v`, got '1 2 3'"),
]
READERS = {
    "dimacs": ("g.col", "c x\np edge 4 3\ne {}\ne 1 2\ne 2 3\ne 3 4\n"),
    "edgelist": ("g.el", "4 3\n0 1\n{}\n1 2\n2 3\n"),
    "completion": ("c.txt", "# fill\n0 2\n{}\n"),
}


def path4():
    return new_graph(4, [(0, 1), (1, 2), (2, 3)])


class TestFileErrors:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("pair, error", BAD_PAIRS)
    def test_a_bad_pair_reads_the_same_in_every_format(self, tmp_path, reader, pair, error):
        name, text = READERS[reader]
        path = tmp_path / name
        path.write_text(text.format(pair))
        with pytest.raises(InstanceError) as exc:
            if reader == "completion":
                load_completion(str(path), path4())
            else:
                load_instance(str(path))
        assert str(exc.value) == f"{path}: {error}"

    def test_completion_reads_fill_pairs(self, tmp_path):
        g = path4()
        path = tmp_path / "c.txt"
        path.write_text("# fill\n\n0 2\n3 1\n")
        assert load_completion(str(path), g) == {g.fill_index(0, 2), g.fill_index(1, 3)}

    def test_graph_errors_name_the_file(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("4 1\n0 1\n")
        with pytest.raises(GraphError, match=f"^{re.escape(str(path))}: .*disconnected"):
            load_instance(str(path))

    def test_file_level_errors_name_the_file(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("c nothing here\n")
        with pytest.raises(InstanceError, match=f"^{re.escape(str(path))}: missing problem line"):
            load_instance(str(path))

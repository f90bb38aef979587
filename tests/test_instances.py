import importlib.resources as importlib_resources

import numpy as np
import pytest

from fillin.graphs import is_chordal
from fillin.instances import (
    InstanceError,
    gen_caveman,
    gen_grid,
    gen_queen,
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

    def test_load_save_by_extension(self, tmp_path):
        g = gen_grid(2, 3)
        el = tmp_path / "g.el"
        col = tmp_path / "g.col"
        save_instance(g, str(el))
        save_instance(g, str(col))
        assert load_instance(str(el)).edges == g.edges
        assert load_instance(str(col)).edges == g.edges

import json

import pytest

from fillin.cli import _solver_config, build_parser, main
from fillin.instances import gen_grid, save_instance, serialize_edgelist
from fillin.solver import SolverConfig
from helpers import chordal_trap_graph, cycle_graph, complete_graph, fig_graph


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.el"
    save_instance(fig_graph(), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_fig_instance(self, fig_file, capsys):
        code, out, _ = run(capsys, "solve", fig_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "OPTIMAL"
        assert payload["lb"] == payload["ub"] == 1
        assert payload["fill_edges"] == [[1, 3]]
        assert payload["n"] == 5 and payload["m"] == 6 and payload["mc"] == 4
        assert set(payload["cuts"]) == {"i1", "i2", "i3", "i4"}
        assert payload["config"]["delta"] == 0.5

    def test_chordal_instance_instant(self, tmp_path, capsys):
        path = tmp_path / "k5.el"
        save_instance(complete_graph(5), str(path))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["lb"] == payload["ub"] == 0
        assert payload["fill_edges"] == []

    def test_grid3_3(self, tmp_path, capsys):
        path = tmp_path / "grid.el"
        save_instance(gen_grid(3, 3), str(path))
        code, out, _ = run(capsys, "solve", str(path), "--time-limit", "60")
        assert code == 0
        payload = json.loads(out)
        assert payload["lb"] == payload["ub"] == 5

    def test_time_limit_exit_code(self, tmp_path, capsys):
        path = tmp_path / "grid.el"
        save_instance(gen_grid(4, 4), str(path))
        code, out, _ = run(capsys, "solve", str(path), "--time-limit", "0.05")
        payload = json.loads(out)
        if payload["status"] == "OPTIMAL":
            assert code == 0
        else:
            assert code == 2
            assert payload["lb"] <= payload["ub"]

    def test_fill_edges_pass_check(self, fig_file, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", fig_file)
        payload = json.loads(out)
        comp = tmp_path / "fill.txt"
        comp.write_text("".join(f"{u} {v}\n" for u, v in payload["fill_edges"]))
        code, out, _ = run(capsys, "check", fig_file, str(comp))
        assert code == 0

    def test_json_out_file(self, fig_file, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        code, out, _ = run(capsys, "solve", fig_file, "--json-out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["ub"] == 1

    def test_reproducible_output(self, fig_file, capsys):
        def normalized():
            _, out, _ = run(capsys, "solve", fig_file)
            payload = json.loads(out)
            payload["time_s"] = None
            payload["manifest"]["started_at"] = None
            return json.dumps(payload)

        assert normalized() == normalized()

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/file.el")
        assert code == 1
        assert "error" in err

    def test_max_cycles_flag_is_gone(self, fig_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", fig_file, "--max-cycles", "10"])
        assert exc.value.code == 2
        assert "--max-cycles" in capsys.readouterr().err

    def test_exact_i3_flag_is_gone(self, fig_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", fig_file, "--exact-i3"])
        assert exc.value.code == 2
        assert "--exact-i3" in capsys.readouterr().err

    def test_all_positions_flag_is_gone(self, fig_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", fig_file, "--all-positions"])
        assert exc.value.code == 2
        assert "--all-positions" in capsys.readouterr().err

    def test_no_flags_give_the_default_config(self):
        args = build_parser().parse_args(["solve", "x"])
        assert _solver_config(args) == SolverConfig()

    def test_family_flag(self, fig_file, capsys):
        code, out, _ = run(capsys, "solve", fig_file, "--cuts", "i1")
        assert code == 0
        payload = json.loads(out)
        assert payload["cuts"]["i2"] == 0
        code, _, err = run(capsys, "solve", fig_file, "--cuts", "i2,i3")
        assert code == 1  # dropping i1 voids the optimality guarantee

    def test_exact_i2_needs_family_i2(self, fig_file, capsys):
        code, out, err = run(capsys, "solve", fig_file, "--cuts", "i1", "--exact-i2")
        assert code == 1
        assert out == ""
        assert "exact_i2" in err and "I2" in err


class TestGenerate:
    def test_grid(self, tmp_path, capsys):
        out_file = tmp_path / "g.el"
        code, out, _ = run(capsys, "generate", "grid", "3", "3", "--out", str(out_file))
        assert code == 0
        assert out.strip() == "9 12"
        assert out_file.read_text().splitlines()[0] == "9 12"

    def test_queen(self, tmp_path, capsys):
        out_file = tmp_path / "q.el"
        code, out, _ = run(capsys, "generate", "queen", "3", "4", "--out", str(out_file))
        assert code == 0
        assert out.strip() == "12 46"

    def test_caveman(self, tmp_path, capsys):
        out_file = tmp_path / "c.el"
        code, out, _ = run(capsys, "generate", "caveman", "4", "4", "0.30",
                           "--seed", "7", "--out", str(out_file))
        assert code == 0
        assert out.strip() == "16 24"

    def test_dimacs_format(self, tmp_path, capsys):
        out_file = tmp_path / "g.col"
        code, out, _ = run(capsys, "generate", "grid", "2", "2",
                           "--out", str(out_file), "--format", "col")
        assert code == 0
        assert out_file.read_text().startswith("p edge 4 4")

    def test_bad_params(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "grid", "1", "3",
                           "--out", str(tmp_path / "x.el"))
        assert code == 1


class TestCheck:
    def test_valid_completion(self, fig_file, tmp_path, capsys):
        comp = tmp_path / "c.txt"
        comp.write_text("1 3\n")
        code, out, _ = run(capsys, "check", fig_file, str(comp))
        assert code == 0
        assert "valid" in out and "size 1" in out

    def test_invalid_completion(self, tmp_path, capsys):
        inst = tmp_path / "c5.el"
        save_instance(cycle_graph(5), str(inst))
        comp = tmp_path / "c.txt"
        comp.write_text("0 2\n")
        code, out, _ = run(capsys, "check", str(inst), str(comp))
        assert code == 1
        assert "invalid" in out

    def test_empty_completion_of_chordal(self, tmp_path, capsys):
        inst = tmp_path / "k4.el"
        save_instance(complete_graph(4), str(inst))
        comp = tmp_path / "empty.txt"
        comp.write_text("")
        code, out, _ = run(capsys, "check", str(inst), str(comp))
        assert code == 0
        assert "size 0" in out

    def test_non_fill_edge_is_explicit_error(self, fig_file, tmp_path, capsys):
        comp = tmp_path / "bad.txt"
        comp.write_text("0 1\n")  # a real edge of the instance
        code, _, err = run(capsys, "check", fig_file, str(comp))
        assert code == 1
        assert "already an edge" in err


class TestHeuristicAndOracle:
    def test_heuristic_output(self, fig_file, capsys):
        code, out, _ = run(capsys, "heuristic", fig_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size 1"
        assert lines[1] == "1 3"

    def test_heuristic_on_chordal_input(self, tmp_path, capsys):
        path = tmp_path / "trap.el"
        save_instance(chordal_trap_graph(), str(path))
        code, out, _ = run(capsys, "heuristic", str(path))
        assert code == 0
        assert out.strip().splitlines() == ["size 0"]

    def test_oracle_output(self, fig_file, capsys):
        code, out, _ = run(capsys, "oracle", fig_file)
        assert code == 0
        assert out.strip().splitlines()[0] == "optimum 1"

    def test_oracle_budget_error(self, tmp_path, capsys):
        inst = tmp_path / "c8.el"
        save_instance(cycle_graph(8), str(inst))
        code, _, err = run(capsys, "oracle", str(inst), "--budget", "10")
        assert code == 1
        assert "budget" in err

    def test_oracle_budget_must_be_positive(self, tmp_path, capsys):
        inst = tmp_path / "c8.el"
        save_instance(cycle_graph(8), str(inst))
        code, out, err = run(capsys, "oracle", str(inst), "--budget", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "positive" in err

import json
from dataclasses import fields

import pytest

from fillin.cli import _solver_config, build_parser, main
from fillin.instances import gen_grid, load_instance, save_instance
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

    def test_delta_flag_is_gone(self, fig_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", fig_file, "--delta", "0.5"])
        assert exc.value.code == 2
        assert "--delta" in capsys.readouterr().err

    def test_json_config_rebuilds_the_config_run(self, fig_file, capsys):
        code, out, _ = run(capsys, "solve", fig_file, "--cuts", "i1,i2", "--exact-i2",
                           "--time-limit", "9.5", "--node-limit", "7")
        assert code == 0
        payload = json.loads(out)
        config = payload["config"]
        assert set(config) == {f.name for f in fields(SolverConfig)}
        assert payload["manifest"]["config"] == config
        assert SolverConfig(**config) == SolverConfig(
            families_enabled=("I1", "I2"), exact_i2=True, time_limit_s=9.5, node_limit=7)

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

    @pytest.mark.parametrize("flag, value", [("--time-limit", "nan"),
                                             ("--time-limit", "-1"),
                                             ("--node-limit", "-3")])
    def test_a_limit_it_would_ignore_is_an_input_error(self, fig_file, capsys,
                                                       flag, value):
        code, out, err = run(capsys, "solve", fig_file, f"{flag}={value}")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and flag[2:].replace("-", "_") in err

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
        # the .col name alone picks DIMACS
        out_file = tmp_path / "g.col"
        code, out, _ = run(capsys, "generate", "grid", "2", "2", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("p edge 4 4")

    def test_format_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "grid", "2", "2", "--out", str(tmp_path / "g.el"),
                  "--format", "col"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, default_name", [
        (["grid", "3", "4"], "grid3_4.el"),
        (["queen", "3", "3"], "queen3_3.el"),
        (["caveman", "3", "3", "0.3", "--seed", "2"], "caveman3_3_0.3_s2.el"),
    ])
    def test_every_family_reads_back_under_either_name(self, tmp_path, monkeypatch,
                                                       capsys, argv, default_name):
        monkeypatch.chdir(tmp_path)
        graphs = []
        for out in ([], ["--out", "x.col"]):
            assert run(capsys, "generate", *argv, *out)[0] == 0
            path = tmp_path / (out[1] if out else default_name)
            graphs.append(load_instance(str(path)))
            code, out_text, _ = run(capsys, "solve", str(path))
            assert code == 0 and json.loads(out_text)["status"] == "OPTIMAL"
        el, col = graphs
        assert el == col
        assert (tmp_path / "x.col").read_text().startswith("p edge")

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

    @pytest.mark.parametrize("text, line", [("0 x\n", 1), ("# c\n1 3\n2 1.5\n", 3)])
    def test_non_integer_field_names_file_and_line(self, fig_file, tmp_path, capsys,
                                                    text, line):
        comp = tmp_path / "bad.txt"
        comp.write_text(text)
        code, out, err = run(capsys, "check", fig_file, str(comp))
        assert (code, out) == (1, "")
        assert f"error: {comp}: line {line}: non-integer field" in err

    @pytest.mark.parametrize("text, error", [
        ("7 1\n", "line 1: vertex out of range in '7 1'"),
        ("# c\n2 2\n", "line 2: self-loop in '2 2'"),
    ])
    def test_bad_pair_names_file_and_line(self, fig_file, tmp_path, capsys, text, error):
        # a pair that is not a fill edge for want of a vertex says so
        comp = tmp_path / "bad.txt"
        comp.write_text(text)
        code, out, err = run(capsys, "check", fig_file, str(comp))
        assert (code, out) == (1, "")
        assert err == f"error: {comp}: {error}\n"

    def test_bad_instance_names_its_file(self, tmp_path, capsys):
        inst = tmp_path / "g.el"
        inst.write_text("3 2\n0 1\n1 x\n")
        comp = tmp_path / "c.txt"
        comp.write_text("0 2\n")
        for argv in (["check", str(inst), str(comp)], ["solve", str(inst)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: {inst}: line 3: non-integer field in '1 x'\n"


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

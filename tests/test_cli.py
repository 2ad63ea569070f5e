import json
import re

import pytest

from ppcplab.cli import main

YES_TEXT = "p pwsat g12n 3 2 1\n-1 -2 0\n-1 -3 0\n"
NO_TEXT = "p pwsat g12n 2 1 2\n-1 -2 0\n"
W2_TEXT = "p pwsat g21p 3 1 1\n1 2 3 0\n"
AWSAT_TEXT = "p pwsat g12n 4 1 3\nb 1 1 1 0\nb 2 1 2 3 0\nb 3 1 4 0\n-2 -3 0\n"
GRAPH_TEXT = "g 3\ne 1 2\ne 2 3\ne 1 3\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def scrub_wall_time(output: str) -> str:
    return re.sub(r'"?wall_time_ms"?[:=][^,\n}]*', "", output)


class TestVerifyCommand:
    def test_yes_instance_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        assert main(["verify", path, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "verdict: accept" in out

    def test_no_instance_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "no.pwsat", NO_TEXT)
        assert main(["verify", path, "--seed", "3"]) == 1
        assert "verdict: reject" in capsys.readouterr().out

    def test_w2_dispatch(self, tmp_path, capsys):
        path = write(tmp_path, "w2.pwsat", W2_TEXT)
        assert main(["verify", path]) == 0
        assert "class: g21p" in capsys.readouterr().out

    def test_awsat_dispatch(self, tmp_path, capsys):
        path = write(tmp_path, "a.awsat", AWSAT_TEXT)
        assert main(["verify", path, "--seed", "5"]) == 0
        assert "class: awsat" in capsys.readouterr().out

    def test_table_prover(self, tmp_path, capsys):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        table = write(tmp_path, "table.txt", "1\n")
        assert main(["verify", path, "--prover", f"table:{table}"]) == 0
        wrong = write(tmp_path, "wrong.txt", "1 2\n")
        assert main(["verify", path, "--prover", f"table:{wrong}"]) == 1

    def test_json_report_shape(self, tmp_path, capsys):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        assert main(["verify", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report_version"] == 1
        assert report["verdict"] == "accept"
        assert {"random_bits", "proof_bits", "stages", "prime", "m"} <= set(report)

    def test_parse_error_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.pwsat", "p pwsat g12n 2 1 1\n1 -2 0\n")
        assert main(["verify", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["verify", "/nonexistent/x.pwsat"]) == 2


class TestSolveCommand:
    def test_yes(self, tmp_path, capsys):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        assert main(["solve", path]) == 0
        assert capsys.readouterr().out.startswith("yes")

    def test_no(self, tmp_path, capsys):
        path = write(tmp_path, "no.pwsat", NO_TEXT)
        assert main(["solve", path]) == 1

    def test_awsat(self, tmp_path, capsys):
        path = write(tmp_path, "a.awsat", AWSAT_TEXT)
        assert main(["solve", path]) == 0


class TestAttackCommand:
    def test_adaptive_within_bound(self, tmp_path, capsys):
        path = write(tmp_path, "no.pwsat", NO_TEXT)
        assert main(["attack", path, "--adversary", "adaptive", "--trials", "200", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "acceptance_rate" in out and "analytic_bound" in out

    def test_yes_instance_refused(self, tmp_path, capsys):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        assert main(["attack", path, "--trials", "10"]) == 2


class TestEpsilonRange:
    @pytest.mark.parametrize("command", ["verify", "attack"])
    @pytest.mark.parametrize("epsilon", ["0.7", "0", "-1", "nan", "inf"])
    def test_out_of_range_exits_two(self, tmp_path, capsys, command, epsilon):
        path = write(tmp_path, "no.pwsat", NO_TEXT)
        assert main([command, path, "--epsilon", epsilon]) == 2
        assert "epsilon must lie in (0, 1/2]" in capsys.readouterr().err


class TestScalingCommand:
    def test_csv_columns(self, capsys):
        assert main(["scaling", "--m-min", "1", "--m-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "m,prime,random_bits,proof_bits,random_norm,proof_norm"
        assert len(lines) == 4
        for line in lines[1:]:
            assert len(line.split(",")) == 6


class TestReduceAndGen:
    def test_reduce_pipes_into_solve(self, tmp_path, capsys):
        graph = write(tmp_path, "k3.graph", GRAPH_TEXT)
        assert main(["reduce", graph, "--k", "1"]) == 0
        text = capsys.readouterr().out
        path = write(tmp_path, "reduced.pwsat", text)
        assert main(["solve", path]) == 0
        assert main(["reduce", graph, "--k", "4"]) == 2  # k > n

    def test_gen_planted_verifies(self, tmp_path, capsys):
        assert main(["gen", "planted", "--n", "6", "--k", "2", "--clauses", "5", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        path = write(tmp_path, "gen.pwsat", text)
        assert main(["verify", path, "--seed", "1"]) == 0

    def test_gen_awsat_solves(self, tmp_path, capsys):
        assert main([
            "gen", "awsat", "--n", "6", "--block-sizes", "2,2,2",
            "--block-weights", "1,1,1", "--clauses", "2", "--seed", "8",
        ]) == 0
        text = capsys.readouterr().out
        path = write(tmp_path, "gen.awsat", text)
        assert main(["solve", path]) in (0, 1)

    def test_gen_random_g21p(self, capsys):
        assert main(["gen", "random", "--n", "4", "--clauses", "3", "--k", "1",
                     "--class", "g21p", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p pwsat g21p 4 3 1")


class TestDeterminism:
    def test_verify_reports_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        main(["verify", path, "--seed", "42", "--json"])
        first = capsys.readouterr().out
        main(["verify", path, "--seed", "42", "--json"])
        second = capsys.readouterr().out
        assert scrub_wall_time(first) == scrub_wall_time(second)

    def test_attack_reports_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "no.pwsat", NO_TEXT)
        main(["attack", path, "--trials", "50", "--seed", "7", "--json"])
        first = capsys.readouterr().out
        main(["attack", path, "--trials", "50", "--seed", "7", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_different_seeds_differ(self, tmp_path, capsys):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        main(["verify", path, "--seed", "1", "--json"])
        first = capsys.readouterr().out
        main(["verify", path, "--seed", "2", "--json"])
        second = capsys.readouterr().out
        assert scrub_wall_time(first) != scrub_wall_time(second)

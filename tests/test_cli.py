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

    @pytest.mark.parametrize("text", [
        # written by: gen awsat --n 4 --block-sizes 2,2 --block-weights 1,1 --clauses 2 --seed 1
        "p pwsat g12n 4 2 2\nb 1 1 1 4 0\nb 2 1 2 3 0\n-1 -4 0\n-1 -2 0\n",
        # exists x1, for all x2: not both, so no
        "p pwsat g12n 2 1 2\nb 1 1 1 0\nb 2 1 2 0\n-1 -2 0\n",
    ], ids=["yes", "no"])
    def test_even_l_awsat_verify_agrees_with_solve(self, tmp_path, capsys, text):
        # verify pads an even-l instance with an empty existential block,
        # which leaves the quantifier value unchanged
        path = write(tmp_path, "even.awsat", text)
        solved = main(["solve", path])
        assert main(["verify", path, "--seed", "2"]) == solved
        assert "pad_to_odd" not in capsys.readouterr().err

    def test_awsat_no_instance_prints_a_rejecting_report(self, tmp_path, capsys):
        # exists x1, for all one of {2, 3}, exists x4, clause (~x2 | ~x4): the
        # branch choosing x2 loses, so no table family wins; verify checks
        # the family naming each block's first variable, as it checks the
        # first k variables of a pwsat no-instance
        path = write(tmp_path, "no.awsat", AWSAT_TEXT.replace("-2 -3 0", "-2 -4 0"))
        assert main(["solve", path]) == 1
        capsys.readouterr()
        assert main(["verify", path, "--seed", "5", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["class"] == "awsat" and report["verdict"] == "reject"
        assert report["rejection_stage"] == report["stages"][-1]["name"]
        assert report["stages"][-1]["accepted"] is False
        assert all(stage["accepted"] for stage in report["stages"][:-1])

    def test_table_prover(self, tmp_path, capsys):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        table = write(tmp_path, "table.txt", "1\n")
        assert main(["verify", path, "--prover", f"table:{table}"]) == 0
        wrong = write(tmp_path, "wrong.txt", "1 2\n")
        assert main(["verify", path, "--prover", f"table:{wrong}"]) == 1

    @pytest.mark.parametrize("name, text", [("yes.pwsat", YES_TEXT), ("a.awsat", AWSAT_TEXT)], ids=["w1", "awsat"])
    @pytest.mark.parametrize("prime, problem", [("161", "not prime"), (str(2**89 - 1), "cap")], ids=["composite", "above_cap"])
    def test_prime_override_that_is_no_usable_prime_exits_two(self, tmp_path, capsys, name, text, prime, problem):
        path = write(tmp_path, name, text)
        assert main(["verify", path, "--prime", prime]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and problem in captured.err

    @pytest.mark.parametrize("true_vars", ["5", "1 9", "2 1000"])
    def test_table_variable_past_the_cube_exits_two(self, tmp_path, capsys, true_vars):
        path = write(tmp_path, "yes.pwsat", YES_TEXT)  # m = 2: variables 1..4
        table = write(tmp_path, "table.txt", true_vars + "\n")
        assert main(["verify", path, "--prover", f"table:{table}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "outside" in captured.err
        assert "verdict" not in captured.out

    def test_table_variable_on_a_dummy_code_is_a_proof(self, tmp_path, capsys):
        # variable 4 is past n = 3 but inside the cube: a legal (if odd) proof
        # whose parked weight the weight check, restricted to the real
        # variables, does not count
        path = write(tmp_path, "yes.pwsat", YES_TEXT)
        table = write(tmp_path, "table.txt", "1 4\n")
        assert main(["verify", path, "--prover", f"table:{table}", "--seed", "3"]) == 0
        assert "verdict: accept" in capsys.readouterr().out

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

    def test_negative_trials_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "no.pwsat", NO_TEXT)
        assert main(["attack", path, "--trials", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be nonnegative, got -5" in captured.err


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

    def test_gen_planted_past_the_pair_cap_exits_two(self, capsys):
        assert main(["gen", "planted", "--n", "100000", "--clauses", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "10^6 variable pairs" in captured.err

    def test_gen_awsat_solves(self, tmp_path, capsys):
        assert main([
            "gen", "awsat", "--n", "6", "--block-sizes", "2,2,2",
            "--block-weights", "1,1,1", "--clauses", "2", "--seed", "8",
        ]) == 0
        text = capsys.readouterr().out
        path = write(tmp_path, "gen.awsat", text)
        assert main(["solve", path]) in (0, 1)

    @pytest.mark.parametrize("flags, flag", [
        (["--block-weights", "1,1"], "--block-sizes"),
        (["--block-sizes", "2,x", "--block-weights", "1,1"], "--block-sizes"),
        (["--block-sizes", "2,2", "--block-weights", "1,"], "--block-weights"),
    ])
    def test_gen_awsat_bad_block_list_names_its_flag(self, capsys, flags, flag):
        assert main(["gen", "awsat", "--n", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} takes comma-separated integers" in captured.err

    def test_gen_awsat_negative_block_size_exits_two(self, capsys):
        assert main([
            "gen", "awsat", "--n", "3", "--block-sizes", "4,-1", "--block-weights", "1,0",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "block size -1 is negative" in captured.err

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

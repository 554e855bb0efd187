"""Command-line surface: output formats, flags, exit codes, determinism."""

import json

import pytest

from lexseg import cli
from lexseg.oracle import CheckResult, VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_ideal_golden(self, capsys):
        code, out, _ = run(capsys, "dim", "--kind", "ideal", "--m", "2,1,0,3,0,2")
        assert code == 0 and out == "362\n"

    def test_quotient_golden(self, capsys):
        code, out, _ = run(capsys, "dim", "--kind", "quotient", "--m", "2,1,0,3,0,2")
        assert code == 0 and out == "924\n"

    def test_inclusive_flag(self, capsys):
        code, out, _ = run(capsys, "dim", "--kind", "ideal", "--inclusive",
                           "--m", "2,1,0,3,0,2")
        assert code == 0 and out == "363\n"

    def test_letter_form_with_n(self, capsys):
        code, out, _ = run(capsys, "dim", "--kind", "ideal",
                           "--m", "a^2*b*d^3*f^2", "--n", "6")
        assert code == 0 and out == "362\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "dim", "--kind", "ideal", "--json",
                           "--m", "2,1,0,3,0,2")
        payload = json.loads(out)
        assert code == 0
        assert set(payload) == {"input", "result"}
        assert payload["result"] == 362
        assert payload["input"]["m"] == "2,1,0,3,0,2"


class TestMacrep:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "macrep", "114", "6")
        assert code == 0 and out == "9,7,5,4,1,0\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "macrep", "362", "5", "--json")
        assert json.loads(out)["result"] == [10, 8, 7, 3, 2]


class TestGrowth:
    def test_ideal(self, capsys):
        code, out, _ = run(capsys, "growth", "--kind", "ideal", "--n", "6", "362")
        assert code == 0 and out == "653\n"

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "growth", "--kind", "quotient", "--delta", "8", "924")
        assert code == 0 and out == "1348\n"

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "growth", "--kind", "quotient", "924")
        assert code == 2 and "delta" in err


class TestDecompose:
    def test_ideal_table(self, capsys):
        code, out, _ = run(capsys, "decompose", "--kind", "ideal", "--m", "2,1,0,3,0,2")
        assert code == 0
        assert out.splitlines() == [
            "3,0,0,0,0,0 | [1,6] | 5 | 252",
            "2,2,0,0,0,0 | [2,6] | 4 | 70",
            "2,1,1,0,0,0 | [3,6] | 4 | 35",
            "2,1,0,4,0,0 | [4,6] | 1 | 3",
            "2,1,0,3,1,0 | [5,6] | 1 | 2",
        ]

    def test_quotient_table(self, capsys):
        code, out, _ = run(capsys, "decompose", "--kind", "quotient", "--m", "2,1,0,3,0,2")
        assert code == 0
        assert out.splitlines() == [
            "0,0,0,0,0,0 | [2,6] | 8 | 495",
            "1,0,0,0,0,0 | [2,6] | 7 | 330",
            "2,0,0,0,0,0 | [3,6] | 6 | 84",
            "2,1,0,0,0,0 | [5,6] | 5 | 6",
            "2,1,0,1,0,0 | [5,6] | 4 | 5",
            "2,1,0,2,0,0 | [5,6] | 3 | 4",
            "2,1,0,3,0,0 | [7,6] | 2 | 0",
            "2,1,0,3,0,1 | [7,6] | 1 | 0",
        ]


class TestMultiply:
    def test_ideal(self, capsys):
        code, out, _ = run(capsys, "multiply", "--kind", "ideal", "--m", "2,1,0,3,0,2")
        assert code == 0
        assert out == "kind=ideal exclusive window=[1,6] delta=9 m=2,1,0,3,0,3\n"

    def test_quotient(self, capsys):
        code, out, _ = run(capsys, "multiply", "--kind", "quotient", "--m", "0,2,0")
        assert code == 0
        assert out == "kind=quotient exclusive window=[1,3] delta=3 m=0,2,1\n"


class TestCoeffsAndPartition:
    def test_coeffs_lines(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--m", "2,1,0,3,0,2")
        assert code == 0
        assert out == "S=(10,8,7,3,2)\nT=(12,11,9,6,5,4,1,0)\n"

    def test_partition_line(self, capsys):
        code, out, _ = run(capsys, "partition", "--m", "0,2,1,1")
        assert code == 0
        assert out == "S={6,3,1} T={5,4,2,0} partition=ok\n"


class TestReconstruct:
    def test_from_ideal_set(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--set", "6,3,1", "--p", "6")
        assert code == 0 and out == "0,2,1,1\n"

    def test_from_quotient_set(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--set", "5,4,2,0", "--p", "6",
                           "--from", "quotient")
        assert code == 0 and out == "0,2,1,1\n"

    def test_bad_set_is_usage_error(self, capsys):
        code, _, err = run(capsys, "reconstruct", "--set", "6,x,1", "--p", "6")
        assert code == 2 and "coefficient set" in err


class TestRankUnrank:
    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "--m", "2,1,0,3,0,2")
        assert code == 0 and out == "363\n"

    def test_unrank(self, capsys):
        code, out, _ = run(capsys, "unrank", "--q", "363", "--n", "6", "--delta", "8")
        assert code == 0 and out == "2,1,0,3,0,2\n"

    def test_unrank_out_of_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "unrank", "--q", "0", "--n", "3", "--delta", "2")
        assert code == 1 and "outside" in err

    def test_unrank_without_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "unrank", "--q", "1", "--delta", "2")
        assert code == 2 and "--n" in err


class TestErrors:
    def test_monomial_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "dim", "--kind", "ideal", "--m", "2,x,1")
        assert code == 2 and "error:" in err

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run(capsys, "dim", "--kind", "ideal", "--m", "0,0,0")
        assert code == 1 and "unit" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "6"],
            ["macrep", "114", "6", "--n", "6"],
            ["reconstruct", "--set", "6,3,1", "--p", "6", "--n", "4"],
        ],
        ids=["verify", "macrep", "reconstruct"],
    )
    def test_n_rejected_where_unread(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--n" in captured.err


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, capsys):
        first = run(capsys, "decompose", "--kind", "quotient", "--m", "2,1,0,3,0,2")
        second = run(capsys, "decompose", "--kind", "quotient", "--m", "2,1,0,3,0,2")
        assert first == second

    def test_verify_output_is_reproducible(self, capsys):
        args = ("verify", "--max-n", "2", "--max-delta", "2", "--seed", "5")
        assert run(capsys, *args) == run(capsys, *args)


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--max-delta", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "cell=(1,1) property=enumeration_order status=ok detail=1 monomials"
        assert lines[-1].startswith("summary checks=")
        assert "failures=0" in lines[-1]

    def test_json_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "1", "--max-delta", "2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["result"]["failures"] == 0
        assert all(c["status"] == "ok" for c in payload["result"]["checks"])

    def test_failures_exit_3(self, capsys, monkeypatch):
        broken = VerificationReport(
            (CheckResult("(1,1)", "enumeration_order", False, "forced"),), 0
        )
        monkeypatch.setattr(cli.oracle, "run_verification", lambda **kw: broken)
        code, out, _ = run(capsys, "verify")
        assert code == 3 and "status=FAIL" in out

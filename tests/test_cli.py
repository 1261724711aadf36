import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chardeg import cli
from chardeg.cli import _poly_text, main, parse_args, run
from chardeg.exact_arith import cyclotomic
from conftest import REPO_ROOT, load_workloads, readme_command_lines


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBasicCommands:
    def test_hook_example(self, capsys):
        code, doc = _run_json(capsys, ["hook", "--partition", "3,2,2"])
        assert code == 0
        assert doc["H"] == "240"
        assert doc["degree"] == "21"
        assert doc["hooks"] == [[5, 4, 1], [3, 2], [2, 1]]

    def test_exponential_partition_syntax(self, capsys):
        code, doc = _run_json(capsys, ["degree", "--partition", "7^7"])
        assert code == 0
        assert doc["degree"] == "475073684264389879228560"

    def test_conjugate(self, capsys):
        code, doc = _run_json(capsys, ["conjugate", "--partition", "3,2,2"])
        assert code == 0 and doc["conjugate"] == "3,3,1"

    def test_gamma(self, capsys):
        code, doc = _run_json(capsys, ["gamma", "--m", "2"])
        assert code == 0
        assert doc["partitions"] == ["2,2", "3,2", "4,2", "3,3", "4,3", "4,4"]

    def test_gamma_size_filter(self, capsys):
        code, doc = _run_json(capsys, ["gamma", "--m", "2", "--size", "6"])
        assert code == 0
        assert doc["partitions"] == ["4,2", "3,3"]

    def test_cyclotomic(self, capsys):
        code, doc = _run_json(capsys, ["cyclotomic", "--k", "12", "--q", "2"])
        assert code == 0
        assert doc["coefficients"] == [1, 0, -1, 0, 1]
        assert doc["value"] == "13"
        # An integer flag keeps its minus sign.
        code, doc = _run_json(capsys, ["cyclotomic", "--k", "3", "--q", "-2"])
        assert code == 0 and doc["value"] == "3"

    def test_rat(self, capsys):
        code, doc = _run_json(capsys, ["rat", "--degrees", "1,20,35,45,63,64"])
        assert code == 0 and doc["rat"] == "16/5"

    @pytest.mark.parametrize(
        "degrees, error",
        [
            ("1,x", "--degrees '1,x' must be a comma list of integers"),
            ("2,3", "--degrees: degree 1 missing"),
            ("1,-3", "--degrees '1,-3' must be a comma list of integers"),
            ("1, 3", "--degrees '1, 3' must be a comma list of integers"),
            ("1,0", "--degrees: degrees must be positive"),
        ],
    )
    def test_rat_refusals_name_the_flag(self, degrees, error, capsys):
        code, doc = _run_json(capsys, ["rat", "--degrees", degrees])
        assert (code, doc) == (2, {"status": "error", "error": error})


class TestPolyText:
    def test_str(self):
        assert _poly_text(cyclotomic(12)) == "x^4 - x^2 + 1"
        assert _poly_text(cyclotomic(1)) == "x - 1"
        assert _poly_text((-5, 0, -2, 3)) == "3x^3 - 2x^2 - 5"
        assert _poly_text((0, -1)) == "-x"


class TestVerifierCommands:
    def test_prop42_range(self, capsys):
        code, doc = _run_json(capsys, ["prop42", "--from", "7", "--to", "100"])
        assert code == 0
        assert doc["all_passed"] is True
        assert len(doc["records"]) == 94
        assert doc["records"][0]["witness"] == "3,2,2"
        assert doc["records"][1]["witness"] == "4,2,2"

    def test_prop42_jsonl(self, capsys):
        code = main(["prop42", "--from", "7", "--to", "9", "--jsonl"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0 and len(lines) == 3
        assert json.loads(lines[0])["n"] == 7

    def test_prop42_jsonl_lines_are_json_dumps_of_the_records(self, capsys):
        # The lines are rendered without json, byte for byte as json.dumps
        # writes each record of the document.
        _, doc = _run_json(capsys, ["prop42", "--from", "7", "--to", "60"])
        assert main(["prop42", "--from", "7", "--to", "60", "--jsonl"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [json.dumps(record) for record in doc["records"]]

    def test_prop42_document_is_json_dumps_of_itself(self, capsys):
        # The document is rendered from the same lines, without json.
        assert main(["prop42", "--from", "7", "--to", "60"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out)) + "\n"

    def test_thm21_example(self, capsys):
        code, doc = _run_json(capsys, ["thm21", "--family", "linear", "--rank", "4", "--q", "2"])
        assert code == 0
        assert doc["ratio"] == "64/14"
        assert doc["order"] == "20160"
        assert doc["passed"] is True

    def test_lemma61_override(self, capsys):
        code, doc = _run_json(capsys, ["lemma61", "--family", "linear", "--rank", "3", "--q", "3"])
        assert code == 0
        assert doc["ratio"] == "39/12"

    def test_lemma43_constant(self, capsys):
        code, doc = _run_json(capsys, ["lemma43", "--constant"])
        assert code == 0 and doc["constant_holds"] is True

    def test_lemma43_n_1000(self, capsys):
        assert main(["lemma43", "--n", "1000"]) == 0
        assert capsys.readouterr().out == (
            '{"status": "pass", "n": 1000, "holds": true, "digits": 50}\n'
        )

    def test_lemma45(self, capsys):
        code, doc = _run_json(capsys, ["lemma45", "--m", "3"])
        assert code == 0 and doc["holds"] is True

    def test_lemma46(self, capsys):
        code, doc = _run_json(capsys, ["lemma46", "--n", "64"])
        assert code == 0 and doc["holds"] is True

    def test_structural_commands(self, capsys):
        code, doc = _run_json(capsys, ["maroti", "--n", "5", "--d", "4"])
        assert code == 0 and doc["bound"] == "69"
        code, doc = _run_json(capsys, ["prop32", "--order", "60"])
        assert code == 0 and doc["bound"] == "348"
        code, doc = _run_json(capsys, ["prop23", "--rat-g", "2", "--rat-gn", "1", "--order-n", str(2 ** 14)])
        assert code == 0 and doc["holds"] is True
        code, doc = _run_json(capsys, ["thmB", "--rat", "16/5", "--index", "20000000000"])
        assert code == 0 and doc["holds"] is True
        code, doc = _run_json(capsys, ["out-bound", "--x", "2", "--y", "60", "--num", "259", "--den", "1000"])
        assert code == 0 and doc["holds"] is True

    def test_chiefseries_bound(self, capsys):
        series = json.dumps(
            {
                "factors": [
                    {"label": "a", "order": "125", "multiplicity": 1, "abelian": True},
                    {"label": "b", "order": "360", "multiplicity": 1, "psl2": True},
                    {"label": "c", "order": "25920", "multiplicity": 1},
                ]
            }
        )
        code, doc = _run_json(capsys, ["chiefseries-bound", "--json", series])
        assert code == 0 and doc["rat14_lower_bound"] == "25920"
        # 1073740800 = |PSL_2(1024)|, whose rat**14 is about 1.03
        series = '{"factors": [{"order": "1073740800", "psl2": false}]}'
        code, doc = _run_json(capsys, ["chiefseries-bound", "--json", series])
        assert code == 2 and "chief factor 0 has the order of PSL_2(1024)" in doc["error"]

    def test_examples_commands(self, capsys):
        code, doc = _run_json(capsys, ["example-frobenius", "--p", "7", "--m", "3"])
        assert code == 0 and doc["rat"] == "1/1" and doc["fitting_index"] == "3"
        code, doc = _run_json(capsys, ["example-extraspecial", "--p", "2", "--i", "10"])
        assert code == 0 and doc["rat"] == "1025/1024"

    def test_sweep_and_csv(self, capsys):
        code, doc = _run_json(capsys, ["sweep", "--families", "2B2", "--q-max", "512"])
        assert code == 0
        oks = [e for e in doc["entries"] if e["status"] == "ok"]
        assert [e["q"] for e in oks] == [8, 32, 128, 512]
        code = main(["sweep", "--families", "2B2", "--q-max", "64", "--csv"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and out[0].startswith("family,rank,q,")

    def test_csv_quotes_a_reason_with_a_comma(self, capsys):
        # The orth_odd point n=2, q=2 is excluded with a reason that holds a
        # comma; every row still reads back as the header's 12 fields.
        code = main(["sweep", "--families", "orth_odd", "--rank-max", "2", "--q-max", "3", "--csv"])
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert code == 0 and len(rows) == 3
        assert [len(row) for row in rows] == [12, 12, 12]
        assert rows[1][-1] == "not simple (isomorphic to the symplectic point n=2, q=2)"

    def test_sweep_strings_need_no_json_escape(self):
        # _sweep_json writes these between quotes as they are, so each must
        # be its own JSON encoding: every family value, beta label,
        # not-simple reason, ratio-override label and exclusion reason.
        from chardeg import lie_type

        rows = lie_type._FAMILIES.values()
        strings = [f.value for f in lie_type.Family]
        strings += [row.beta_label for row in rows]
        strings += [reason for row in rows for reason in row.not_simple.values()]
        strings += [pair.beta_label for row in rows for pair in row.ratio_overrides.values()]
        strings += [f"q must be {row.twisted_p}**(2f+1) with f >= 1" for row in rows if row.twisted_p]
        strings += ["PSL_2"]
        assert len(strings) == 42
        assert [s for s in strings if json.dumps(s) != f'"{s}"'] == []

    def test_data_commands(self, capsys, data_dir):
        code, doc = _run_json(capsys, ["validate-data", "--data", str(data_dir)])
        assert code == 0 and doc["tables"] == 28
        code, doc = _run_json(capsys, ["sporadic-check", "--data", str(data_dir)])
        assert code == 0 and doc["failures"] == []
        assert all(r["extendibility"] == "asserted by data" for r in doc["records"])


class TestContract:
    def test_exit_codes(self, capsys, data_dir):
        # pass -> 0 covered above; fail -> 1; error -> 2
        code, doc = _run_json(capsys, ["thmB", "--rat", "16/5", "--index", "50000000000"])
        assert code == 1 and doc["status"] == "fail"
        code, doc = _run_json(capsys, ["order", "--family", "linear", "--rank", "2", "--q", "5"])
        assert code == 2 and doc["status"] == "error"

    def test_prop42_rejects_empty_range(self, capsys):
        code, doc = _run_json(capsys, ["prop42", "--from", "20", "--to", "10"])
        assert code == 2 and doc["status"] == "error"
        assert "--from <= --to" in doc["error"]
        assert "records" not in doc

    def test_unknown_subcommand_exits_2(self, capsys):
        code, doc = _run_json(capsys, ["no-such-command"])
        assert code == 2 and doc["status"] == "error"
        assert "no-such-command" in doc["error"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--help"])
        assert err.value.code == 0
        assert "--rank-max" in capsys.readouterr().out

    def test_reruns_byte_identical(self, capsys):
        main(["prop42", "--from", "7", "--to", "12"])
        first = capsys.readouterr().out
        main(["prop42", "--from", "7", "--to", "12"])
        second = capsys.readouterr().out
        assert first == second

    def test_output_is_json(self, capsys):
        main(["hook", "--partition", "2,1"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "pass"

    def test_digits_below_one_rejected(self, capsys):
        for digits in ("0", "-1"):
            code, doc = _run_json(capsys, ["lemma46", "--n", "64", "--digits", digits])
            assert code == 2
            assert doc["error"] == f"interval checks require 1 <= digits <= 400, got {digits}"

    def test_partition_digits_are_ascii(self, capsys):
        # int() reads the Arabic-Indic digits 3 and 2.
        code, doc = _run_json(capsys, ["hook", "--partition", "\u0663,\u0662"])
        assert code == 2 and doc["error"] == "bad partition term '\u0663'"

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["lemma46", "--n", "٥٥"], "٥٥"),
            (["thm21", "--family", "linear", "--rank", "3", "--q", "1_1"], "1_1"),
            (["maroti", "--n", "+12", "--d", "5"], "+12"),
            (["prop42", "--n", " 7"], " 7"),
        ],
        ids=["arabic-indic", "underscore", "plus", "space"],
    )
    def test_integer_flags_take_ascii_digits(self, argv, value, capsys):
        # int() reads these as 55, 11, 12 and 7; an integer flag takes an
        # optional "-" and the digits 0-9, as every other integer input does,
        # in the plain form and through argparse alike.
        code, doc = _run_json(capsys, argv)
        assert code == 2
        assert doc["error"].endswith(f"invalid integer value: {value!r}")
        row = next(row for row in cli.command_table() if row[0] == argv[0])
        assert cli._plain(row, argv[1:]) is None

    @pytest.mark.parametrize(
        "argv",
        [
            "prop42 --n 9 --from 20 --to 10",
            "sweep --jsonl --csv",
            "lemma43 --constant --n 20",
            "chiefseries-bound --json {} --file series.json",
        ],
    )
    def test_conflicting_flags_exit_2(self, argv, capsys):
        code, doc = _run_json(capsys, argv.split())
        assert code == 2 and doc["status"] == "error"

    @pytest.mark.parametrize(
        "argv",
        [
            "sweep --families ,",
            "sweep --families linear --rank-max 2",
            "sweep --families G2 --q-max 2",
        ],
    )
    def test_empty_sweep_is_an_error(self, argv, capsys):
        code, doc = _run_json(capsys, argv.split())
        assert code == 2 and doc["status"] == "error"
        assert "entries" not in doc

    @pytest.mark.parametrize("families", ["", ","])
    def test_empty_family_list_is_refused(self, families, capsys):
        code, doc = _run_json(capsys, ["sweep", "--families", families])
        assert code == 2
        assert doc == {"status": "error", "error": f"--families {families!r} names no family"}

    @pytest.mark.parametrize("families", ["E9", "all,E8"])
    def test_unknown_family_is_refused_naming_the_flag(self, families, capsys):
        # A keyword stands alone; anything else is a list of family names.
        from chardeg.lie_type import Family

        code, doc = _run_json(capsys, ["sweep", "--families", families])
        assert code == 2
        assert doc == {
            "status": "error",
            "error": f"--families {families!r} is not all, classical, exceptional or a "
            f"comma-separated list of families from {', '.join(f.value for f in Family)}",
        }

    @pytest.mark.parametrize(
        "command, tsv, reason",
        [
            ("sporadic-check", None, "sporadic-check checked 0 of 0 tables: "
             "none has both an order and a pair"),
            ("sporadic-check", "M11\t7920\t1,10,10,10,11,16,16,44,45,55\t1\t\t\n",
             "sporadic-check checked 0 of 1 tables: none has both an order and a pair"),
            ("validate-data", None, "validate-data read 0 tables from {}"),
        ],
        ids=["sporadic-check-empty", "sporadic-check-no-pair", "validate-data-empty"],
    )
    def test_nothing_checked_is_an_error(self, command, tsv, reason, capsys, tmp_path):
        # Checking nothing certifies nothing, so it is no verdict either way.
        if tsv is not None:
            (tmp_path / "t.tsv").write_text(tsv)
        code, doc = _run_json(capsys, [command, "--data", str(tmp_path)])
        assert code == 2
        assert doc == {"status": "error", "error": reason.format(tmp_path)}

    @pytest.mark.parametrize(
        "argv",
        [
            "prop42 --from 7 --to 9 --jsonl",
            "prop42 --from 7 --to 9",
            "sweep --families G2 --q-max 8 --csv",
            "sweep --families G2 --q-max 8 --jsonl",
            "sweep --families G2 --q-max 8",
        ],
    )
    def test_prerendered_output_puts_a_fail_on_stderr(self, argv, capsys, monkeypatch):
        # JSON lines and CSV rows do not hold the status, so stderr does, and
        # for the prop42 and sweep documents too; every witness and sweep
        # point fails.
        from chardeg import alternating, lie_type

        witness_range, sweep = alternating.witness_range, lie_type.sweep
        monkeypatch.setattr(alternating, "witness_range", lambda *a, **kw: [
            r._replace(passed=False) for r in witness_range(*a, **kw)])
        monkeypatch.setattr(lie_type, "sweep", lambda *a, **kw: [
            e._replace(passed_pow14=False) if isinstance(e, lie_type.SweepRecord) else e
            for e in sweep(*a, **kw)])
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out and captured.err == "status: fail\n"

    @pytest.mark.parametrize(
        "argv, family",
        [("thm21 --family E8 --rank 7 --q 2", "E8"), ("order --family G2 --rank 0 --q 3", "G2")],
    )
    def test_rank_on_a_fixed_rank_family_exits_2(self, argv, family, capsys):
        code, doc = _run_json(capsys, argv.split())
        assert code == 2
        assert doc == {
            "status": "error", "error": f"invalid group spec ({family} takes no rank parameter)"
        }

    @pytest.mark.parametrize(
        "argv, reason",
        [
            ("cyclotomic --k 100000", "k <= 1000"),
            ("example-frobenius --p 1000000007 --m 2", "more than 100000"),
            ("example-frobenius --p 2000000000000000000000000000000 --m 2",
             "2000000000000000000000000000000 is not prime"),
            ("example-extraspecial --p 2 --i 200000", "more than 131072"),
            ("maroti --n 2000 --d 100", "more than 131072"),
            ("sweep --families E8 --q-max 300000", "q_max 300000 is above the maximum 65536"),
            ("sweep --families linear --rank-max 3000", "rank_max 3000 is above the maximum 100"),
            ("order --family linear --rank 3000 --q 2", "rank 3000 is above the maximum 100"),
            # The size bound reads the row at the minimum rank, not at -100000.
            ("thm21 --family linear --rank -100000 --q 2", "rank below minimum 3 for linear"),
            pytest.param(
                f"order --family linear --rank 100 --q {2 ** 256}",
                "up to 2569743 bits, more than 131072",
                id="order --family linear --rank 100 --q 2**256",
            ),
            pytest.param(
                f"order --family linear --rank 3 --q {6 ** 4000}",
                f"q = {6 ** 4000} is not a prime power",
                id="order --family linear --rank 3 --q 6**4000",
            ),
            (
                "sweep --families linear --rank-max 100 --q-max 65536",
                "the order of linear would build an integer of up to 169983 bits",
            ),
            # Each point is under the corner cap; all 6,635 q at 68 ranks are not.
            (
                "sweep --families linear --rank-max 70 --q-max 65536",
                "the grid's orders total up to 11451478698 bits, more than 268435456",
            ),
            pytest.param(
                f"prop32 --order {10 ** 1000}",
                "solvable_index_bound would build an integer of up to 475046 bits",
                id="prop32 --order 10**1000",
            ),
            pytest.param(
                f"thmB --rat {10 ** 100000 + 1}/{10 ** 100000} --index 2",
                "radical_index_check would build an integer of up to 6976055 bits",
                id="thmB --rat (10**100000+1)/10**100000 --index 2",
            ),
            pytest.param(
                f"prop23 --rat-g {10 ** 100000 + 1}/{10 ** 100000} --rat-gn 1 --order-n 2",
                "quotient_power_check would build an integer of up to 4650718 bits",
                id="prop23 --rat-g (10**100000+1)/10**100000 --rat-gn 1 --order-n 2",
            ),
            pytest.param(
                f"cyclotomic --k 1000 --q {10 ** 1000}",
                "cyclotomic would build an integer of up to 1328800 bits",
                id="cyclotomic --k 1000 --q 10**1000",
            ),
            pytest.param(
                f"cyclotomic --k 1000 --q {10 ** 3000}",
                "cyclotomic would build an integer of up to 3986400 bits",
                id="cyclotomic --k 1000 --q 10**3000",
            ),
            (
                "out-bound --x 60 --y 60 --num 3000000 --den 3000000",
                "check_exponent_bound would build an integer of up to 18000000 bits",
            ),
            (
                'chiefseries-bound --json {"factors":[{"order":"60","multiplicity":10000000}]}',
                "rat14_lower_bound would build an integer of up to 60000000 bits",
            ),
            # A bound from 2**64 up is written as the power of two above it.
            pytest.param(
                f"maroti --n {10 ** 130000} --d 5",
                "maroti_bound would build an integer of up to 2**431855 bits, more than 131072",
                id="maroti --n 10**130000 --d 5",
            ),
            pytest.param(
                f"out-bound --x 2 --y 60 --num 259 --den {10 ** 130000}",
                "check_exponent_bound would build an integer of up to 2**431852 bits",
                id="out-bound --x 2 --y 60 --num 259 --den 10**130000",
            ),
            ("conjugate --partition 100000000^3", "partition size is above the maximum 10000"),
            ("hook --partition 3000^3000", "partition size is above the maximum 10000"),
            ("gamma --m 3000", "enumerate_gamma requires m <= 50, got 3000"),
            ("lemma45 --m 300", "enumerate_gamma requires m <= 50, got 300"),
            ("lemma43 --n 200000", "check_factorial_lower requires n <= 2000, got 200000"),
            # Every rung from --digits up is built: 2pi at 30000 digits takes seconds.
            ("lemma43 --constant --digits 30000",
             "interval checks require 1 <= digits <= 400, got 30000"),
            ("lemma46 --n 55 --digits 401", "interval checks require 1 <= digits <= 400, got 401"),
            ("prop42 --from 7 --to 100000000", "check_witness requires n <= 2000, got 100000000"),
            # Fraction would expand the exponent to 16 million digits first.
            ("thmB --rat 1e16000000 --index 2",
             "--rat '1e16000000' must be an integer a or a ratio a/b"),
            ("prop23 --rat-g 1e16000000 --rat-gn 1 --order-n 2",
             "--rat-g '1e16000000' must be an integer a or a ratio a/b"),
            ("prop23 --rat-g 2 --rat-gn 1.5 --order-n 2",
             "--rat-gn '1.5' must be an integer a or a ratio a/b"),
        ],
    )
    def test_unbounded_inputs_rejected_quickly(self, argv, reason, capsys):
        start = time.perf_counter()
        code, doc = _run_json(capsys, argv.split())
        assert time.perf_counter() - start < 1.0
        assert code == 2 and doc["status"] == "error"
        assert reason in doc["error"]
        # Under 1 KB beyond what the reason itself quotes of a long input.
        assert len(json.dumps(doc)) < 1024 + len(reason)

    @pytest.mark.parametrize(
        "document, reason",
        [
            pytest.param(
                "",
                '--json: expected a JSON {"factors": [...]} document: '
                "Expecting value: line 1 column 1 (char 0)",
                id="empty",
            ),
            ("[]", 'a chief series is a JSON object {"factors": [...]}'),
            ("null", 'a chief series is a JSON object {"factors": [...]}'),
            ("{}", 'a chief series is a JSON object {"factors": [...]}'),
            ('{"factors": 5}', 'a chief series is a JSON object {"factors": [...]}'),
            ('{"factors": [1]}', "chief factor 0 must be a JSON object, got 1"),
            ('{"factors": [{"label": "A8"}]}', "chief factor 0 has no 'order'"),
            (
                '{"factors": [{"order": "20160", "abelian": "false"}]}',
                "chief factor 0: 'abelian' must be true or false, got \"false\"",
            ),
            (
                '{"factors": [{"order": "2", "abelian": true}, {"order": "168", "psl2": 1}]}',
                "chief factor 1: 'psl2' must be true or false, got 1",
            ),
            (
                '{"factors": [{"order": 20160.9, "multiplicity": 2.9}]}',
                "chief factor 0: 'order' must be a JSON integer or a decimal string, got 20160.9",
            ),
            (
                '{"factors": [{"order": 20160, "multiplicity": 2.9}]}',
                "chief factor 0: 'multiplicity' must be a JSON integer or a decimal string, got 2.9",
            ),
            pytest.param(
                # 400 nines overflow a float, which json.dumps shows as Infinity.
                f'{{"factors": [{{"order": 60, "multiplicity": {"9" * 400}.5}}]}}',
                "chief factor 0: 'multiplicity' must be a JSON integer or a decimal string, "
                f"got {'9' * 400}.5",
                id="400-digit float literal",
            ),
            (
                '{"factors": [{"order": true}]}',
                "chief factor 0: 'order' must be a JSON integer or a decimal string, got true",
            ),
            (
                '{"factors": [{"order": "-60"}]}',
                "chief factor 0: 'order' must be a JSON integer or a decimal string, got \"-60\"",
            ),
            # No chief factors: no group to certify, not a bound of 1.
            ('{"factors": []}', "a chief series has at least one factor; 'factors' is empty"),
            (
                '{"factors": [{"order": 60, "label": {"a": [1, 2]}}]}',
                "chief factor 0: 'label' must be a JSON string, got {\"a\": [1, 2]}",
            ),
            (
                '{"factors": [{"order": 60, "label": null}]}',
                "chief factor 0: 'label' must be a JSON string, got null",
            ),
            # A mistyped key is refused, not dropped.
            (
                '{"factors": [{"order": "60", "psl_2": true}]}',
                'chief factor 0 has the unknown key "psl_2"; a chief factor takes only '
                "label, order, multiplicity, abelian, psl2",
            ),
            (
                '{"factors": [{"order": "2", "abelian": true}, {"label": "A8", "ordr": 20160}]}',
                'chief factor 1 has the unknown key "ordr"; a chief factor takes only '
                "label, order, multiplicity, abelian, psl2",
            ),
            # An abelian chief factor is elementary abelian, of order p**k.
            (
                '{"factors": [{"order": "20160"}, {"order": "6", "abelian": true}]}',
                'chief factor 1: flagged "abelian" (elementary, of order p**k), '
                "but its order 6 is not a prime power",
            ),
            # The descriptor's own refusals name the factor too.
            ('{"factors": [{"order": "1"}]}', "chief factor 0: factor order must be at least 2"),
            (
                '{"factors": [{"order": 60}, {"order": 60, "multiplicity": "0"}]}',
                "chief factor 1: multiplicity must be at least 1",
            ),
            pytest.param(
                '{"factors": ' + "[" * 500 + "]" * 500 + "}",
                "--json: the document is nested too deeply to read",
                id="nested 500 deep",
            ),
        ],
    )
    def test_malformed_chief_series_rejected(self, document, reason, capsys):
        code, doc = _run_json(capsys, ["chiefseries-bound", "--json", document])
        assert code == 2
        assert doc == {"status": "error", "error": reason}

    def test_large_abelian_orders_are_decided_quickly(self, capsys, tmp_path):
        # One gcd and one modular power decide 2**131071, where exact roots
        # for every prime below its bit length take about a second each.
        path = tmp_path / "series.json"
        factor = {"order": str(2 ** 131071), "abelian": True}
        path.write_text(json.dumps({"factors": [factor] * 10}))
        start = time.perf_counter()
        code, doc = _run_json(capsys, ["chiefseries-bound", "--file", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, doc["rat14_lower_bound"]) == (0, "1")

    def test_large_abelian_orders_without_small_factors_are_decided_quickly(
        self, capsys, tmp_path
    ):
        # 257**16369 has 131,045 bits and no prime factor below 256, so each
        # prime ell below 16,381 is tried as its exponent, and residue tests
        # rule out all but 16369.  0.6-0.8 s in-process (2-CPU x86-64 box),
        # where testing residues of the whole order took about 3 s.
        path = tmp_path / "series.json"
        factor = {"order": str(257 ** 16369), "abelian": True}
        path.write_text(json.dumps({"factors": [factor] * 20 + [{"order": "20160"}]}))
        start = time.perf_counter()
        code, doc = _run_json(capsys, ["chiefseries-bound", "--file", str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, doc["rat14_lower_bound"]) == (0, "20160")

    def test_truncated_chief_series_file_names_the_path(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text('{"factors": [\n')
        code, doc = _run_json(capsys, ["chiefseries-bound", "--file", str(path)])
        assert code == 2
        assert doc == {
            "status": "error",
            "error": f'--file {str(path)!r}: expected a JSON {{"factors": [...]}} document: '
            "Expecting value: line 2 column 1 (char 14)",
        }

    def test_deeply_nested_chief_series_file_refused(self, tmp_path):
        # json.loads itself runs out of stack on this one: an error naming
        # the source (exit 2), not a traceback and exit 1, a "fail" verdict.
        path = tmp_path / "series.json"
        path.write_text('{"factors": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, _ = _fresh_run(["chiefseries-bound", "--file", str(path)])
        assert code == 2
        assert json.loads(out) == {
            "status": "error",
            "error": f"--file {str(path)!r}: the document is nested too deeply to read",
        }

    def test_long_chief_factor_echo_is_capped(self, capsys, tmp_path):
        # The message shows the start of a malformed value, so the error
        # document does not grow with the input (1.3 MB here).
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"factors": [list(range(200_000))]}))
        code = main(["chiefseries-bound", "--file", str(path)])
        out = capsys.readouterr().out
        assert code == 2 and len(out.encode()) < 1024
        error = json.loads(out)["error"]
        assert error.startswith("chief factor 0 must be a JSON object, got [0, 1, 2, 3")

    def test_long_chief_series_file_refused_quickly(self, capsys, tmp_path):
        # The file is read up to one character past the cap, so a longer one
        # is refused without being read to its end; at the cap it is parsed.
        path = tmp_path / "series.json"
        path.write_text(" " * (cli.SERIES_FILE_MAX_CHARS + 1))
        start = time.perf_counter()
        code, doc = _run_json(capsys, ["chiefseries-bound", "--file", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert doc == {
            "status": "error",
            "error": f"--file {str(path)!r} is longer than {2**24} characters",
        }
        path.write_text(" " * cli.SERIES_FILE_MAX_CHARS)
        code, doc = _run_json(capsys, ["chiefseries-bound", "--file", str(path)])
        assert code == 2 and doc["error"].startswith(f"--file {str(path)!r}: expected a JSON")
        path.unlink()

    def test_chiefseries_bound_reads_no_stdin(self):
        # Without --json or --file it is refused at once, even with stdin
        # left open: no input is read from anywhere else.
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", "chardeg.cli", "chiefseries-bound"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_fresh_env(), cwd=REPO_ROOT,
        ) as proc:
            code = proc.wait(timeout=10)
            out = proc.stdout.read()
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert json.loads(out) == {
            "status": "error", "error": "chiefseries-bound requires --json or --file"
        }

    @pytest.mark.parametrize("quote", ['"', ""], ids=["string", "json-integer"])
    def test_million_digit_chief_factor_refused_quickly(self, quote, tmp_path):
        # int() on a million digits takes seconds; the text is refused first.
        path = tmp_path / "series.json"
        path.write_text(f'{{"factors": [{{"order": {quote}{"7" * 10 ** 6}{quote}}}]}}')
        start = time.perf_counter()
        code, out, _ = _fresh_run(["chiefseries-bound", "--file", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert json.loads(out) == {
            "status": "error",
            "error": "chief factor 0: 'order' has more than 39457 digits",
        }

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("thmB --rat 1/0 --index 3", "--rat '1/0'"),
            ("prop23 --rat-g 1/0 --rat-gn 1 --order-n 3", "--rat-g '1/0'"),
            ("prop23 --rat-g 2 --rat-gn 5/0 --order-n 3", "--rat-gn '5/0'"),
        ],
    )
    def test_zero_denominator_names_the_flag(self, argv, flag, capsys):
        code, doc = _run_json(capsys, argv.split())
        assert code == 2
        assert doc == {"status": "error", "error": f"{flag} has a zero denominator"}

    @pytest.mark.parametrize(
        "text", ["-2", "+2", "1_000", " 2", "2/ 3", "2/3/4", "", "\u0663"]
    )
    def test_ratio_is_an_integer_or_a_ratio(self, text, capsys):
        # Signs, underscores, whitespace and non-ASCII digits are refused
        # like the decimal and exponent rows of
        # test_unbounded_inputs_rejected_quickly, all before Fraction reads
        # the text.
        code, doc = _run_json(capsys, ["thmB", f"--rat={text}", "--index", "2"])
        assert code == 2
        assert doc == {
            "status": "error", "error": f"--rat {text!r} must be an integer a or a ratio a/b"
        }

    def test_memory_error_is_an_error_document(self, monkeypatch, capsys):
        # exit 1 is a "fail" verdict; running out of memory is an error
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_gamma", exhausted)
        code, doc = _run_json(capsys, ["gamma", "--m", "3"])
        assert code == 2
        assert doc == {"status": "error", "error": "out of memory"}

    @pytest.mark.parametrize("command", ["validate-data", "sporadic-check"])
    def test_long_table_integer_refused_quickly(self, command, capsys, tmp_path):
        # int() on 400,000 digits takes over a second; the field is refused first.
        (tmp_path / "big.tsv").write_text(f"# one table\nX\t{'7' * 400_000}\t1\t\t\t\n")
        start = time.perf_counter()
        code, doc = _run_json(capsys, [command, "--data", str(tmp_path)])
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert doc == {"status": "error",
                       "error": f"{tmp_path / 'big.tsv'}: line 2: order has more than 39457 digits"}

    @pytest.mark.parametrize("command", ["validate-data", "sporadic-check"])
    def test_duplicate_table_names_rejected(self, command, capsys, tmp_path):
        line = "M11\t7920\t1,10,10,10,11,16,16,44,45,55\t1\t55,10\t\n"
        (tmp_path / "a.tsv").write_text(line)
        (tmp_path / "b.tsv").write_text(line)
        code, doc = _run_json(capsys, [command, "--data", str(tmp_path)])
        assert code == 2 and "duplicate table names" in doc["error"]


def test_readme_command_lines_parse():
    # Every example in the README's command-line block must still be accepted
    # by the parser; nothing is run.
    lines = readme_command_lines()
    assert len(lines) > 20
    for argv in lines:
        args = parse_args(argv)
        assert callable(args.handler), argv


def _outcome(parse, argv, capsys):
    # What parsing argv and running its handler gives: the result or the
    # error text.  A usage error also writes a usage line to stderr.
    try:
        args = parse(argv)
        result = args.handler(args)
    except ValueError as exc:
        err = capsys.readouterr().err
        assert err.startswith("usage: chardeg") or not str(exc).startswith("chardeg"), argv
        return "error", str(exc)
    return "ran", result


def _parse_outcome(parse, argv):
    # The namespace, ("error", message) or ("exit", code) of parsing argv.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except ValueError as exc:
            return "error", str(exc)
        except SystemExit as exc:
            return "exit", exc.code


def _flag_words() -> list[str]:
    # Every command name, and every flag as itself, its 4-character prefix
    # and its "=" form.
    words = set()
    for name, _, _, arguments, exclusive in cli.command_table():
        words.add(name)
        for flag, _ in [*arguments, *(a for group in exclusive for a in group), ("--help", {})]:
            words |= {flag, flag[:4], f"{flag}=1"}
    return sorted(words)


_WORDS = _flag_words()
_ODD_TOKENS = ["--", "-", "-h", "--he", "-hx", "-1", "-2.5", "-.5", "7", "a b"]
# argparse's reading of the same command table, which parse_args hands
# every argv that is not in the plain form.
_REFERENCE = cli.build_parser(cli.command_table())


def _near_plain(row):
    # (row, argv after the command): the row's required flags or none, then
    # up to three items, each a flag of the row alone or with a value (7 if
    # typed, else x or "a b"), or any word above.
    flags = [*row[3], *(a for group in row[4] for a in group)]
    items = [[flag] for flag, _ in flags] + [
        [flag, v] for flag, spec in flags if "action" not in spec
        for v in (["7"] if "type" in spec else ["x", "a b"])]
    required = [[flag, "7" if "type" in spec else "x"]
                for flag, spec in row[3] if spec.get("required")]
    words = st.sampled_from(items) | st.sampled_from(_WORDS + _ODD_TOKENS).map(lambda w: [w])
    return st.builds(lambda head, rest: (row, sum(head + rest, [])),
                     st.sampled_from([required, []]), st.lists(words, max_size=3))


class TestSingleRowParser:
    """parse_args must parse, and fail, as argparse over the same command
    table does."""

    def test_same_namespace_as_full_parser(self, monkeypatch):
        # Every argv the benchmark runs, and every README example, is in the
        # plain form, which parse_args reads without building argparse's
        # parser: every query variant, one pass of each workload at a fixed
        # seed and every README command line.
        workloads = load_workloads()
        golden = workloads.load_golden()
        argvs = [list(a) for a in workloads.all_query_variants()] + readme_command_lines()
        assert len(argvs) > 160
        for workload in workloads.WORKLOADS.values():
            commands, _ = workload.make_pass(golden, 7, 0)
            argvs += [list(command.argv) for command in commands]
        expected = [vars(_REFERENCE.parse_args(argv)) for argv in argvs]

        def refuse(table):
            raise AssertionError("build_parser called")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv, full in zip(argvs, expected):
            one = vars(parse_args(argv))
            assert one.pop("handler") is full.pop("handler"), argv
            assert one == full, argv

    @pytest.mark.parametrize(
        "argv, field, value",
        [
            ("prop42 --fr 7 --to 9", "start", 7),
            ("thm21 --fam E8 --q 2", "family", "E8"),
            ("prop42 --n=7", "n", 7),
            ("prop42 --n 7 --n 8", "n", 8),
            ("lemma46 --n 64 --digits -1", "digits", -1),
            ("thmB --rat= --index 2", "rat", ""),
        ],
    )
    def test_same_namespace_on_flag_forms(self, argv, field, value):
        # A unique prefix, "=", a repeated flag (the last wins) and a
        # negative number as a value.
        one, full = parse_args(argv.split()), _REFERENCE.parse_args(argv.split())
        assert vars(one) == vars(full)
        assert getattr(one, field) == value

    @pytest.mark.parametrize(
        "argv",
        [
            "sweep --jsonl --csv",
            "prop42 --n 5 --from 7",
            "order --family linear",
            "prop42 --n 7 --bogus",
            "lemma46 --n x",
            "",
            "no-such-command",
            "--bogus prop42 --n 7 extra",
            "prop42 --n 7 extra",
            "prop42 --n",
            "sweep --families --jsonl",
            "lemma43 --constant --n 20",
            "lemma43 --n 20 --constant",
            "chiefseries-bound --file a --json {}",
            "out-bound --x 2 --bogus",
            "prop23 --rat 2 --rat-gn 1 --order-n 3",
            "prop42 --jsonl=1",
            "sweep --help=x",
            "prop42 --n 7 -- 8",
            "-- prop42",
            "--",
            "sweep -- -h",
            "prop42 --n -- 7",
            "lemma46 --n 1x --n 2",
            "gamma --m -x",
        ],
    )
    def test_same_usage_errors(self, argv, capsys):
        argv = argv.split()
        one = _outcome(parse_args, argv, capsys)
        assert one[0] == "error"
        assert one == _outcome(_REFERENCE.parse_args, argv, capsys)

    @pytest.mark.parametrize(
        "argv, words",
        [
            ("hook", ["chardeg hook", "--partition"]),
            ("sweep --jsonl --csv", ["chardeg sweep", "not allowed with", "--jsonl", "--csv"]),
            ("lemma46 --n x", ["chardeg lemma46", "--n", "'x'"]),
        ],
    )
    def test_usage_error_document(self, argv, words, capsys):
        # build_parser's own reading of the table, in words every argparse
        # version writes: the usage line on stderr, exit 2 and the JSON error
        # document naming the command and the flags.
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"usage: {words[0]} [-h]")
        doc = json.loads(out)
        assert doc["status"] == "error" and all(w in doc["error"] for w in words), doc

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.one_of([_near_plain(row) for row in cli.command_table()]))
    def test_same_outcome_on_any_argv(self, row_argv):
        # Wherever _plain reads an argv, its namespace is argparse's;
        # parse_args hands every other argv to argparse itself.
        row, argv = row_argv
        one = cli._plain(row, argv)
        if one is not None:
            assert vars(one) == _parse_outcome(_REFERENCE.parse_args, [row[0], *argv]), argv

    def test_subcommand_help_names_every_flag(self, capsys):
        for name, _, help_text, arguments, exclusive in cli.command_table():
            with pytest.raises(SystemExit) as err:
                main([name, "--help"])
            assert err.value.code == 0
            # Compared without whitespace, as argparse wraps help text (at
            # hyphens too).
            out = "".join(capsys.readouterr().out.split())
            assert "".join(help_text.split()) in out, name
            for flag, spec in [*arguments, *(a for group in exclusive for a in group)]:
                assert flag in out and "".join(spec.get("help", "").split()) in out, (name, flag)

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        names = [row[0] for row in cli.command_table()]
        assert "{" + ",".join(names) + "}" in out
        for name in names:
            assert re.search(rf"^ +{re.escape(name)}( |$)", out, re.M), name

    @pytest.mark.parametrize("argv", ["-h", "--he", "--help --help", "-h prop42", "--h prop42"])
    def test_top_level_help_is_one_text(self, argv, capsys):
        # "chardeg --help" is printed without argparse; argparse prints the
        # same text for every other help form before a command.
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(argv.split())
        assert err.value.code == 0 and capsys.readouterr().out == text


# Strings with what JSON escapes: quotes, backslashes, control characters,
# DEL, non-ASCII, astral characters and lone surrogates.
_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x1f\x7f\x80\u2028\ud800\udfff\U0001f600\U0010ffff'),
    )
)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(10 ** 4300, 10 ** 4400).map(lambda x: -x),
    _TEXT,
)


class TestJsonWriter:
    """cli._json writes a document byte for byte as json.dumps does."""

    @given(st.recursive(_SCALAR, lambda inner: st.lists(inner) | st.dictionaries(_TEXT, inner)))
    def test_matches_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value)

    def test_tuple_is_a_list(self):
        assert cli._json({"a": (1, "b", None)}) == json.dumps({"a": (1, "b", None)})

    @pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": {2}}, [b"x"], cli.CommandResult("pass", {})])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


def _fresh_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _fresh_run(argv: list[str]) -> tuple[int, str, set[str]]:
    # `python -X importtime -m chardeg.cli argv` in a new interpreter: the exit
    # code, stdout, and every module the run imported (importtime's stderr).
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "chardeg.cli", *argv],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        cwd=REPO_ROOT,
        stdin=subprocess.DEVNULL,
        timeout=60,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, proc.stdout, modules


class TestStartup:
    """A command imports only the layer module its handler runs."""

    @pytest.mark.parametrize(
        "argv, layer, absent",
        [
            (
                "prop42 --n 7",
                "chardeg.alternating",
                {"chardeg.lie_type", "chardeg.degree_data", "chardeg.structure_bounds"},
            ),
            ("lemma43 --n 250", "chardeg.alternating", set()),
            ("lemma46 --n 55 --digits 1", "chardeg.alternating", set()),
            (
                "sweep --families G2 --q-max 8",
                "chardeg.lie_type",
                {"chardeg.alternating", "chardeg.partitions"},
            ),
            ("maroti --n 5 --d 4", "chardeg.structure_bounds", set()),
            ("sporadic-check --data data", "chardeg.degree_data", set()),
            ("thmB --rat 16/5 --index 20000000000", "chardeg.structure_bounds", set()),
            ("prop23 --rat-g 16/5 --rat-gn 1 --order-n 20160", "chardeg.structure_bounds", set()),
            ("rat --degrees 1,20,35,45,63,64", "chardeg.degree_data", set()),
            ("example-frobenius --p 7 --m 3", "chardeg.structure_bounds", set()),
            ("prop42 --from 7 --to 9 --jsonl", "chardeg.alternating", set()),
            ("sweep --families E8 --q-max 8 --jsonl", "chardeg.lie_type", set()),
            ("sweep --families E8 --q-max 8 --csv", "chardeg.lie_type", set()),
        ],
    )
    def test_loads_only_its_layer(self, argv, layer, absent):
        # No command parses argv with argparse, and only chiefseries-bound,
        # which reads a JSON document, imports json: documents, JSON lines
        # and CSV rows are written without it.
        absent = absent | {"fractions", "decimal", "argparse", "json"}
        code, out, modules = _fresh_run(argv.split())
        assert code == 0
        if "--csv" in argv:
            assert out.startswith("family,rank,q,status,")
        elif "--jsonl" in argv:
            assert all(isinstance(json.loads(line), dict) for line in out.splitlines())
        else:
            assert json.loads(out)["status"] == "pass"
        assert layer in modules
        assert not absent & modules

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help_skips_argparse(self, flag):
        # perfbench's setup_s times start-up on "chardeg --help", so the
        # commands are listed without building argparse's parsers.
        code, out, modules = _fresh_run([flag])
        assert code == 0 and "validate-data" in out
        assert not {"argparse", "json"} & modules

    def test_long_integer_arguments_convert(self):
        # 5001 digits is over the interpreter's default int-to-str limit of
        # 4300, so the parser's int() conversion needs exact_arith's lifted one.
        big = "1" * 5001
        code, out, _ = _fresh_run(["thmB", "--rat", "3", "--index", big])
        assert code == 1 and json.loads(out) == {"status": "fail", "holds": False}
        code, out, _ = _fresh_run(["prop32", "--order", big])
        assert code == 2 and json.loads(out) == {
            "status": "error",
            "error": "solvable_index_bound would build an integer of up to 2375230 bits, "
            "more than 131072",
        }


class TestFreshProcessExit:
    """`python -m chardeg.cli` ends as in-process main does: the same stdout
    bytes, exit code and stderr, on large output and on every exit path."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("sweep --families E8 --q-max 8192 --jsonl", 0),
            ("thmB --rat 2 --index 3000000", 1),
            ("thm21 --family linear --rank 4 --q 6", 2),
            ("--help", 0),
        ],
    )
    def test_matches_in_process_main(self, argv, code, capsys):
        try:
            in_code = main(argv.split())
        except SystemExit as exc:
            in_code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "chardeg.cli", *argv.split()],
            capture_output=True,
            env=_fresh_env(),
            cwd=REPO_ROOT,
            stdin=subprocess.DEVNULL,
            timeout=60,
        )
        assert (proc.returncode, in_code) == (code, code)
        assert proc.stdout == captured.out.encode()
        assert proc.stderr == captured.err.encode()
        assert proc.stdout

    @pytest.mark.parametrize("argv", ["lemma43 --n 15", "--help"])
    def test_both_entry_points_freeze_the_heap(self, argv):
        # The installed chardeg script calls its [project.scripts] target as
        # sys.exit(target()); python -m runs the module as __main__.  Both
        # leave the heap frozen for teardown, --help's SystemExit included.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["chardeg"]
        module, _, attr = target.partition(":")
        entries = [
            f"from {module} import {attr}; sys.exit({attr}())",
            "import runpy; runpy.run_module('chardeg.cli', run_name='__main__')",
        ]
        outputs = []
        for entry in entries:
            code = (
                "import atexit, gc, sys\n"
                "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
                f"sys.argv = ['chardeg', *{argv.split()!r}]\n{entry}\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=_fresh_env(), cwd=REPO_ROOT, stdin=subprocess.DEVNULL, timeout=60,
            )
            assert (proc.returncode, proc.stderr) == (0, "True\n"), entry
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and outputs[0]

    @pytest.mark.parametrize(
        "argv",
        ["sweep --families classical --rank-max 20 --q-max 32", "prop42 --from 7 --to 300 --jsonl"],
    )
    def test_closed_stdout_is_an_error(self, argv):
        # The reader takes 10 bytes of 1.5 MB or 138 kB, more than a pipe
        # holds, and closes: the output did not arrive, so the exit is 2
        # (not 1, a "fail" verdict) and there is no traceback.
        with subprocess.Popen(
            [sys.executable, "-m", "chardeg.cli", *argv.split()],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_fresh_env(), cwd=REPO_ROOT, bufsize=0,
        ) as proc:
            assert proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (2, b"")

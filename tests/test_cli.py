import json
import re
import shlex
import time

import pytest

from chardeg.cli import build_parser, main, run
from conftest import REPO_ROOT


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

    def test_rat(self, capsys):
        code, doc = _run_json(capsys, ["rat", "--degrees", "1,20,35,45,63,64"])
        assert code == 0 and doc["rat"] == "16/5"


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
            assert code == 2 and doc["status"] == "error"
            assert "--digits" in doc["error"]

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

    @pytest.mark.parametrize(
        "argv, reason",
        [
            ("cyclotomic --k 100000", "k <= 1000"),
            ("example-frobenius --p 1000000007 --m 2", "more than 100000"),
            ("example-extraspecial --p 2 --i 200000", "more than 131072"),
            ("maroti --n 2000 --d 100", "more than 131072"),
            ("sweep --families E8 --q-max 300000", "q_max 300000 is above the maximum 65536"),
            ("sweep --families linear --rank-max 3000", "rank_max 3000 is above the maximum 100"),
            ("order --family linear --rank 3000 --q 2", "rank 3000 is above the maximum 100"),
            pytest.param(
                f"order --family linear --rank 100 --q {2 ** 256}",
                "up to 2569743 bits, more than 131072",
                id="order --family linear --rank 100 --q 2**256",
            ),
            pytest.param(
                f"order --family linear --rank 3 --q {6 ** 4000}",
                "is_prime is exact only below",
                id="order --family linear --rank 3 --q 6**4000",
            ),
            (
                "sweep --families linear --rank-max 100 --q-max 65536",
                "the order of linear would build an integer of up to 169983 bits",
            ),
            pytest.param(
                f"prop32 --order {10 ** 1000}",
                "solvable_index_bound would build an integer of up to 475046 bits",
                id="prop32 --order 10**1000",
            ),
        ],
    )
    def test_unbounded_inputs_rejected_quickly(self, argv, reason, capsys):
        start = time.perf_counter()
        code, doc = _run_json(capsys, argv.split())
        assert time.perf_counter() - start < 1.0
        assert code == 2 and doc["status"] == "error"
        assert reason in doc["error"]

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
    readme = (REPO_ROOT / "README.md").read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("chardeg ")]
    assert len(lines) > 20
    for line in lines:
        args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.handler), line

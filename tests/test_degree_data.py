import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chardeg.cli import main
from chardeg.degree_data import (
    DegreeTable,
    TableError,
    check_exponent_bound,
    check_extendible_pair,
    load_dir,
    parse_table,
    parse_tables,
    rat,
)

M11_LINE = "M11\t7920\t1,10,10,10,11,16,16,44,45,55\t1\t55,10\t"


class TestParsing:
    def test_example_line(self):
        t = parse_table(M11_LINE)
        assert t.name == "M11"
        assert t.order == 7920
        assert max(t.degrees) == 55
        assert min(d for d in t.degrees if d > 1) == 10
        assert t.out_order == 1
        assert t.extendible_pair == (55, 10)
        assert t.fitting_index is None

    def test_missing_degree_one_is_validation_error(self):
        with pytest.raises(TableError):
            parse_table("X\t10\t2,3\t\t\t")

    def test_empty_degrees_is_parse_error(self):
        with pytest.raises(TableError):
            parse_table("X\t10\t\t\t\t")

    def test_malformed_line_reports_line_number(self):
        text = "# comment\nM11\t7920\t1,10\t\t\t\nbroken\n"
        with pytest.raises(TableError) as err:
            parse_tables(text)
        assert "line 3" in str(err.value)

    def test_extra_column_refused(self, tmp_path, capsys):
        # a seventh column is refused with its line number, in parse_tables
        # and in validate-data, rather than dropped
        with pytest.raises(TableError, match=r"^line 2: expected at most 6 columns .* got 7$"):
            parse_tables("# comment\nA5\t60\t1,3,3,4,5\t1\t\t\textra\n")
        (tmp_path / "extra.tsv").write_text("A5\t60\t1,3,3,4,5\t1\t\t\textra\n")
        assert main(["validate-data", "--data", str(tmp_path)]) == 2
        assert "line 1: expected at most 6 columns" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("line, reason", [
        ("X\t6_0\t1,2,3\t\t\t", "bad order '6_0'"),  # int() reads 60
        ("X\t60\t1,\u0665\t\t\t", "bad degree '\u0665'"),  # int() reads 5
        ("X\t-6\t1\t\t\t", "bad order '-6'"),
    ])
    def test_integers_are_ascii_digits(self, line, reason, tmp_path, capsys):
        # A field takes only the digits 0-9, and load_dir names the file and line.
        with pytest.raises(TableError, match=f"^{re.escape(reason)}$"):
            parse_table(line)
        (tmp_path / "x.tsv").write_text(f"# one table\n{line}\n")
        assert main(["validate-data", "--data", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == f"{tmp_path / 'x.tsv'}: line 2: {reason}"

    def test_integer_digit_cap(self):
        # The cap is the digit count of 2**POWER_MAX_BITS: at the cap a field
        # converts, and one digit more is refused, naming the field and line.
        at_cap = "9" * 39_457
        assert parse_table(f"X\t{at_cap}\t1,3\t\t\t").order == 10 ** 39_457 - 1
        for line, field in ((f"X\t{'7' * 40_000}\t1\t\t\t", "order"),
                            (f"X\t\t1,{at_cap}9\t\t\t", "degree"),
                            (f"X\t6\t1\t\t\t{'1' * 40_000}", "fitting index")):
            with pytest.raises(TableError, match=f"^line 4: {field} has more than 39457 digits$"):
                parse_tables("#\n" * 3 + line)

    def test_out_order_and_fitting_index_at_least_one(self, tmp_path, capsys):
        with pytest.raises(TableError, match="^Y: out order must be at least 1, got 0$"):
            DegreeTable("Y", (1, 2), out_order=0)
        with pytest.raises(TableError, match="^Y: fitting index must be at least 1, got -1$"):
            DegreeTable("Y", (1, 2), out_order=1, fitting_index=-1)
        (tmp_path / "x.tsv").write_text("X\t60\t1,3,3,4,5\t0\t\t0\n")
        assert main(["validate-data", "--data", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == f"{tmp_path / 'x.tsv'}: line 1: X: out order must be at least 1, got 0"

    def test_pair_must_appear_in_degrees(self):
        with pytest.raises(TableError):
            parse_table("X\t10\t1,2,3\t\t5,2\t")

    def test_comments_and_blanks_skipped(self):
        tables = parse_tables("# header\n\n" + M11_LINE + "\n")
        assert len(tables) == 1

    def test_parse_matches_constructed_table(self):
        t = parse_table(M11_LINE)
        assert t == DegreeTable(
            "M11", (1, 10, 10, 10, 11, 16, 16, 44, 45, 55), 7920, 1, (55, 10), None
        )
        assert parse_tables(M11_LINE + "\n") == [t]

    def test_degrees_sorted_on_construction(self):
        positional = DegreeTable("x", (10, 1, 5, 1), 200)
        keyword = DegreeTable(degrees=(10, 1, 5, 1), name="x", order=200)
        assert positional.degrees == keyword.degrees == (1, 1, 5, 10)
        assert positional == keyword

    def test_degree_must_divide_order(self):
        with pytest.raises(TableError, match="^line 4: X: degree 3 does not divide the order 10$"):
            parse_tables("#\n" * 3 + "X\t10\t1,2,3\t\t\t")
        # every degree divides 0, so a nonpositive order is rejected first
        for order in (0, -6):
            with pytest.raises(TableError):
                parse_table(f"X\t{order}\t1,2,3\t\t3,2\t")

    def test_squared_degrees_must_not_exceed_order(self):
        # every degree divides 24, but 1 + 4 + 9 + 16 = 30 > 24
        with pytest.raises(
            TableError, match="^line 7: X: the squared degrees sum to 30, more than the order 24$"
        ):
            parse_tables("#\n" * 6 + "X\t24\t1,2,3,4\t\t\t")
        # equality is the complete table, and a partial one stays below it
        assert parse_table("S3\t6\t1,1,2\t\t\t").order == 6
        assert parse_table("S3\t6\t1,2\t\t\t").order == 6


class TestRat:
    def test_abelian_convention(self):
        assert rat(DegreeTable("a", (1, 1, 1))) == (1, 1)

    def test_pgl2_shape(self):
        q = 5
        assert rat(DegreeTable("pgl", (1, q - 1, q, q + 1))) == (q + 1, q - 1)

    def test_psl34_value(self):
        # b = 64 and c = 20, unreduced; the ratio is 16/5
        value = rat(DegreeTable("l34", (1, 20, 35, 45, 63, 64)))
        assert value == (64, 20) and Fraction(*value) == Fraction(16, 5)

    def test_single_nonlinear_degree(self):
        assert rat(DegreeTable("f", (1, 1, 3, 3))) == (3, 3)

    @given(
        degrees=st.lists(st.integers(1, 60), min_size=1, max_size=12).map(
            lambda ds: tuple(sorted(set(ds) | {1}))
        ),
        dup=st.integers(0, 11),
    )
    def test_duplication_invariance(self, degrees, dup):
        base = DegreeTable("x", degrees)
        duplicated = DegreeTable("x", degrees + (degrees[dup % len(degrees)],))
        assert rat(base) == rat(duplicated)
        # the pair is (max degree, min nonlinear degree), a ratio >= 1
        nonlinear = [d for d in degrees if d > 1]
        assert rat(base) == ((max(nonlinear), min(nonlinear)) if nonlinear else (1, 1))
        assert Fraction(*rat(base)) >= 1

    def test_rat_one_iff_small_nonlinear_support(self):
        for degrees in ((1,), (1, 7), (1, 7, 7), (1, 2, 3)):
            value = Fraction(*rat(DegreeTable("x", degrees)))
            support = {d for d in degrees if d > 1}
            assert (value == 1) == (len(support) <= 1)


class TestPairCheck:
    def test_boundary_equality_fails(self):
        # alpha**14 == beta**14 * order exactly: strict inequality required
        table = DegreeTable("edge", (1, 2, 4), order=2 ** 14, extendible_pair=(4, 2))
        assert check_extendible_pair(table) is False
        # the largest order below the boundary that every degree divides
        table = DegreeTable("edge", (1, 2, 4), order=2 ** 14 - 4, extendible_pair=(4, 2))
        assert check_extendible_pair(table) is True

    def test_degenerate_beta_rejected(self):
        table = DegreeTable("bad", (1, 50), order=2550, extendible_pair=(50, 1))
        with pytest.raises(TableError):
            check_extendible_pair(table)

    def test_missing_fields_unchecked(self):
        # No order, or no pair: nothing to check, which is not a failure.
        assert check_extendible_pair(DegreeTable("partial", (1, 5, 9))) is None
        assert check_extendible_pair(DegreeTable("partial", (1, 5, 9), order=450)) is None
        assert check_extendible_pair(
            DegreeTable("partial", (1, 5, 9), extendible_pair=(9, 5))
        ) is None

    def test_extendibility_labelled_as_asserted(self, capsys, tmp_path):
        # The label is part of the CLI record, not of the verdict.
        (tmp_path / "m11.tsv").write_text(M11_LINE + "\n")
        assert main(["sporadic-check", "--data", str(tmp_path)]) == 0
        (record,) = json.loads(capsys.readouterr().out)["records"]
        assert record["name"] == "M11" and record["extendibility"] == "asserted by data"

    def test_unchecked_records_keep_their_shape(self, capsys, tmp_path):
        # sporadic-check builds each record from the table and its verdict:
        # an unchecked table shows no pair, and its order when it has one.
        (tmp_path / "x.tsv").write_text(
            M11_LINE + "\nP\t\t1,5,9\t\t9,5\nQ\t450\t1,5,9\n"
        )
        assert main(["sporadic-check", "--data", str(tmp_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["checked"], doc["unchecked"], doc["failures"]) == (1, ["P", "Q"], [])
        assert [
            {k: r[k] for k in ("name", "status", "passed", "alpha", "beta", "order")}
            for r in doc["records"][1:]
        ] == [
            {"name": "P", "status": "unchecked", "passed": None, "alpha": None, "beta": None,
             "order": None},
            {"name": "Q", "status": "unchecked", "passed": None, "alpha": None, "beta": None,
             "order": "450"},
        ]


class TestShippedData:
    def test_all_entries_pass(self, data_dir):
        tables = load_dir(data_dir)
        names = {t.name for t in tables}
        assert len(tables) == 28  # 26 sporadic + Tits + PSL3(4)
        assert "M" in names and "2F4(2)'" in names and "PSL3(4)" in names
        for t in tables:
            assert check_extendible_pair(t) is True, t.name

    def test_degrees_divide_order(self, data_dir):
        # character degrees divide the group order
        for t in load_dir(data_dir):
            assert t.order is not None
            for d in t.degrees:
                assert t.order % d == 0, (t.name, d)

    def test_complete_lists_satisfy_orthogonality(self, data_dir):
        # these lists are complete multisets: sum of squares equals the order
        complete = {"M11", "M12", "M22", "M23", "M24", "J1", "J2", "HS", "PSL3(4)"}
        seen = set()
        for t in load_dir(data_dir):
            if t.name in complete:
                assert sum(d * d for d in t.degrees) == t.order, t.name
                seen.add(t.name)
        assert seen == complete

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dir(tmp_path / "nope")


class TestExponentBound:
    def test_examples(self):
        assert check_exponent_bound(2, 60, 259, 1000) is True
        assert check_exponent_bound(1, 17, 3, 5) is True
        assert check_exponent_bound(18, 17, 1, 1) is False

    def test_rejects_bad_den(self):
        with pytest.raises(ValueError):
            check_exponent_bound(2, 3, 1, 0)

    def test_size_cap(self):
        # 60 has 6 bits: 60**21845 is within POWER_MAX_BITS, 60**21846 is not
        assert check_exponent_bound(60, 60, 21845, 21845) is True
        with pytest.raises(ValueError, match="check_exponent_bound would build"):
            check_exponent_bound(60, 60, 21846, 1)
        with pytest.raises(ValueError, match="check_exponent_bound would build"):
            check_exponent_bound(60, 60, 1, 21846)

    @given(
        x=st.integers(1, 10 ** 6),
        y=st.integers(2, 10 ** 6),
        num=st.integers(1, 40),
        den=st.integers(1, 40),
    )
    def test_agrees_with_high_precision_logs_when_clear(self, x, y, num, den):
        # independent route: 60-digit logarithms, consulted only when they
        # are conclusively away from the boundary
        import decimal

        with decimal.localcontext(decimal.Context(prec=60)):
            lhs = den * decimal.Decimal(x).ln()
            rhs = num * decimal.Decimal(y).ln()
            if abs(lhs - rhs) < decimal.Decimal("1e-40"):
                return  # too close to the boundary for the log route to rule
            assert check_exponent_bound(x, y, num, den) == (lhs < rhs)

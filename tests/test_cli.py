"""The command-line interface."""

import json

import pytest

from repro.cli import main, parse_update_spec
from repro.ctable import CTable, Database, cvar, eq
from repro.ctable.io import dump_database
from repro.faurelog.rewrite import Deletion, Insertion
from repro.ctable.terms import Constant
from repro.solver import BOOL_DOMAIN, DomainMap, FiniteDomain


@pytest.fixture
def db_file(tmp_path):
    db = Database()
    t = db.create_table("F", ["a", "b"])
    t.add([1, 2], eq(cvar("x"), 1))
    t.add([2, 3])
    domains = DomainMap({cvar("x"): BOOL_DOMAIN})
    path = tmp_path / "db.json"
    path.write_text(dump_database(db, domains))
    return path


class TestUpdateSpec:
    def test_insertion(self):
        op = parse_update_spec("+Lb('R&D', GS)")
        assert isinstance(op, Insertion)
        assert op.predicate == "Lb"
        assert op.values == (Constant("R&D"), Constant("GS"))

    def test_deletion_with_wildcard(self):
        op = parse_update_spec("-Lb(_, CS)")
        assert isinstance(op, Deletion)
        assert op.pattern == (None, Constant("CS"))

    def test_numbers(self):
        op = parse_update_spec("+R(Mkt, CS, 7000)")
        assert op.values[-1] == Constant(7000)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_update_spec("Lb(a, b)")
        with pytest.raises(ValueError):
            parse_update_spec("+Lb a b")
        with pytest.raises(ValueError):
            parse_update_spec("+Lb(_, b)")  # wildcard in insertion


class TestRibCommands:
    def test_generate_and_analyze(self, tmp_path, capsys):
        rib_path = tmp_path / "rib.txt"
        assert main(
            ["rib", "generate", "--prefixes", "5", "--ases", "30", "-o", str(rib_path)]
        ) == 0
        assert rib_path.exists()
        assert main(["rib", "analyze", str(rib_path)]) == 0
        out = capsys.readouterr().out
        assert "R tuples" in out

    def test_generate_to_stdout(self, capsys):
        assert main(["rib", "generate", "--prefixes", "3", "--ases", "30"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3


class TestQueryCommand:
    def test_inline_program(self, db_file, capsys):
        code = main(
            [
                "query",
                "--db",
                str(db_file),
                "--program",
                "R(a,b) :- F(a,b). R(a,b) :- F(a,c), R(c,b).",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tuples derived" in out
        assert "x̄ = 1" in out

    def test_program_file(self, db_file, tmp_path, capsys):
        prog = tmp_path / "prog.fl"
        prog.write_text("Hop(a) :- F(a, b).")
        assert main(["query", "--db", str(db_file), "--program-file", str(prog)]) == 0
        assert "Hop" in capsys.readouterr().out

    def test_output_filter(self, db_file, capsys):
        main(
            [
                "query",
                "--db",
                str(db_file),
                "--program",
                "A(a) :- F(a, b). B(b) :- F(a, b).",
                "--output",
                "A",
            ]
        )
        out = capsys.readouterr().out
        assert "A" in out.splitlines()[0]
        assert "\nB\n" not in out

    def test_bad_program_reports_error(self, db_file, capsys):
        code = main(["query", "--db", str(db_file), "--program", "broken((("])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_db_file(self, capsys):
        code = main(["query", "--db", "/nonexistent.json", "--program", "A(a) :- F(a)."])
        assert code == 2


class TestVerifyCommand:
    @pytest.fixture
    def constraint_files(self, tmp_path):
        target = tmp_path / "T1.fl"
        target.write_text("panic :- R(Mkt, CS, $p), not Fw(Mkt, CS).")
        known = tmp_path / "Cs.fl"
        known.write_text(
            """
            panic :- Vs(x, y, p).
            Vs($x, $y, $p) :- R($x, $y, $p), not Fw($x, $y).
            """
        )
        return target, known

    def test_subsumed_exit_zero(self, constraint_files, capsys):
        target, known = constraint_files
        code = main(["verify", "--target", str(target), "--known", str(known)])
        assert code == 0
        assert "holds" in capsys.readouterr().out

    def test_unknown_exit_nonzero(self, constraint_files, capsys):
        target, _ = constraint_files
        code = main(["verify", "--target", str(target), "--known"])
        assert code == 1
        assert "unknown" in capsys.readouterr().out

    def test_with_update_spec(self, tmp_path, capsys):
        target = tmp_path / "T.fl"
        target.write_text("panic :- R($y), not Lb($y).")
        known = tmp_path / "K.fl"
        known.write_text("panic :- R($y), not Lb($y).")
        code = main(
            [
                "verify",
                "--target",
                str(target),
                "--known",
                str(known),
                "--update",
                "+Lb(GS)",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # decided either way, but it must run
        assert "category" in out

    def test_multiple_targets_verified_in_order(self, constraint_files, capsys):
        target, known = constraint_files
        second = target.parent / "T2.fl"
        second.write_text("panic :- R(Mkt, CS, $q), not Fw(Mkt, CS).")
        code = main(
            ["verify", "--target", str(target), str(second), "--known", str(known)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("holds") >= 2
        assert out.index("T1:") < out.index("T2:")

    def test_one_failing_target_fails_the_run(self, constraint_files, capsys):
        good, known = constraint_files
        bad = good.parent / "T2.fl"
        bad.write_text("panic :- R(Mkt, CS, $p), not Zz(Mkt, CS).")
        code = main(
            ["verify", "--target", str(good), str(bad), "--known", str(known)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "holds" in out and "unknown" in out


class TestExamplesCommand:
    def test_lists_all(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "quickstart.py" in out
        assert "interdomain_visibility.py" in out


class TestSqlCommand:
    def test_inline_statements(self, capsys):
        code = main(
            [
                "sql",
                "CREATE TABLE T (a); INSERT INTO T VALUES (1); SELECT * FROM T",
            ]
        )
        assert code == 0
        assert "condition" in capsys.readouterr().out

    def test_script_file_and_save(self, tmp_path, capsys):
        script = tmp_path / "s.sql"
        script.write_text(
            "CREATE TABLE T (a);"
            "INSERT INTO T VALUES ($x) CONDITION $x != 1;"
            "SELECT * FROM T"
        )
        out_file = tmp_path / "out.json"
        code = main(["sql", "--script", str(script), "--save", str(out_file)])
        assert code == 0
        assert out_file.exists()
        # reload through the query path
        code = main(
            ["query", "--db", str(out_file), "--program", "Out(a) :- T(a)."]
        )
        assert code == 0

    def test_load_existing_db(self, db_file, capsys):
        code = main(["sql", "--db", str(db_file), "SELECT * FROM F"])
        assert code == 0
        assert "x̄" in capsys.readouterr().out

    def test_bad_sql_reports_error(self, capsys):
        code = main(["sql", "SELEKT nothing"])
        assert code == 2
        assert "error" in capsys.readouterr().err

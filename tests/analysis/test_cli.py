"""The ``lint`` CLI subcommand and the bundled program sets."""

import json
from pathlib import Path

import pytest

from repro.cli import main, parse_lint_pragmas

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "programs"
EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"


class TestPragmas:
    def test_all_keys(self):
        text = (
            "% edb: R Fw Lb\n"
            "% outputs: panic\n"
            "% size: R 5000\n"
            "% lint-ignore: F007 F015\n"
            "q1: panic :- R(Mkt, CS, $p), not Fw(Mkt, CS).\n"
        )
        pragmas = parse_lint_pragmas(text)
        assert pragmas["edb"] == ["R", "Fw", "Lb"]
        assert pragmas["outputs"] == ["panic"]
        assert pragmas["sizes"] == {"R": 5000}
        assert pragmas["ignore"] == ["F007", "F015"]

    def test_plain_comments_ignored(self):
        pragmas = parse_lint_pragmas("% just prose, edb: not a pragma\nq1: P(x) :- R(x).")
        assert pragmas == {"edb": [], "outputs": [], "sizes": {}, "ignore": []}

    def test_malformed_size_raises(self):
        with pytest.raises(ValueError):
            parse_lint_pragmas("% size: R\n")


class TestLintCommand:
    def write(self, tmp_path, text, name="p.fl"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_clean_program_exit_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, "% edb: A\n% outputs: Out\nq1: Out(x) :- A(x).\n")
        assert main(["lint", path]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_error_findings_exit_one(self, tmp_path, capsys):
        path = self.write(tmp_path, "q1: Out(x, y) :- A(x).\n")
        assert main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert "F001" in out and f"{path}:1:5" in out

    def test_parse_error_exit_two_and_position(self, tmp_path, capsys):
        path = self.write(tmp_path, "q1: Out( :- A(x).\n")
        assert main(["lint", path]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_parse_error_does_not_mask_other_files(self, tmp_path, capsys):
        bad = self.write(tmp_path, "q1: Out( :- A(x).\n", "bad.fl")
        warn = self.write(tmp_path, "q1: Out(x) :- A(x), B(y).\n", "warn.fl")
        assert main(["lint", bad, warn]) == 2
        captured = capsys.readouterr()
        assert "F007" in captured.out

    def test_json_format(self, tmp_path, capsys):
        path = self.write(tmp_path, "q1: Out(x) :- A(x), B(y).\n")
        assert main(["lint", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(d["code"] == "F007" for d in payload)
        f007 = next(d for d in payload if d["code"] == "F007")
        assert f007["line"] == 1 and f007["file"] == path

    def test_select_and_ignore(self, tmp_path, capsys):
        text = "q1: Out(x, y) :- A(x).\nq2: Out(x, x) :- A(x), B(x).\n"
        path = self.write(tmp_path, text)
        main(["lint", path, "--select", "F001"])
        out = capsys.readouterr().out
        assert "F001" in out and "F007" not in out
        rc = main(["lint", path, "--ignore", "F001,F007"])
        out = capsys.readouterr().out
        assert rc == 0 and "F001" not in out

    def test_unknown_code_is_usage_error(self, tmp_path):
        path = self.write(tmp_path, "q1: Out(x) :- A(x).\n")
        assert main(["lint", path, "--select", "F999"]) == 2

    def test_pragmas_merge_with_flags(self, tmp_path, capsys):
        text = (
            "% edb: A\n"
            "% lint-ignore: F007\n"
            "q1: Out(x) :- A(x), B(y), Missing(x).\n"
        )
        path = self.write(tmp_path, text)
        rc = main(["lint", path, "--edb", "B"])
        out = capsys.readouterr().out
        # edb union {A, B} leaves only Missing undefined; F007 pragma-ignored.
        assert rc == 1
        assert "Missing" in out and "F007" not in out

    def test_size_pragma_feeds_estimates(self, tmp_path, capsys):
        text = (
            "% edb: A B\n% outputs: Out\n"
            "% size: A 7\n% size: B 7\n"
            "q1: Out(x) :- A(x), B(x).\n"
        )
        path = self.write(tmp_path, text)
        main(["lint", path, "--select", "F015"])
        assert "~7 rows" in capsys.readouterr().out


class TestSarifFormat:
    def write(self, tmp_path, text, name="p.fl"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_sarif_format(self, tmp_path, capsys):
        path = self.write(tmp_path, "q1: Out(x) :- A(x), B(y).\n")
        assert main(["lint", path, "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        f007 = next(r for r in run["results"] if r["ruleId"] == "F007")
        (loc,) = f007["locations"]
        assert loc["physicalLocation"]["artifactLocation"]["uri"] == path

    def test_sarif_clean_run_keeps_rule_table(self, tmp_path, capsys):
        path = self.write(tmp_path, "% edb: A\n% outputs: Out\nq1: Out(x) :- A(x).\n")
        assert main(["lint", path, "--format", "sarif"]) == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        assert run["results"] == []
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {"F001", "F016"}

    def test_plain_lint_reports_f016(self, tmp_path, capsys):
        text = (
            "% edb: A\n% outputs: Out\n"
            "q1: Out(x) :- A(x).\n"
            "q2: Out(x) :- A(x), $u = 1, $u != 1.\n"
        )
        path = self.write(tmp_path, text)
        main(["lint", path])
        assert "F016" in capsys.readouterr().out

    def test_optimize_report_flag_rejected(self, tmp_path):
        path = self.write(tmp_path, "% edb: A\nq1: Out(x) :- A(x).\n")
        with pytest.raises(SystemExit) as exc:
            main(["lint", path, "--optimize-report"])
        assert exc.value.code == 2


class TestBundledProgramGate:
    """The same invariants `make lint-programs` enforces in CI."""

    def test_fixture_sets_exist(self):
        for sub in ("clean", "warn", "bad"):
            assert list((FIXTURES / sub).glob("*.fl")), f"no fixtures in {sub}/"
        assert list(EXAMPLES.glob("*.fl")), "no example programs"

    def test_clean_and_examples_lint_without_errors(self, capsys):
        files = sorted(EXAMPLES.glob("*.fl")) + sorted((FIXTURES / "clean").glob("*.fl"))
        assert main(["lint", *map(str, files)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_warn_fixtures_warn_but_pass(self, capsys):
        files = sorted((FIXTURES / "warn").glob("*.fl"))
        assert main(["lint", *map(str, files)]) == 0
        out = capsys.readouterr().out
        for expected in ("F008", "F010", "F011", "F012", "F013"):
            assert expected in out, f"{expected} missing from warn fixtures"

    def test_bad_fixtures_each_fail(self, capsys):
        for path in sorted((FIXTURES / "bad").glob("*.fl")):
            assert main(["lint", str(path)]) == 1, f"{path.name} should report errors"
            capsys.readouterr()

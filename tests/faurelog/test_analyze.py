"""Program linting."""

from repro.analysis import analyze_program
from repro.faurelog.parser import parse_program


def messages(findings, severity=None):
    return [
        f.message for f in findings if severity is None or f.severity.value == severity
    ]


class TestSingletonVariables:
    def test_singleton_flagged(self):
        program = parse_program("Out(x) :- A(x), B(y).")
        findings = analyze_program(program)
        assert any("y occurs only once" in m for m in messages(findings))

    def test_repeated_variable_clean(self):
        program = parse_program("Out(x) :- A(x), B(x).")
        findings = analyze_program(program)
        assert not any("occurs only once" in m for m in messages(findings))

    def test_comparison_counts_as_use(self):
        program = parse_program("Out(x) :- A(x), B(y), y != 1.")
        findings = analyze_program(program)
        assert not any("y occurs" in m for m in messages(findings))


class TestUndefinedPredicates:
    def test_typo_caught_with_edb_declared(self):
        program = parse_program("panic :- Rech(Mkt, CS).")  # typo for Reach
        findings = analyze_program(program, edb=["Reach"])
        assert any("Rech" in m for m in messages(findings, "error"))

    def test_no_edb_declaration_no_errors(self):
        program = parse_program("panic :- Whatever(Mkt).")
        findings = analyze_program(program)
        assert not messages(findings, "error")


class TestUnusedPredicates:
    def test_orphan_flagged(self):
        program = parse_program(
            """
            panic :- V(x).
            V($a) :- R($a).
            Orphan($a) :- R($a).
            """
        )
        findings = analyze_program(program, outputs=["panic"])
        assert any("Orphan" in m for m in messages(findings))

    def test_transitively_used_clean(self):
        program = parse_program(
            """
            panic :- V(x).
            V($a) :- W($a).
            W($a) :- R($a).
            """
        )
        findings = analyze_program(program, outputs=["panic"])
        assert not any("never used" in m for m in messages(findings))

    def test_default_outputs_are_unconsumed_heads(self):
        program = parse_program(
            """
            Top(x) :- Mid(x).
            Mid(x) :- R(x).
            """
        )
        findings = analyze_program(program)
        assert not any("never used" in m for m in messages(findings))


class TestDuplicatesAndDegenerate:
    def test_duplicate_rule(self):
        program = parse_program(
            """
            a: Out(x) :- A(x).
            b: Out(x) :- A(x).
            """
        )
        findings = analyze_program(program)
        assert any("duplicates" in m for m in messages(findings))

    def test_always_false_comparison(self):
        program = parse_program("Out(x) :- A(x), 1 = 2.")
        findings = analyze_program(program)
        assert any("never fire" in m for m in messages(findings))

    def test_always_true_comparison(self):
        program = parse_program("Out(x) :- A(x), 1 = 1.")
        findings = analyze_program(program)
        assert any("always true" in m for m in messages(findings))


class TestCleanPaperPrograms:
    def test_listing3_lints_clean(self):
        from repro.network.enterprise import policy_C_lb, policy_C_s

        for prog in (policy_C_lb(), policy_C_s()):
            findings = analyze_program(
                prog, edb=["R", "Lb", "Fw"], outputs=["panic"]
            )
            errors = messages(findings, "error")
            assert not errors

"""The reachability analyzer API: patterns, nesting, per-flow mode."""

import pytest

from repro.ctable.condition import LinearAtom, conjoin, eq
from repro.ctable.table import Database
from repro.ctable.terms import Constant, CVariable
from repro.engine.storage import IndexedTable
from repro.network.forwarding import PrefixRoutes, compile_forwarding
from repro.network.frr import paper_figure1
from repro.network.reachability import ReachabilityAnalyzer, reachability_program
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable
from repro.workloads.failures import (
    all_up,
    at_least_k_failures,
    exactly_k_failures,
    must_include_failure,
)
from repro.workloads.ribgen import RibConfig, generate_rib

X, Y, Z = CVariable("x"), CVariable("y"), CVariable("z")


@pytest.fixture
def analyzer():
    config = paper_figure1()
    solver = ConditionSolver(config.domain_map())
    return config, ReachabilityAnalyzer(config.database(), solver)


class TestProgramShapes:
    def test_two_ary(self):
        prog = reachability_program()
        assert prog.arity_of("R") == 2
        assert len(prog) == 2

    def test_per_flow(self):
        prog = reachability_program(per_flow=True)
        assert prog.arity_of("R") == 3


class TestPatterns:
    def test_q6_two_link_failure(self, analyzer):
        config, an = analyzer
        # exactly 1 of 3 links up == 2 failures
        table, stats = an.exactly_k_up(config.state_variables, 1)
        assert len(table) > 0
        assert stats.tuples_generated == len(table)
        for tup in table:
            assert any(isinstance(a, LinearAtom) for a in tup.condition.atoms())

    def test_q7_nested_with_specific_failure(self, analyzer):
        config, an = analyzer
        pattern = must_include_failure(
            exactly_k_failures(config.state_variables, 2), CVariable("y")
        )
        table, _ = an.under_pattern(pattern, source=2, dest=5)
        # (2,3) down and one more: 2 can still reach 5 via 4
        assert len(table) >= 1
        for tup in table:
            assert tup.values == (Constant(2), Constant(5))

    def test_q8_at_least_one_failure(self, analyzer):
        config, an = analyzer
        table, _ = an.under_pattern(
            at_least_k_failures([Y, Z], 1), source=1
        )
        assert all(t.values[0] == Constant(1) for t in table)

    def test_no_failure_world(self, analyzer):
        config, an = analyzer
        table, _ = an.under_pattern(all_up(config.state_variables))
        solver = an.solver
        for tup in table:
            assert solver.is_satisfiable(tup.condition)

    def test_pattern_true_returns_everything(self, analyzer):
        from repro.ctable.condition import TRUE

        _, an = analyzer
        table, _ = an.under_pattern(TRUE)
        assert len(table) == len(an.reach_table)


class TestPerFlow:
    def test_flows_do_not_mix(self):
        routes = [
            PrefixRoutes("10.0.0.0/24", (("A", "B"),)),
            PrefixRoutes("10.0.1.0/24", (("C", "D"),)),
        ]
        compiled = compile_forwarding(routes)
        solver = ConditionSolver(compiled.domains)
        an = ReachabilityAnalyzer(compiled.database(), solver, per_flow=True)
        table = an.compute()
        flows = {t.values[0].value for t in table}
        assert flows == {"10.0.0.0/24", "10.0.1.0/24"}
        # no cross-flow A→D path
        assert not any(
            t.values[1].value == "A" and t.values[2].value == "D" for t in table
        )

    def test_flow_pinned_query(self):
        routes = [
            PrefixRoutes("p0", (("A", "B", "C"), ("A", "C"))),
        ]
        compiled = compile_forwarding(routes)
        solver = ConditionSolver(compiled.domains)
        an = ReachabilityAnalyzer(compiled.database(), solver, per_flow=True)
        an.compute()
        u0, u1 = compiled.variables_of("p0")
        table, _ = an.under_pattern(eq(u0, 0), flow="p0", source="A", dest="C")
        assert len(table) >= 1
        # backup condition: primary failed, backup up
        combined = table.tuples()[0].condition
        assert solver.implies(conjoin([eq(u0, 0), eq(u1, 1)]), combined)

    def test_holds_in_world_per_flow(self):
        routes = [PrefixRoutes("p0", (("A", "B"),))]
        compiled = compile_forwarding(routes)
        solver = ConditionSolver(compiled.domains)
        an = ReachabilityAnalyzer(compiled.database(), solver, per_flow=True)
        an.compute()
        (u0,) = compiled.variables_of("p0")
        assert an.holds_in_world("A", "B", {u0: 1}, flow="p0")
        assert not an.holds_in_world("A", "B", {u0: 0}, flow="p0")


class TestClassification:
    def test_certain_pairs_survive_all_failures(self, analyzer):
        config, an = analyzer
        an.compute()
        certain = an.certain_pairs()
        # on Figure 1, node 1 reaches 5 under every combination
        assert (1, 5) in certain
        # 4→5 is an unprotected link: always reachable
        assert (4, 5) in certain
        # 1→2 needs x̄=1: not certain
        assert (1, 2) not in certain

    def test_classify_summary(self, analyzer):
        config, an = analyzer
        an.compute()
        answers = an.classify()
        assert answers.certain and answers.possible
        for _, cond in answers.possible:
            assert an.solver.is_satisfiable(cond)
            assert not an.solver.is_valid(cond)


class TestJoinWork:
    def test_fixpoint_probes_scale_with_what_it_derives(self, monkeypatch):
        """A cold per-flow q4-q5 fixpoint on a 150-prefix RIB: each
        derived row costs a bounded number of probed rows (composite-key
        probes, the semi-naive delta driving each round)."""
        compiled = compile_forwarding(
            generate_rib(RibConfig(prefixes=150, as_count=60, seed=1009))
        )
        analyzer = ReachabilityAnalyzer(
            compiled.database(),
            ConditionSolver(compiled.domains, memo=MemoTable()),
            per_flow=True,
        )
        handed_back = []
        candidates = IndexedTable.candidates

        def counting(self, pattern):
            for tup in candidates(self, pattern):
                handed_back.append(tup)
                yield tup

        monkeypatch.setattr(IndexedTable, "candidates", counting)
        analyzer.compute()
        derived = analyzer.stats.tuples_generated
        assert derived > 0
        assert len(handed_back) <= 5 * derived, (len(handed_back), derived)

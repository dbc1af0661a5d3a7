"""Shared verdict memoization: sharing, keying, and soundness contracts."""

import pytest

from repro.ctable.condition import Comparison, conjoin, disjoin, eq, ne
from repro.ctable.terms import Constant, CVariable
from repro.robustness.faultinject import FaultInjector, FaultPlan
from repro.robustness.governor import Governor
from repro.robustness.verdict import Trivalent, Verdict
from repro.solver.domains import DomainMap, IntRange, Unbounded
from repro.solver.interface import SHARED_MEMO, ConditionSolver
from repro.solver.memo import MemoTable, reset_shared_memo, shared_memo

X, Y = CVariable("x"), CVariable("y")
DOMAINS = DomainMap({X: IntRange(0, 9), Y: IntRange(0, 9)})


class TestSharing:
    def test_cross_instance_sat_sharing(self):
        # fast_path=False: the raw rung would decide this condition
        # before the memo is consulted; this test pins the memo route.
        memo = MemoTable()
        first = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        assert first.sat_verdict(eq(X, 5)) is Verdict.SAT
        paid = first.stats.decisions
        assert paid == 1

        second = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        assert second.sat_verdict(eq(X, 5)) is Verdict.SAT
        assert second.stats.decisions == 0
        assert second.stats.memo_hits == 1

    def test_semantically_equal_conditions_share(self):
        # fast_path=False: the raw rung would decide this condition
        # before the memo is consulted; this test pins the memo route.
        memo = MemoTable()
        first = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        first.sat_verdict(conjoin([eq(X, 5), Comparison(X, ">=", Constant(3))]))
        second = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        assert second.sat_verdict(eq(X, 5)) is Verdict.SAT
        assert second.stats.decisions == 0

    def test_implies_memoized_on_canonical_pair(self):
        # fast_path=False: this test pins the canonical-pair memo route
        # (with the fast path on, tier 0 answers before the memo).
        memo = MemoTable()
        a = Comparison(X, ">=", Constant(3))
        b = Comparison(X, ">=", Constant(1))
        first = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        assert first.implies_verdict(a, b) is Trivalent.TRUE
        second = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        assert second.implies_verdict(a, b) is Trivalent.TRUE
        assert second.stats.decisions == 0
        assert second.stats.memo_hits >= 1

    def test_equivalent_pair_settled_without_solver(self):
        # fast_path=False: this test pins the canonical-equality route
        # (with the fast path on, tier 0 answers first and counts a hit).
        memo = MemoTable()
        solver = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        a = conjoin([eq(X, 5), Comparison(X, ">=", Constant(3))])
        assert solver.implies_verdict(a, eq(X, 5)) is Trivalent.TRUE
        assert solver.stats.decisions == 0

    def test_default_is_process_wide_table(self):
        reset_shared_memo()
        a = ConditionSolver(DOMAINS)
        b = ConditionSolver(DOMAINS)
        assert a.memo is b.memo is shared_memo()

    def test_with_domains_propagates_memo(self):
        memo = MemoTable()
        solver = ConditionSolver(DOMAINS, memo=memo)
        sibling = solver.with_domains(DomainMap({X: IntRange(0, 1)}))
        assert sibling.memo is memo
        off = ConditionSolver(DOMAINS, memo=None)
        assert off.with_domains(DOMAINS).memo is None


class TestKeying:
    def test_different_domains_never_share(self):
        memo = MemoTable()
        wide = ConditionSolver(DOMAINS, memo=memo)
        assert wide.sat_verdict(eq(X, 5)) is Verdict.SAT
        narrow = ConditionSolver(DomainMap({X: IntRange(0, 1)}), memo=memo)
        assert narrow.sat_verdict(eq(X, 5)) is Verdict.UNSAT
        assert narrow.stats.memo_hits == 0

    def test_fingerprint_covers_default_domain(self):
        memo = MemoTable()
        strings = ConditionSolver(DomainMap(default=Unbounded("string")), memo=memo)
        ints = ConditionSolver(DomainMap(default=Unbounded("int")), memo=memo)
        assert strings.sat_verdict(eq(X, 5)) is Verdict.SAT
        # Different default domain → different fingerprint → no reuse.
        assert ints.sat_verdict(eq(X, 5)) is Verdict.SAT
        assert ints.stats.memo_hits == 0

    def test_irrelevant_declarations_do_not_split_keys(self):
        # fast_path=False: the raw rung would decide this condition
        # before the memo is consulted; this test pins the memo route.
        memo = MemoTable()
        a = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        assert a.sat_verdict(eq(X, 5)) is Verdict.SAT
        extended = DOMAINS.copy()
        extended.declare(CVariable("unrelated"), IntRange(0, 1))
        b = ConditionSolver(extended, memo=memo, fast_path=False)
        assert b.sat_verdict(eq(X, 5)) is Verdict.SAT
        assert b.stats.memo_hits == 1


class TestContracts:
    def test_unknown_never_cached(self):
        injector = FaultInjector(FaultPlan(timeout_every=1))
        governor = Governor(on_budget="degrade", injector=injector)
        governor.start()
        memo = MemoTable()
        solver = ConditionSolver(DOMAINS, governor=governor, memo=memo)
        assert solver.sat_verdict(eq(X, 5)) is Verdict.UNKNOWN
        assert len(memo) == 0
        # A later, un-faulted solver gets a definite answer.
        healthy = ConditionSolver(DOMAINS, memo=memo)
        assert healthy.sat_verdict(eq(X, 5)) is Verdict.SAT
        assert healthy.stats.memo_hits == 0

    def test_put_rejects_non_boolean(self):
        memo = MemoTable()
        with pytest.raises(TypeError):
            memo.put(("sat", eq(X, 1), ()), None)

    def test_memo_none_disables_everything(self):
        solver = ConditionSolver(DOMAINS, memo=None)
        assert solver.memo is None
        assert solver.canonical(eq(X, 5)) is not None
        cond = conjoin([eq(X, 5), Comparison(X, ">=", Constant(3))])
        # canonical() is the identity when memoization is off.
        assert solver.canonical(cond) is cond
        assert solver.sat_verdict(cond) is Verdict.SAT
        assert solver.stats.memo_hits == 0
        assert solver.stats.memo_misses == 0

    def test_canonical_collapse_counts_no_decision(self):
        # fast_path=False: the raw rung would refute this contradiction
        # (an empty candidate class) before canonicalization.
        memo = MemoTable()
        solver = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        assert solver.sat_verdict(conjoin([eq(X, 1), eq(X, 2)])) is Verdict.UNSAT
        assert solver.stats.canonical_collapses == 1
        assert solver.stats.decisions == 0

    def test_lru_eviction_bounded(self):
        # fast_path=False: the raw rung would decide this condition
        # before the memo is consulted; this test pins the memo route.
        memo = MemoTable(max_entries=4)
        solver = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        for i in range(10):
            solver.sat_verdict(eq(X, i))
        assert len(memo) <= 4
        assert memo.evictions >= 6

    def test_counters_snapshot(self):
        # fast_path=False: the raw rung would decide this condition
        # before the memo is consulted; this test pins the memo route.
        memo = MemoTable()
        solver = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        solver.sat_verdict(eq(X, 5))
        got = memo.counters()
        assert got["memo_entries"] == 1
        assert got["interned"] >= 1
        assert set(got) == {
            "memo_entries", "memo_hits", "memo_misses",
            "memo_evictions", "interned", "intern_hits",
        }

    def test_clear_resets_everything(self):
        memo = MemoTable()
        solver = ConditionSolver(DOMAINS, memo=memo)
        solver.sat_verdict(eq(X, 5))
        memo.clear()
        assert len(memo) == 0
        assert len(memo.interner) == 0
        assert memo.counters()["memo_hits"] == 0


class TestSurfacing:
    def test_eval_stats_extra_carries_memo_deltas(self):
        from repro.ctable.table import CTable
        from repro.engine.pipeline import solver_prune

        # fast_path=False: the raw rung would decide the warm-up call
        # without memoizing it; the prune below must find it in the memo.
        memo = MemoTable()
        warm = ConditionSolver(DOMAINS, memo=memo, fast_path=False)
        warm.sat_verdict(ne(X, 3))
        table = CTable("T", ["a"])
        table.add([1], ne(X, 3))
        solver = ConditionSolver(DOMAINS, memo=memo)
        from repro.engine.stats import EvalStats

        stats = EvalStats()
        solver_prune(table, solver, stats)
        assert stats.extra.get("memo_hits") == 1

    def test_explain_appends_memo_line(self):
        from repro.ctable.table import CTable, Database
        from repro.engine.algebra import Scan
        from repro.engine.explain import explain

        db = Database([CTable("T", ["a"])])
        solver = ConditionSolver(DOMAINS, memo=MemoTable())
        text = explain(Scan("T"), db, solver=solver)
        assert "[memo]" in text
        without = explain(Scan("T"), db, solver=ConditionSolver(DOMAINS, memo=None))
        assert "[memo]" not in without

"""Batched pruning: grouping, dedup savings, and memo fold-back.

The contract under test (docs/PERFORMANCE.md): :func:`prune_batched`
produces the *same table* as asking the solver about every tuple
individually, while making one decision per canonical equivalence class
— and definite verdicts decided in worker processes land in the shared
memo exactly as if the parent had decided them.
"""

from repro.ctable import CTable
from repro.ctable.condition import And, Comparison, TRUE, FALSE
from repro.ctable.terms import Constant, CVariable
from repro.engine.stats import EvalStats
from repro.parallel.batch import group_classes, prune_batched
from repro.robustness.governor import Governor
from repro.robustness.verdict import Verdict
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable

from .conftest import boolean_domains, repeated_condition_table, rendered


def per_tuple_reference(table, domains):
    """The unbatched baseline: one fresh-solver verdict per tuple."""
    solver = ConditionSolver(domains, memo=MemoTable())
    out = CTable(table.name, table.schema)
    pruned = 0
    for tup in table:
        if solver.sat_verdict(tup.condition) is Verdict.UNSAT:
            pruned += 1
            continue
        out.add(tup)
    return out, pruned


class TestGroupClasses:
    def test_groups_by_canonical_form(self):
        table, domains = repeated_condition_table(tuples=40, variables=4)
        solver = ConditionSolver(domains, memo=MemoTable())
        classes, per_tuple = group_classes(table, solver)
        assert per_tuple == []
        # 4 variables x 3 forms, but the Or form canonicalizes onto a
        # distinct class of its own — the point is #classes << #tuples.
        assert len(classes) <= 12 < 40
        assert sum(len(members) for _, members in classes) == 40
        # Members listed in original order, first-appearance class order.
        flat = [i for _, members in classes for i in members]
        assert sorted(flat) == list(range(40))
        assert [members[0] for _, members in classes] == sorted(
            members[0] for _, members in classes
        )

    def test_trivial_conditions_group_too(self):
        table = CTable("T", ("a",))
        table.add([Constant(1)], TRUE)
        table.add([Constant(2)], TRUE)
        table.add([Constant(3)], FALSE)
        solver = ConditionSolver(boolean_domains(["x"]), memo=MemoTable())
        classes, per_tuple = group_classes(table, solver)
        assert len(classes) == 2 and per_tuple == []

    def test_oversized_conditions_go_per_tuple(self):
        x, y, z = (CVariable(n) for n in "xyz")
        big = And([
            Comparison(x, "=", Constant(1)),
            Comparison(y, "=", Constant(1)),
            Comparison(z, "=", Constant(1)),
        ])
        table = CTable("T", ("a",))
        table.add([Constant(1)], Comparison(x, "=", Constant(1)))
        table.add([Constant(2)], big)
        governor = Governor(max_condition_atoms=2, on_budget="degrade").start()
        solver = ConditionSolver(
            boolean_domains("xyz"), governor=governor, memo=MemoTable()
        )
        classes, per_tuple = group_classes(table, solver)
        assert len(classes) == 1
        assert per_tuple == [1]

    def test_oversized_conditions_go_per_tuple_without_memo(self):
        # The size ceiling refuses a condition before the solver charges
        # a call, memo or not, so an oversized row must not take a
        # residual (call-indexed fault) slot under --jobs.
        x, y, z = (CVariable(n) for n in "xyz")
        big = And([
            Comparison(x, "=", Constant(1)),
            Comparison(y, "=", Constant(1)),
            Comparison(z, "=", Constant(1)),
        ])
        table = CTable("T", ("a",))
        table.add([Constant(1)], Comparison(x, "=", Constant(1)))
        table.add([Constant(2)], big)
        governor = Governor(max_condition_atoms=2, on_budget="degrade").start()
        solver = ConditionSolver(boolean_domains("xyz"), governor=governor, memo=None)
        classes, per_tuple = group_classes(table, solver)
        assert len(classes) == 1
        assert per_tuple == [1]


class TestSerialBatchedPrune:
    def test_identical_to_per_tuple_prune(self):
        table, domains = repeated_condition_table()
        reference, ref_pruned = per_tuple_reference(table, domains)
        solver = ConditionSolver(domains, memo=MemoTable())
        stats = EvalStats()
        out = prune_batched(table, solver, stats, jobs=1)
        assert rendered(out) == rendered(reference)
        assert stats.tuples_pruned == ref_pruned

    def test_one_decision_per_class(self):
        """The dedup satellite: #decisions == #classes, not #tuples."""
        table, domains = repeated_condition_table(tuples=40, variables=4)
        solver = ConditionSolver(domains, memo=MemoTable())
        classes, _ = group_classes(table, solver)
        prune_batched(table, solver, EvalStats(), jobs=1)
        assert solver.stats.sat_calls == len(classes) < 40

    def test_unsat_classes_prune_every_member(self):
        table, domains = repeated_condition_table(tuples=36, variables=3)
        stats = EvalStats()
        out = prune_batched(
            table, ConditionSolver(domains, memo=MemoTable()), stats, jobs=1
        )
        # A third of the cycled forms are contradictions (x=1 AND x=0).
        assert stats.tuples_pruned == 12
        assert len(list(out)) == 24


class TestParallelBatchedPrune:
    def test_jobs_invariant_output(self):
        table, domains = repeated_condition_table()
        outputs, pruned = [], []
        for jobs in (1, 2, 4):
            stats = EvalStats()
            out = prune_batched(
                table, ConditionSolver(domains, memo=MemoTable()), stats, jobs=jobs
            )
            outputs.append(rendered(out))
            pruned.append(stats.tuples_pruned)
        assert outputs[0] == outputs[1] == outputs[2]
        assert pruned[0] == pruned[1] == pruned[2]

    def test_worker_verdicts_fold_into_parent_memo(self):
        table, domains = repeated_condition_table()
        memo = MemoTable()
        # fast_path=False: verdicts the raw rung decides are not
        # memoized (serially or folded back), so pin the memo route.
        solver = ConditionSolver(domains, memo=memo, fast_path=False)
        prune_batched(table, solver, EvalStats(), jobs=3)
        assert len(memo) > 0
        # A fresh solver over the folded memo answers everything from
        # the memo: zero new backend decisions.
        fresh = ConditionSolver(domains, memo=memo, fast_path=False)
        prune_batched(table, fresh, EvalStats(), jobs=1)
        assert fresh.stats.enumeration_used == 0
        assert fresh.stats.dpll_used == 0

    def test_parallel_accounting_recorded(self):
        table, domains = repeated_condition_table()
        stats = EvalStats()
        prune_batched(
            table, ConditionSolver(domains, memo=MemoTable()), stats, jobs=3
        )
        assert stats.extra["parallel_shards"] >= 1
        assert stats.extra["parallel_wall_seconds"] >= 0.0

    def test_memoless_solver_still_jobs_invariant(self):
        table, domains = repeated_condition_table()
        a = prune_batched(table, ConditionSolver(domains, memo=None), EvalStats())
        b = prune_batched(
            table, ConditionSolver(domains, memo=None), EvalStats(), jobs=3
        )
        assert rendered(a) == rendered(b)

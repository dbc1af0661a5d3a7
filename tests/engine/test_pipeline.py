"""The three-phase pipeline: lazy vs eager solver pruning.

:func:`solver_prune` must produce the *same table* as asking the solver
about every tuple individually, while making one decision per canonical
equivalence class (:func:`group_classes`).
"""

import pytest

from repro.ctable import CTable
from repro.ctable.condition import FALSE, TRUE, And, Comparison, Or, conjoin, eq, ne
from repro.ctable.table import Database
from repro.ctable.terms import Constant, CVariable
from repro.engine.algebra import ColumnRef, Pred, Scan, Selection
from repro.engine.pipeline import group_classes, run_eager, run_lazy, solver_prune
from repro.engine.stats import EvalStats
from repro.robustness.governor import Governor
from repro.robustness.verdict import Verdict
from repro.solver.domains import BOOL_DOMAIN, DomainMap
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable

X = CVariable("x")


@pytest.fixture
def db():
    database = Database()
    t = database.create_table("T", ["a"])
    t.add([1], eq(X, 1))
    t.add([2], conjoin([eq(X, 1), eq(X, 0)]))  # contradictory
    t.add([3])
    return database


@pytest.fixture
def solver():
    return ConditionSolver(DomainMap({X: BOOL_DOMAIN}))


class TestSolverPrune:
    def test_drops_unsat(self, db, solver):
        stats = EvalStats()
        out = solver_prune(db.table("T"), solver, stats)
        assert len(out) == 2
        assert stats.tuples_pruned == 1
        assert stats.solver_seconds >= 0


class TestStrategies:
    def test_lazy_equals_eager_result(self, db, solver):
        plan = Selection(Scan("T"), [Pred(ColumnRef("a"), "!=", 99)])
        lazy, _ = run_lazy(plan, db, solver)
        eager, _ = run_eager(plan, db, solver)
        assert lazy.data_parts() == eager.data_parts()
        assert len(lazy) == len(eager) == 2

    def test_lazy_stats_split(self, db, solver):
        plan = Scan("T")
        _, stats = run_lazy(plan, db, solver)
        assert stats.solver_seconds > 0  # final prune pass
        assert stats.tuples_pruned == 1

    def test_eager_prunes_inside_operators(self, db, solver):
        plan = Selection(Scan("T"), [Pred(ColumnRef("a"), "=", 2)])
        out, stats = run_eager(plan, db, solver)
        assert len(out) == 0
        assert stats.tuples_pruned >= 1


# -- grouping by equivalence class --------------------------------------------


def boolean_domains(names):
    return DomainMap({CVariable(n): BOOL_DOMAIN for n in names})


def repeated_condition_table(tuples: int = 40, variables: int = 4):
    """A c-table of ``tuples`` rows over ``variables`` boolean c-vars.

    Conditions cycle through ``3 * variables`` forms (SAT, UNSAT, and
    commuted duplicates that only canonicalization identifies), so the
    table has far fewer equivalence classes than rows.  Returns
    ``(table, domains)``.
    """
    cvars = [CVariable(f"x{i}") for i in range(variables)]
    forms = []
    for v in cvars:
        up = Comparison(v, "=", Constant(1))
        down = Comparison(v, "=", Constant(0))
        forms.append(up)  # satisfiable
        forms.append(And([up, down]))  # contradictory
        forms.append(Or([down, up]))  # satisfiable, canonical dup of Or([up, down])
    table = CTable("W", ("a", "b"))
    for i in range(tuples):
        table.add([Constant(i), Constant(i % 7)], forms[i % len(forms)])
    return table, boolean_domains(v.name for v in cvars)


def rendered(table: CTable) -> str:
    return table.pretty(max_rows=None)


def per_tuple_reference(table, domains):
    """The ungrouped baseline: one fresh-solver verdict per tuple."""
    solver = ConditionSolver(domains, memo=MemoTable())
    out = CTable(table.name, table.schema)
    pruned = 0
    for tup in table:
        if solver.sat_verdict(tup.condition) is Verdict.UNSAT:
            pruned += 1
            continue
        out.add(tup)
    return out, pruned


def oversized_table():
    x, y, z = (CVariable(n) for n in "xyz")
    big = And([
        Comparison(x, "=", Constant(1)),
        Comparison(y, "=", Constant(1)),
        Comparison(z, "=", Constant(1)),
    ])
    table = CTable("T", ("a",))
    table.add([Constant(1)], Comparison(x, "=", Constant(1)))
    table.add([Constant(2)], big)
    return table


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
        governor = Governor(max_condition_atoms=2, on_budget="degrade").start()
        solver = ConditionSolver(
            boolean_domains("xyz"), governor=governor, memo=MemoTable()
        )
        classes, per_tuple = group_classes(oversized_table(), solver)
        assert len(classes) == 1
        assert per_tuple == [1]

    def test_oversized_conditions_go_per_tuple_without_memo(self):
        # The size ceiling refuses a condition before the solver charges
        # a call, memo or not, so an oversized row must not take a
        # residual (call-indexed fault) slot.
        governor = Governor(max_condition_atoms=2, on_budget="degrade").start()
        solver = ConditionSolver(boolean_domains("xyz"), governor=governor, memo=None)
        classes, per_tuple = group_classes(oversized_table(), solver)
        assert len(classes) == 1
        assert per_tuple == [1]


class TestGroupedPrune:
    def test_identical_to_per_tuple_prune(self):
        table, domains = repeated_condition_table()
        reference, ref_pruned = per_tuple_reference(table, domains)
        solver = ConditionSolver(domains, memo=MemoTable())
        stats = EvalStats()
        out = solver_prune(table, solver, stats)
        assert rendered(out) == rendered(reference)
        assert stats.tuples_pruned == ref_pruned

    def test_one_decision_per_class(self):
        """#decisions == #classes, not #tuples."""
        table, domains = repeated_condition_table(tuples=40, variables=4)
        solver = ConditionSolver(domains, memo=MemoTable())
        classes, _ = group_classes(table, solver)
        solver_prune(table, solver, EvalStats())
        assert solver.stats.sat_calls == len(classes) < 40

    def test_unsat_classes_prune_every_member(self):
        table, domains = repeated_condition_table(tuples=36, variables=3)
        stats = EvalStats()
        out = solver_prune(table, ConditionSolver(domains, memo=MemoTable()), stats)
        # A third of the cycled forms are contradictions (x=1 AND x=0).
        assert stats.tuples_pruned == 12
        assert len(list(out)) == 24

    def test_unknown_members_all_kept(self):
        """A degraded class keeps *every* member tuple, not just one.

        Contradictory conditions canonically collapse to FALSE without a
        solver call, so they prune even under an expired deadline; every
        remaining class degrades to UNKNOWN and keeps all its members.
        """
        table, domains = repeated_condition_table(tuples=40, variables=4)
        governor = Governor(deadline_seconds=0.0, on_budget="degrade").start()
        solver = ConditionSolver(domains, governor=governor, memo=MemoTable())
        stats = EvalStats()
        out = solver_prune(table, solver, stats)
        kept = len(list(out))
        assert stats.unknown_kept == kept > 0
        assert stats.tuples_pruned == 40 - kept
        assert solver.stats.canonical_collapses > 0
        assert len(solver.memo) == 0

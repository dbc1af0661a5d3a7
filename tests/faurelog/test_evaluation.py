"""Stratified fixpoint evaluation over c-tables."""

import gc
import weakref

import pytest

from repro.ctable.condition import FALSE, TRUE, conjoin, disjoin, eq, ne
from repro.ctable.table import CTable, Database
from repro.ctable.terms import Constant, CVariable
from repro.engine.stats import EvalStats
from repro.engine.storage import IndexedTable
from repro.faurelog.ast import ProgramError
from repro.faurelog.evaluation import FaureEvaluator, evaluate
from repro.faurelog.parser import parse_program
from repro.solver.domains import BOOL_DOMAIN, DomainMap, Unbounded
from repro.solver.interface import ConditionSolver

X, Y = CVariable("x"), CVariable("y")


@pytest.fixture
def solver():
    return ConditionSolver(DomainMap({X: BOOL_DOMAIN, Y: BOOL_DOMAIN}, default=Unbounded()))


class TestBasics:
    def test_nonrecursive_join(self, solver):
        db = Database()
        db.create_table("A", ["k"]).add([1])
        db.create_table("B", ["k", "v"]).add([1, "p"])
        out = evaluate(parse_program("H(v) :- A(k), B(k, v)."), db, solver=solver)
        assert [t.values for t in out.table("H")] == [(Constant("p"),)]

    def test_facts_materialize(self, solver):
        out = evaluate(parse_program("F(1, 2). F(2, 3)."), Database(), solver=solver)
        assert len(out.table("F")) == 2

    def test_idb_chaining(self, solver):
        db = Database()
        db.create_table("E", ["a", "b"]).add([1, 2])
        prog = parse_program(
            """
            P(a, b) :- E(a, b).
            Q(b) :- P(1, b).
            """
        )
        out = evaluate(prog, db, solver=solver)
        assert len(out.table("Q")) == 1

    def test_empty_idb_present(self, solver):
        db = Database()
        db.create_table("E", ["a"])
        out = evaluate(parse_program("H(a) :- E(a)."), db, solver=solver)
        assert "H" in out
        assert len(out.table("H")) == 0

    def test_idb_shadowing_edb_rejected(self, solver):
        db = Database()
        db.create_table("H", ["a"]).add([1])
        with pytest.raises(ProgramError):
            evaluate(parse_program("H(a) :- H(a)."), db, solver=solver)

    def test_source_database_untouched(self, solver):
        db = Database()
        db.create_table("E", ["a"]).add([1])
        evaluate(parse_program("H(a) :- E(a)."), db, solver=solver)
        assert set(db.names()) == {"E"}


class TestRecursion:
    def test_transitive_closure_regular(self, solver):
        db = Database()
        e = db.create_table("E", ["a", "b"])
        for pair in [(1, 2), (2, 3), (3, 4)]:
            e.add(list(pair))
        prog = parse_program(
            """
            T(a, b) :- E(a, b).
            T(a, b) :- E(a, c), T(c, b).
            """
        )
        out = evaluate(prog, db, solver=solver)
        pairs = {(t.values[0].value, t.values[1].value) for t in out.table("T")}
        assert pairs == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}

    def test_working_storage_freed_without_a_collection(self, solver, monkeypatch):
        """Once evaluation returns and its result is dropped, the working
        indexed tables are gone by reference counting alone: no cycle
        (such as a self-recursive closure) keeps them waiting for a
        full garbage collection."""
        db = Database()
        e = db.create_table("E", ["a", "b"])
        for pair in [(1, 2), (2, 3), (3, 1)]:
            e.add(list(pair))
        prog = parse_program(
            """
            T(a, b) :- E(a, b).
            T(a, b) :- E(a, c), T(c, b).
            """
        )
        built = []
        init = IndexedTable.__init__

        def tracking(self, table):
            init(self, table)
            built.append(weakref.ref(self))

        monkeypatch.setattr(IndexedTable, "__init__", tracking)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert len(FaureEvaluator(db, solver=solver).evaluate(prog).table("T")) == 9
            assert built
            assert [ref for ref in built if ref() is not None] == []
        finally:
            if enabled:
                gc.enable()

    def test_cycle_terminates(self, solver):
        db = Database()
        e = db.create_table("E", ["a", "b"])
        e.add([1, 2])
        e.add([2, 1])
        prog = parse_program(
            """
            T(a, b) :- E(a, b).
            T(a, b) :- E(a, c), T(c, b).
            """
        )
        out = evaluate(prog, db, solver=solver)
        assert len(out.table("T")) == 4  # (1,2),(2,1),(1,1),(2,2)

    def test_conditional_cycle_terminates(self, solver):
        # conditions on a cycle: dedup-by-implication must stop the loop
        db = Database()
        e = db.create_table("E", ["a", "b"])
        e.add([1, 2], eq(X, 1))
        e.add([2, 1], eq(Y, 1))
        prog = parse_program(
            """
            T(a, b) :- E(a, b).
            T(a, b) :- E(a, c), T(c, b).
            """
        )
        out = evaluate(prog, db, solver=solver)
        conds_12 = [
            t.condition
            for t in out.table("T")
            if t.values == (Constant(1), Constant(2))
        ]
        combined = disjoin(conds_12)
        assert solver.equivalent(combined, eq(X, 1))

    def test_max_iterations_guard(self, solver):
        db = Database()
        e = db.create_table("E", ["a", "b"])
        for i in range(30):
            e.add([i, i + 1])
        prog = parse_program(
            """
            T(a, b) :- E(a, b).
            T(a, b) :- E(a, c), T(c, b).
            """
        )
        with pytest.raises(ProgramError):
            evaluate(prog, db, solver=solver, max_iterations=3)


class TestConditions:
    def test_conditions_propagate_through_join(self, solver):
        db = Database()
        db.create_table("A", ["k"]).add([1], eq(X, 1))
        db.create_table("B", ["k"]).add([1], eq(Y, 1))
        out = evaluate(parse_program("H(k) :- A(k), B(k)."), db, solver=solver)
        (tup,) = out.table("H").tuples()
        assert solver.equivalent(tup.condition, conjoin([eq(X, 1), eq(Y, 1)]))

    def test_contradictions_pruned(self, solver):
        db = Database()
        db.create_table("A", ["k"]).add([1], eq(X, 1))
        db.create_table("B", ["k"]).add([1], eq(X, 0))
        out = evaluate(parse_program("H(k) :- A(k), B(k)."), db, solver=solver)
        assert len(out.table("H")) == 0

    def test_prune_disabled_keeps_contradictions(self, solver):
        db = Database()
        db.create_table("A", ["k"]).add([1], eq(X, 1))
        db.create_table("B", ["k"]).add([1], eq(X, 0))
        out = evaluate(
            parse_program("H(k) :- A(k), B(k)."), db, solver=solver, prune=False
        )
        assert len(out.table("H")) == 1

    def test_subsumed_condition_not_duplicated(self, solver):
        db = Database()
        a = db.create_table("A", ["k"])
        a.add([1], TRUE)
        a.add([1], eq(X, 1))  # implied by the unconditional row
        out = evaluate(parse_program("H(k) :- A(k)."), db, solver=solver)
        assert len(out.table("H")) == 1

    def test_dedup_is_order_sensitive_but_semantics_stable(self, solver):
        # The dedup skips implied newcomers; a more general condition
        # arriving later is still recorded (no retro-minimization), and
        # the disjunction of recorded conditions is unchanged.
        db = Database()
        a = db.create_table("A", ["k"])
        a.add([1], eq(X, 1))
        a.add([1], TRUE)
        out = evaluate(parse_program("H(k) :- A(k)."), db, solver=solver)
        conds = [t.condition for t in out.table("H")]
        assert solver.equivalent(disjoin(conds), TRUE)


class TestNegationEvaluation:
    def test_stratified_negation(self, solver):
        db = Database()
        node = db.create_table("Node", ["a"])
        node.add([1])
        node.add([2])
        db.create_table("Broken", ["a"]).add([2])
        prog = parse_program(
            """
            Bad(a) :- Broken(a).
            Good(a) :- Node(a), not Bad(a).
            """
        )
        out = evaluate(prog, db, solver=solver)
        goods = [t.values[0].value for t in out.table("Good")]
        assert goods == [1]

    def test_negation_produces_condition(self, solver):
        db = Database()
        r = db.create_table("R", ["a"])
        r.add(["Mkt"])
        fw = db.create_table("Fw", ["a"])
        fw.add([X])  # firewall on an unknown subnet
        prog = parse_program("panic :- R(a), not Fw(a).")
        out = evaluate(prog, db, solver=solver)
        (tup,) = out.table("panic").tuples()
        assert solver.equivalent(tup.condition, ne(X, "Mkt"))

    def test_stats_populated(self, solver):
        db = Database()
        db.create_table("E", ["a", "b"]).add([1, 2])
        stats = EvalStats()
        evaluate(
            parse_program("T(a,b) :- E(a,b). T(a,b) :- E(a,c), T(c,b)."),
            db,
            solver=solver,
            stats=stats,
        )
        assert stats.tuples_generated == 1
        assert stats.iterations >= 2
        assert stats.sql_seconds >= 0

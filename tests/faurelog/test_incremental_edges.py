"""IncrementalEvaluator edge cases the serve daemon leans on.

The daemon replays its WAL through :meth:`IncrementalEvaluator.apply`,
so these invariants — weaken ≡ from-scratch on worlds, non-monotone
growth rejected *without* state change, duplicate application idempotent
— are exactly what makes crash recovery byte-identical and retry-safe.
"""

import pytest

from repro.ctable.condition import TRUE, disjoin, eq
from repro.ctable.table import Database
from repro.ctable.terms import CVariable
from repro.engine.storage import IndexedTable
from repro.faurelog.ast import ProgramError
from repro.faurelog.evaluation import evaluate
from repro.faurelog.incremental import IncrementalEvaluator
from repro.faurelog.parser import parse_program
from repro.network.forwarding import compile_forwarding
from repro.robustness import Governor
from repro.solver.domains import BOOL_DOMAIN, DomainMap, Unbounded
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable
from repro.workloads.ribgen import RibConfig, generate_rib

X, Y = CVariable("x"), CVariable("y")

TC = parse_program(
    """
    T(a, b) :- E(a, b).
    T(a, b) :- E(a, c), T(c, b).
    """
)


@pytest.fixture
def solver():
    return ConditionSolver(
        DomainMap({X: BOOL_DOMAIN, Y: BOOL_DOMAIN}, default=Unbounded())
    )


def fresh_db(*edges):
    db = Database()
    e = db.create_table("E", ["a", "b"])
    for edge in edges:
        if len(edge) == 3:
            e.add([edge[0], edge[1]], edge[2])
        else:
            e.add(list(edge))
    return db


def worlds_by_key(table):
    """data key -> disjunction of every condition it appears under."""
    per = {}
    for tup in table:
        per.setdefault(tup.data_key(), []).append(tup.condition)
    return {key: disjoin(conds) for key, conds in per.items()}


def assert_world_equivalent(solver, left_table, right_table):
    left, right = worlds_by_key(left_table), worlds_by_key(right_table)
    assert left.keys() == right.keys()
    for key in left:
        assert solver.equivalent(left[key], right[key]), key


class TestWeakenEquivalence:
    def test_weaken_matches_from_scratch_on_worlds(self, solver):
        """Widening via weaken() ≡ evaluating a db seeded with both rows."""
        inc = IncrementalEvaluator(
            TC, fresh_db((1, 2, eq(X, 1)), (2, 3)), solver=solver
        )
        inc.weaken("E", [1, 2], eq(X, 0))

        scratch = evaluate(
            TC,
            fresh_db((1, 2, eq(X, 1)), (2, 3), (1, 2, eq(X, 0))),
            solver=solver,
        )
        assert_world_equivalent(solver, inc.table("T"), scratch.table("T"))

    def test_weaken_to_unconditional_covers_all_worlds(self, solver):
        inc = IncrementalEvaluator(TC, fresh_db((1, 2, eq(X, 1))), solver=solver)
        inc.weaken("E", [1, 2], TRUE)
        worlds = worlds_by_key(inc.table("T"))
        assert solver.is_valid(worlds[next(iter(worlds))])

    def test_weaken_through_apply_dispatcher(self, solver):
        """The WAL replay path (apply) and the direct call coincide."""
        direct = IncrementalEvaluator(TC, fresh_db((1, 2, eq(X, 1))), solver=solver)
        direct.weaken("E", [1, 2], eq(X, 0))
        replayed = IncrementalEvaluator(
            TC, fresh_db((1, 2, eq(X, 1))), solver=solver
        )
        replayed.apply("weaken", "E", [1, 2], eq(X, 0))
        assert_world_equivalent(solver, direct.table("T"), replayed.table("T"))


class TestMonotonicityGuard:
    def test_transitive_negation_downstream_rejected(self, solver):
        """Growth flowing through an *intermediate* IDB into negation."""
        program = parse_program(
            """
            Bad(a) :- Broken(a).
            Worse(a) :- Bad(a).
            Good(a) :- Node(a), not Worse(a).
            """
        )
        db = Database()
        db.create_table("Node", ["a"]).add([1])
        db.create_table("Broken", ["a"])
        inc = IncrementalEvaluator(program, db, solver=solver)
        with pytest.raises(ProgramError, match="negation"):
            inc.insert("Broken", [1])

    def test_rejection_leaves_state_untouched(self, solver):
        program = parse_program(
            """
            Good(a) :- Node(a), not Bad(a).
            Bad(a) :- Broken(a).
            """
        )
        db = Database()
        db.create_table("Node", ["a"]).add([1])
        db.create_table("Broken", ["a"])
        inc = IncrementalEvaluator(program, db, solver=solver)
        before = {name: len(inc.table(name)) for name in inc.relations()}
        with pytest.raises(ProgramError):
            inc.insert("Broken", [1])
        with pytest.raises(ProgramError):
            inc.check_insertable("Broken")
        after = {name: len(inc.table(name)) for name in inc.relations()}
        assert after == before  # a reject is a no-op, not a half-apply
        # check_insertable alone (the daemon's admission probe) is read-only
        inc.check_insertable("Node")
        assert {name: len(inc.table(name)) for name in inc.relations()} == before

    def test_unknown_apply_kind_rejected(self, solver):
        inc = IncrementalEvaluator(TC, fresh_db((1, 2)), solver=solver)
        with pytest.raises(ProgramError, match="unknown maintenance"):
            inc.apply("retract", "E", [1, 2])


class TestDuplicateIdempotence:
    def test_duplicate_insert_changes_nothing(self, solver):
        inc = IncrementalEvaluator(TC, fresh_db((1, 2), (2, 3)), solver=solver)
        inc.insert("E", [3, 4])
        sizes = {name: len(inc.table(name)) for name in inc.relations()}
        assert inc.insert("E", [3, 4]) == 0
        assert {name: len(inc.table(name)) for name in inc.relations()} == sizes

    def test_duplicate_conditional_insert_changes_nothing(self, solver):
        inc = IncrementalEvaluator(TC, fresh_db((1, 2)), solver=solver)
        inc.insert("E", [2, 3], eq(X, 1))
        sizes = {name: len(inc.table(name)) for name in inc.relations()}
        assert inc.insert("E", [2, 3], eq(X, 1)) == 0
        assert {name: len(inc.table(name)) for name in inc.relations()} == sizes

    def test_subsumed_condition_derives_nothing_new(self, solver):
        """An insert whose worlds are already covered is a no-op on T."""
        inc = IncrementalEvaluator(TC, fresh_db((1, 2)), solver=solver)
        t_before = len(inc.table("T"))
        assert inc.insert("E", [1, 2], eq(X, 1)) == 0
        assert len(inc.table("T")) == t_before


class TestBudgetDegradation:
    def test_exhausted_budget_keeps_unknown_like_batch(self, solver):
        """A spent call budget degrades propagation, it does not raise.

        Like the batch fixpoint, a delta tuple whose satisfiability or
        novelty the solver cannot decide is kept and recorded — sound,
        merely less simplified — so the worlds match an ungoverned run.
        """
        governor = Governor(solver_call_budget=0, on_budget="degrade").start()
        governed = ConditionSolver(
            DomainMap({X: BOOL_DOMAIN, Y: BOOL_DOMAIN}, default=Unbounded()),
            governor=governor,
        )
        inc = IncrementalEvaluator(
            TC, fresh_db((1, 2, eq(X, 1)), (2, 3)), solver=governed
        )
        kept_before = inc.stats.unknown_kept
        assert inc.insert("E", [3, 1], eq(Y, 1)) > 0
        assert inc.stats.unknown_kept > kept_before

        scratch = evaluate(
            TC,
            fresh_db((1, 2, eq(X, 1)), (2, 3), (3, 1, eq(Y, 1))),
            solver=solver,
        )
        assert_world_equivalent(solver, inc.table("T"), scratch.table("T"))


class TestWorkFollowsTheDelta:
    def test_announcement_probes_scale_with_what_it_derives(self, monkeypatch):
        """One extending announcement into a 40-prefix RIB (the serve
        benchmark's seed RIB): the rows the join's probes hand back stay
        proportional to the rows derived, not to the size of F."""
        routes = generate_rib(RibConfig(prefixes=40, as_count=60, seed=20210610))
        compiled = compile_forwarding(routes)
        program = parse_program(
            """
            R(f, n1, n2) :- F(f, n1, n2).
            R(f, n1, n2) :- F(f, n1, n3), R(f, n3, n2).
            """
        )
        inc = IncrementalEvaluator(
            program,
            compiled.database(),
            solver=ConditionSolver(compiled.domains, memo=MemoTable()),
        )
        handed_back = []
        candidates = IndexedTable.candidates

        def counting(self, pattern):
            for tup in candidates(self, pattern):
                handed_back.append(tup)
                yield tup

        monkeypatch.setattr(IndexedTable, "candidates", counting)
        route = routes[0]
        derived = inc.insert("F", [route.prefix, route.paths[0][-1], "X0"])
        assert derived > 0
        assert len(handed_back) <= 5 * derived, (len(handed_back), derived)

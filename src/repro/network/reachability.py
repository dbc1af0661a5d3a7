"""Reachability analysis under failures — Listing 2 as a library.

Wraps the fauré-log programs of §4 behind a typed API:

* :func:`reachability_program` — the recursive q4/q5 pair (2-ary
  ``F(n1, n2)`` or 3-ary ``F(f, n1, n2)`` per-flow form);
* :class:`ReachabilityAnalyzer` — computes the R table once, then
  answers failure-pattern queries (q6–q8 style) by nesting fauré-log
  queries over R, exactly as the paper layers T1/T2/T3.

Failure patterns are arbitrary conditions over the link-state
c-variables, so "reachability under 2-link failure", "…where link (2,3)
must be down", and "…with at least one failure" (the paper's three
examples) are one-liners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..ctable.condition import Condition, LinearAtom, TRUE
from ..ctable.table import CTable, Database
from ..ctable.terms import Constant, CVariable
from ..engine.pipeline import _memo_snapshot, _record_memo_delta
from ..engine.stats import EvalStats
from ..faurelog.ast import Atom, Literal, Program, Rule
from ..faurelog.evaluation import FaureEvaluator
from ..ctable.terms import Variable
from ..solver.interface import ConditionSolver

__all__ = [
    "reachability_program",
    "ReachabilityAnalyzer",
    "PatternQuery",
    "run_pattern_query",
]


@dataclass(frozen=True)
class PatternQuery:
    """One failure-pattern query (q6–q8 shape)."""

    pattern: Condition
    name: str = "T"
    source: Optional[Hashable] = None
    dest: Optional[Hashable] = None
    flow: Optional[Hashable] = None


def run_pattern_query(
    reach_db: Database,
    solver: ConditionSolver,
    per_flow: bool,
    query: PatternQuery,
    storage=None,
) -> Tuple[CTable, EvalStats]:
    """Evaluate one pattern query over a computed reachability database.

    :meth:`ReachabilityAnalyzer.under_pattern` is a thin wrapper over it.
    """
    args: List = []
    if per_flow:
        args.append(Constant(query.flow) if query.flow is not None else Variable("f"))
    args.append(Constant(query.source) if query.source is not None else Variable("n1"))
    args.append(Constant(query.dest) if query.dest is not None else Variable("n2"))
    body: List = [Literal(Atom("R", args))]
    if query.pattern is not TRUE:
        body.append(query.pattern)
    rule = Rule(Atom(query.name, args), body)
    evaluator = FaureEvaluator(reach_db, solver=solver, storage=storage)
    before = _memo_snapshot(solver) if solver is not None else None
    result = evaluator.evaluate(Program([rule]))
    if before is not None:
        _record_memo_delta(evaluator.stats, solver, before)
    return result.table(query.name), evaluator.stats


def reachability_program(
    forwarding: str = "F",
    result: str = "R",
    per_flow: bool = False,
) -> Program:
    """The q4/q5 recursive program.

    2-ary: ``R(n1,n2) :- F(n1,n2).  R(n1,n2) :- F(n1,n3), R(n3,n2).``
    Per-flow (3-ary) adds the flow attribute threaded through, as in
    Listing 2.
    """
    if per_flow:
        f, n1, n2, n3 = (Variable(n) for n in ("f", "n1", "n2", "n3"))
        return Program(
            [
                Rule(
                    Atom(result, [f, n1, n2]),
                    [Literal(Atom(forwarding, [f, n1, n2]))],
                    label="q4",
                ),
                Rule(
                    Atom(result, [f, n1, n2]),
                    [
                        Literal(Atom(forwarding, [f, n1, n3])),
                        Literal(Atom(result, [f, n3, n2])),
                    ],
                    label="q5",
                ),
            ]
        )
    n1, n2, n3 = (Variable(n) for n in ("n1", "n2", "n3"))
    return Program(
        [
            Rule(Atom(result, [n1, n2]), [Literal(Atom(forwarding, [n1, n2]))], label="q4"),
            Rule(
                Atom(result, [n1, n2]),
                [
                    Literal(Atom(forwarding, [n1, n3])),
                    Literal(Atom(result, [n3, n2])),
                ],
                label="q5",
            ),
        ]
    )


class ReachabilityAnalyzer:
    """All-pairs reachability over a forwarding c-table, plus patterns.

    Parameters
    ----------
    database:
        Holds the forwarding c-table (named ``forwarding``).
    solver:
        Decides/prunes conditions; its domain map must cover the
        link-state variables.
    per_flow:
        Use the 3-ary per-flow schema of Listing 2.
    """

    def __init__(
        self,
        database: Database,
        solver: ConditionSolver,
        forwarding: str = "F",
        per_flow: bool = False,
        checkpoint=None,
    ):
        self.database = database
        self.solver = solver
        self.forwarding = forwarding
        self.per_flow = per_flow
        #: Optional :class:`~repro.robustness.checkpoint.CheckpointJournal`;
        #: when set, the computed R table and every pattern-query result
        #: become durable as they finish, and a resumed run replays them
        #: instead of recomputing.
        self.checkpoint = checkpoint
        self.stats = EvalStats()
        self._reach_db: Optional[Database] = None
        self._reach_storage = None

    # -- the recursive core (q4-q5) -------------------------------------------

    def compute(self) -> CTable:
        """Run q4/q5 to fixpoint; caches and returns the R table.

        With a checkpoint attached, a durable R table from an earlier
        (killed) run is replayed instead of re-running the fixpoint,
        and a freshly computed table is journaled before returning.
        """
        from ..engine.storage import Storage

        reach_key = {"unit": "reach", "per_flow": self.per_flow}
        if self.checkpoint is not None:
            from ..robustness.checkpoint import stats_from_obj, table_from_obj

            payload = self.checkpoint.get("table", reach_key)
            if payload is not None:
                self._reach_db = Database([table_from_obj(payload["table"])])
                self._reach_storage = Storage(self._reach_db)
                self.stats.add(stats_from_obj(payload["stats"]))
                return self._reach_db.table("R")

        program = reachability_program(self.forwarding, "R", self.per_flow)
        evaluator = FaureEvaluator(self.database, solver=self.solver)
        before = _memo_snapshot(self.solver) if self.solver is not None else None
        self._reach_db = evaluator.evaluate(program)
        if before is not None:
            _record_memo_delta(evaluator.stats, self.solver, before)
        self._reach_storage = Storage(self._reach_db)
        self.stats.add(evaluator.stats)
        if self.checkpoint is not None:
            from ..robustness.checkpoint import stats_to_obj, table_to_obj

            self.checkpoint.record(
                "table",
                reach_key,
                {
                    "table": table_to_obj(self._reach_db.table("R")),
                    "stats": stats_to_obj(evaluator.stats),
                },
            )
        return self._reach_db.table("R")

    @property
    def reach_table(self) -> CTable:
        if self._reach_db is None:
            self.compute()
        return self._reach_db.table("R")

    # -- failure-pattern queries (q6-q8 style) -------------------------------------

    def under_pattern(
        self,
        pattern: Condition,
        name: str = "T",
        source: Optional[Hashable] = None,
        dest: Optional[Hashable] = None,
        flow: Optional[Hashable] = None,
    ) -> Tuple[CTable, EvalStats]:
        """Reachability restricted by a failure-pattern condition.

        ``pattern`` is a condition over link-state c-variables (e.g.
        ``x̄ + ȳ + z̄ = 1``); ``source``/``dest``/``flow`` optionally pin
        endpoints as in q7.  Returns the derived c-table and the
        per-query stats (sql vs solver split).

        With a checkpoint attached, a result that is already durable is
        replayed instead of re-run, and a freshly computed result is
        journaled before returning — so a killed run resumes with zero
        repeated queries.
        """
        query = PatternQuery(pattern, name=name, source=source, dest=dest, flow=flow)
        if self._reach_db is None:
            self.compute()
        if self.checkpoint is not None:
            from ..robustness.checkpoint import stats_from_obj, table_from_obj

            payload = self.checkpoint.get("pattern", self._query_key(query))
            if payload is not None:
                stats = stats_from_obj(payload["stats"])
                self.stats.add(stats)
                return table_from_obj(payload["table"]), stats
        table, stats = run_pattern_query(
            self._reach_db, self.solver, self.per_flow, query,
            storage=self._reach_storage,
        )
        self.stats.add(stats)
        if self.checkpoint is not None:
            from ..robustness.checkpoint import stats_to_obj, table_to_obj

            self.checkpoint.record(
                "pattern",
                self._query_key(query),
                {"table": table_to_obj(table), "stats": stats_to_obj(stats)},
            )
        return table, stats

    def _query_key(self, query: PatternQuery) -> Dict:
        """The checkpoint identity of one pattern query."""
        from ..ctable.io import condition_to_obj

        return {
            "unit": "pattern",
            "pattern": condition_to_obj(query.pattern),
            "name": query.name,
            "source": query.source,
            "dest": query.dest,
            "flow": query.flow,
            "per_flow": self.per_flow,
        }

    def exactly_k_up(
        self, variables: Sequence[CVariable], k: int, name: str = "T"
    ) -> Tuple[CTable, EvalStats]:
        """Pattern: exactly ``k`` of the given links are up (q6 shape)."""
        return self.under_pattern(LinearAtom(list(variables), "=", k), name=name)

    def at_least_one_failure(
        self, variables: Sequence[CVariable], name: str = "T"
    ) -> Tuple[CTable, EvalStats]:
        """Pattern: at least one of the given links failed (q8 shape)."""
        bound = len(variables) - 1
        return self.under_pattern(LinearAtom(list(variables), "<=", bound), name=name)

    # -- certain / possible classification ---------------------------------

    def classify(self) -> "AnswerSet":
        """Split all-pairs reachability into certain and possible facts.

        Certain pairs are reachable under *every* failure combination
        (the safe set); possible pairs come with the exact condition.
        """
        from ..faurelog.answers import classify_answers

        return classify_answers(self.reach_table, self.solver)

    def certain_pairs(self) -> set:
        """(src, dst) pairs reachable in every world."""
        answers = self.classify()
        offset = 1 if self.per_flow else 0
        return {
            (row[offset].value, row[offset + 1].value) for row in answers.certain
        }

    # -- concrete-world probes ----------------------------------------------------

    def holds_in_world(
        self,
        src: Hashable,
        dst: Hashable,
        assignment: Dict[CVariable, int],
        flow: Optional[Hashable] = None,
    ) -> bool:
        """Does src reach dst in the world given by the assignment?"""
        table = self.reach_table
        consts = {v: Constant(int(b)) for v, b in assignment.items()}
        want = []
        if self.per_flow:
            want.append(Constant(flow))
        want.extend([Constant(src), Constant(dst)])
        for tup in table:
            if list(tup.values) == want and tup.condition.evaluate(consts):
                return True
        return False

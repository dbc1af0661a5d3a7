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

import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..ctable.condition import Condition, LinearAtom, TRUE, conjoin, eq
from ..ctable.table import CTable, CTuple, Database
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
    """One failure-pattern query (q6–q8 shape), picklable for fan-out."""

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

    Module-level (rather than a method) so worker processes can run it
    against initializer-shipped state; :meth:`ReachabilityAnalyzer.
    under_pattern` is a thin wrapper over it.
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
        jobs: int = 1,
        checkpoint=None,
    ):
        self.database = database
        self.solver = solver
        self.forwarding = forwarding
        self.per_flow = per_flow
        #: Default worker count for :meth:`under_patterns` fan-out.
        self.jobs = max(1, int(jobs))
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
        """
        if self._reach_db is None:
            self.compute()
        query = PatternQuery(pattern, name=name, source=source, dest=dest, flow=flow)
        table, stats = run_pattern_query(
            self._reach_db, self.solver, self.per_flow, query,
            storage=self._reach_storage,
        )
        self.stats.add(stats)
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

    def under_patterns(
        self,
        queries: Sequence[PatternQuery],
        jobs: Optional[int] = None,
        executor=None,
    ) -> List[Tuple[CTable, EvalStats]]:
        """Run independent pattern queries, optionally across a pool.

        ``jobs=1`` is exactly a loop over :meth:`under_pattern`.  With
        ``jobs > 1`` the computed reachability database ships to each
        worker once (pool initializer) and queries fan out; results and
        their :class:`EvalStats` merge back **in query order**, with
        worker CPU accounted in ``stats.extra["parallel_cpu_seconds"]``
        and shard/wall counters alongside.  Each parallel query runs
        under a governor rebuilt from the parent's remaining budgets,
        with its own deterministic per-query fault schedule.

        With a checkpoint attached, queries whose results are already
        durable are replayed (never re-run), and each freshly computed
        result is journaled as it completes — so a killed run resumes
        with zero repeated queries.
        """
        if self._reach_db is None:
            self.compute()
        jobs = self.jobs if jobs is None else jobs

        results: Dict[int, Tuple[CTable, EvalStats]] = {}
        pending: List[Tuple[int, PatternQuery]] = []
        if self.checkpoint is not None:
            from ..robustness.checkpoint import stats_from_obj, table_from_obj

            for i, q in enumerate(queries):
                payload = self.checkpoint.get("pattern", self._query_key(q))
                if payload is None:
                    pending.append((i, q))
                    continue
                stats = stats_from_obj(payload["stats"])
                self.stats.add(stats)
                results[i] = (table_from_obj(payload["table"]), stats)
        else:
            pending = list(enumerate(queries))

        if pending:
            computed = self._run_patterns([q for _, q in pending], jobs, executor)
            for (i, q), outcome in zip(pending, computed):
                if self.checkpoint is not None:
                    from ..robustness.checkpoint import stats_to_obj, table_to_obj

                    self.checkpoint.record(
                        "pattern",
                        self._query_key(q),
                        {
                            "table": table_to_obj(outcome[0]),
                            "stats": stats_to_obj(outcome[1]),
                        },
                    )
                results[i] = outcome
        return [results[i] for i in range(len(queries))]

    def _run_patterns(
        self,
        queries: Sequence[PatternQuery],
        jobs: int,
        executor,
    ) -> List[Tuple[CTable, EvalStats]]:
        """The actual serial-or-parallel pattern execution."""
        if jobs <= 1 or len(queries) <= 1:
            return [
                self.under_pattern(
                    q.pattern, name=q.name, source=q.source, dest=q.dest, flow=q.flow
                )
                for q in queries
            ]
        from ..parallel.executor import balanced_shards
        from ..parallel.shared_memo import reads_allowed, session_for
        from ..parallel.spec import GovernorSpec
        from ..parallel.supervisor import SupervisedExecutor, TaskLost, fold_failures
        from ..parallel.worker import init_pattern_worker, run_pattern_shard
        from ..robustness.errors import WorkerLost

        executor = executor or SupervisedExecutor(jobs)
        governor = self.solver.governor
        session = session_for(self.solver.memo, executor)
        reads = reads_allowed(governor)
        store_hits_before = 0
        if session is not None:
            session.enable_parent_reads(reads)
            store_hits_before = session.store.hits

        def _initargs() -> tuple:
            # Re-snapshot the live governor on every (re)spawn so a
            # retried query honors the original deadline — the spec
            # serializes *remaining* seconds (see GovernorSpec).
            # The memo seed and the warm storage ride along only for
            # ungoverned runs (same rule as store reads): a warm worker
            # memo changes governed call sequences.  Under fork both are
            # copy-on-write, so a worker starts exactly as warm as the
            # serial path instead of re-solving the compute phase.
            return (
                self._reach_db,
                self.solver.domains,
                self.per_flow,
                GovernorSpec.from_governor(governor),
                self.solver.enumeration_limit,
                self.solver.memo is not None,
                self.solver.fast_path,
                session.handle(reads) if session is not None else None,
                self.solver.memo._entries
                if reads and self.solver.memo is not None
                else None,
                self._reach_storage,
            )

        # Coarse sharding: a few queries per pickle instead of one task
        # per query — 2 shards per worker keeps the pool load-balanced
        # when query costs are skewed without reverting to per-query IPC.
        shards = balanced_shards(list(queries), jobs * 2)
        start = time.perf_counter()
        results = executor.map(
            run_pattern_shard,
            shards,
            initializer=init_pattern_worker,
            initargs=_initargs(),
            refresh_initargs=_initargs,
        )
        wall = time.perf_counter() - start
        fold_failures(executor, governor=governor, stats=self.stats)
        out: List[Tuple[CTable, EvalStats]] = []
        for shard_index, shard_res in enumerate(results):
            if isinstance(shard_res, TaskLost):
                # Unlike pruning (keep the tuple) or verification
                # (INCONCLUSIVE), a missing pattern-query answer has no
                # sound partial form — the loss must surface.
                raise WorkerLost(
                    f"pattern shard {shard_res.task_index} "
                    f"({len(shards[shard_index])} queries) lost: {shard_res.reason}",
                    task_index=shard_res.task_index,
                )
            for res in shard_res["results"]:
                stats: EvalStats = res["stats"]
                self.stats.add(stats)
                solver_stats = res["solver_stats"]
                for field_name, value in solver_stats.items():
                    if field_name == "time_seconds":
                        self.stats.extra["parallel_cpu_seconds"] = (
                            self.stats.extra.get("parallel_cpu_seconds", 0.0) + value
                        )
                        continue
                    setattr(
                        self.solver.stats,
                        field_name,
                        getattr(self.solver.stats, field_name) + value,
                    )
                if res.get("events") is not None and governor is not None:
                    governor.absorb(res["events"])
                out.append((res["table"], stats))
            shared = shard_res.get("shared_memo")
            if shared is not None:
                for field_name, value in shared.items():
                    key = f"shared_memo_{field_name}"
                    self.stats.extra[key] = self.stats.extra.get(key, 0) + value
        self.stats.extra["parallel_shards"] = (
            self.stats.extra.get("parallel_shards", 0) + len(shards)
        )
        self.stats.extra["parallel_wall_seconds"] = (
            self.stats.extra.get("parallel_wall_seconds", 0.0) + wall
        )
        self.stats.extra["parallel_tasks"] = (
            self.stats.extra.get("parallel_tasks", 0) + executor.last_tasks
        )
        self.stats.extra["ipc_bytes"] = (
            self.stats.extra.get("ipc_bytes", 0) + executor.last_ipc_bytes
        )
        if session is not None:
            self.stats.extra["shared_memo_hits"] = self.stats.extra.get(
                "shared_memo_hits", 0
            ) + (session.store.hits - store_hits_before)
        return out

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

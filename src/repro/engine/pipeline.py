"""The paper's three-phase evaluation pipeline.

§6 describes the PostgreSQL implementation as three steps:

1. generate the **data part** of the result c-table in pure SQL;
2. attach the proper **conditions** (including fauré-log pattern
   matching) by a sequence of SQL UPDATEs;
3. invoke **Z3** to remove tuples with contradictory conditions.

Our algebra fuses steps 1–2 (each operator emits data and condition
together — semantically identical, since conditions are a function of the
matched tuples), so the pipeline exposes the same two execution
strategies the evaluation cares about:

* :func:`run_lazy` — relational work first, one solver pass at the end
  (the paper's staging; the "sql"/"z3" split of Table 4);
* :func:`run_eager` — solver-prune inside every operator, keeping
  intermediate relations minimal (the ablation variant).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..ctable.table import CTable, Database
from ..solver.interface import ConditionSolver
from .algebra import PlanNode, evaluate_plan
from .stats import EvalStats, Stopwatch

__all__ = ["run_lazy", "run_eager", "solver_prune"]


def _memo_snapshot(solver: ConditionSolver) -> Tuple[int, int, int, int, int]:
    s = solver.stats
    return (
        s.memo_hits,
        s.memo_misses,
        s.canonical_collapses,
        s.fast_path_hits,
        s.fast_path_misses,
    )


def _record_memo_delta(
    stats: EvalStats,
    solver: ConditionSolver,
    before: Tuple[int, int, int, int, int],
) -> None:
    """Fold this phase's memo and fast-path activity into ``stats.extra``."""
    after = _memo_snapshot(solver)
    keys = (
        "memo_hits",
        "memo_misses",
        "canonical_collapses",
        "fast_path_hits",
        "fast_path_misses",
    )
    for key, prev, now in zip(keys, before, after):
        delta = now - prev
        if delta:
            stats.extra[key] = stats.extra.get(key, 0) + delta


def solver_prune(
    table: CTable,
    solver: ConditionSolver,
    stats: Optional[EvalStats] = None,
    jobs: int = 1,
    executor=None,
) -> CTable:
    """Phase 3: drop tuples whose conditions are unsatisfiable.

    Pruning is an optimisation, never a correctness requirement: a
    tuple whose condition comes back ``UNKNOWN`` under a resource
    governor is *kept* (counted in ``stats.unknown_kept``), leaving the
    result loss-less but less simplified.

    The table is pruned by canonical equivalence class — one solver
    decision per distinct condition form, verdicts fanned back to the
    member tuples — and with ``jobs > 1`` residual undecided classes
    are sharded across a worker pool (:mod:`repro.parallel.batch`).
    The output table is identical for every ``jobs`` value.
    """
    from ..parallel.batch import prune_batched

    stats = stats if stats is not None else EvalStats()
    watch = Stopwatch()
    before = _memo_snapshot(solver)
    with watch.measure():
        out = prune_batched(table, solver, stats, jobs=jobs, executor=executor)
    stats.solver_seconds += watch.seconds
    _record_memo_delta(stats, solver, before)
    return out


def run_lazy(
    plan: PlanNode,
    db: Database,
    solver: ConditionSolver,
    stats: Optional[EvalStats] = None,
    jobs: int = 1,
    executor=None,
) -> Tuple[CTable, EvalStats]:
    """Phases 1–2 without pruning, then one final solver pass (phase 3)."""
    stats = stats if stats is not None else EvalStats()
    if solver.governor is not None:
        solver.governor.ensure_started()
    if executor is None and jobs > 1:
        from ..parallel.supervisor import SupervisedExecutor

        executor = SupervisedExecutor(jobs)
    raw = evaluate_plan(plan, db, solver=None, prune=False, stats=stats)
    pruned = solver_prune(raw, solver, stats, jobs=jobs, executor=executor)
    return pruned, stats


def run_eager(
    plan: PlanNode,
    db: Database,
    solver: ConditionSolver,
    stats: Optional[EvalStats] = None,
    jobs: int = 1,
    executor=None,
) -> Tuple[CTable, EvalStats]:
    """Prune inside every operator (intermediate relations stay small)."""
    stats = stats if stats is not None else EvalStats()
    if solver.governor is not None:
        solver.governor.ensure_started()
    if executor is None and jobs > 1:
        # One supervised executor shared across every operator's prune,
        # so failure accounting accumulates over the whole evaluation.
        from ..parallel.supervisor import SupervisedExecutor

        executor = SupervisedExecutor(jobs)
    before = _memo_snapshot(solver)
    result = evaluate_plan(
        plan, db, solver=solver, prune=True, stats=stats, jobs=jobs, executor=executor
    )
    _record_memo_delta(stats, solver, before)
    return result, stats

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

from typing import Dict, List, Optional, Tuple

from ..ctable.condition import Condition, FalseCond, TrueCond
from ..ctable.table import CTable, Database
from ..robustness.verdict import Verdict
from ..solver.interface import ConditionSolver
from .algebra import PlanNode, evaluate_plan
from .stats import EvalStats, Stopwatch

__all__ = ["run_lazy", "run_eager", "solver_prune", "group_classes"]


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


def group_classes(
    table: CTable, solver: ConditionSolver
) -> Tuple[List[Tuple[Condition, List[int]]], List[int]]:
    """Group tuple indices by condition equivalence class.

    Returns ``(classes, per_tuple)`` where each class is ``(rep, member
    indices)`` — ``rep`` being the first member's *original* condition —
    in first-appearance order, and ``per_tuple`` lists indices whose
    conditions are over the governor's size ceiling.  Oversized
    conditions are never canonicalized (the ceiling applies *before*
    interning) and are decided tuple by tuple, where the governed
    rejection happens without consuming fault-injection or call-budget
    slots — exactly as in a per-tuple pruner.
    """
    governor = solver.governor
    ceiling = governor.max_condition_atoms if governor is not None else None
    grouped: Dict[object, int] = {}
    classes: List[Tuple[Condition, List[int]]] = []
    per_tuple: List[int] = []
    for i, tup in enumerate(table):
        cond = tup.condition
        if (
            ceiling is not None
            and not isinstance(cond, (TrueCond, FalseCond))
            and sum(1 for _ in cond.atoms()) > ceiling
        ):
            per_tuple.append(i)
            continue
        key = solver.canonical(cond)
        slot = grouped.get(key)
        if slot is None:
            grouped[key] = len(classes)
            classes.append((cond, [i]))
        else:
            classes[slot][1].append(i)
    return classes, per_tuple


def solver_prune(
    table: CTable,
    solver: ConditionSolver,
    stats: Optional[EvalStats] = None,
) -> CTable:
    """Phase 3: drop tuples whose conditions are unsatisfiable.

    Pruning is an optimisation, never a correctness requirement: a
    tuple whose condition comes back ``UNKNOWN`` under a resource
    governor is *kept* (counted in ``stats.unknown_kept``), leaving the
    result loss-less but less simplified.

    The table is pruned by canonical equivalence class
    (:func:`group_classes`): each class is first probed through the
    solver's caches (:meth:`ConditionSolver.sat_verdict_cached`), then
    every residual class gets one governed :meth:`sat_verdict` call, in
    class order; oversized conditions are decided per tuple.  Verdicts
    fan back to the member tuples in original table order, so the
    result equals the per-tuple pruner's — and with duplicates present
    it is strictly cheaper.
    """
    stats = stats if stats is not None else EvalStats()
    watch = Stopwatch()
    before = _memo_snapshot(solver)
    with watch.measure():
        if solver.governor is not None:
            solver.governor.ensure_started()
        classes, per_tuple = group_classes(table, solver)
        verdicts = [solver.sat_verdict_cached(rep) for rep, _ in classes]
        for index, (rep, _) in enumerate(classes):
            if verdicts[index] is None:
                verdicts[index] = solver.sat_verdict(rep)
        by_tuple: Dict[int, Verdict] = {}
        for verdict, (_, members) in zip(verdicts, classes):
            for i in members:
                by_tuple[i] = verdict
        oversized = set(per_tuple)
        out = CTable(table.name, table.schema)
        for i, tup in enumerate(table):
            verdict = (
                solver.sat_verdict(tup.condition) if i in oversized else by_tuple[i]
            )
            if verdict is Verdict.UNSAT:
                stats.tuples_pruned += 1
                continue
            if verdict is Verdict.UNKNOWN:
                stats.unknown_kept += 1
            out.add(tup)
    stats.solver_seconds += watch.seconds
    _record_memo_delta(stats, solver, before)
    return out


def run_lazy(
    plan: PlanNode,
    db: Database,
    solver: ConditionSolver,
    stats: Optional[EvalStats] = None,
) -> Tuple[CTable, EvalStats]:
    """Phases 1–2 without pruning, then one final solver pass (phase 3)."""
    stats = stats if stats is not None else EvalStats()
    if solver.governor is not None:
        solver.governor.ensure_started()
    raw = evaluate_plan(plan, db, solver=None, prune=False, stats=stats)
    pruned = solver_prune(raw, solver, stats)
    return pruned, stats


def run_eager(
    plan: PlanNode,
    db: Database,
    solver: ConditionSolver,
    stats: Optional[EvalStats] = None,
) -> Tuple[CTable, EvalStats]:
    """Prune inside every operator (intermediate relations stay small)."""
    stats = stats if stats is not None else EvalStats()
    if solver.governor is not None:
        solver.governor.ensure_started()
    before = _memo_snapshot(solver)
    result = evaluate_plan(plan, db, solver=solver, prune=True, stats=stats)
    _record_memo_delta(stats, solver, before)
    return result, stats

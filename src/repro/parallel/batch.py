"""Batched, optionally multiprocess condition pruning (pipeline phase 3).

The serial pruner asked the solver about every tuple's condition
individually, even though a c-table produced by the relational phases is
dominated by *semantically repeated* conditions (the same failure
pattern attached to many routes).  This module prunes in three stages:

1. **Group** the table by canonical condition form — one equivalence
   class per distinct canonical condition, every member tuple attached.
   With memoization disabled the grouping degrades to structural
   equality (still deduplicating identical conditions).
2. **Probe** each class once through the cheap cached prefix of the
   solver (:meth:`ConditionSolver.sat_verdict_cached`): trivial
   structure, per-solver cache, canonical collapse, memo peek.  Classes
   that survive the probe are the **residual** — the ones that need a
   real decision procedure.
3. **Decide** the residual classes: inline for ``jobs=1``; for
   ``jobs>1`` sharded at canonical-class-*group* granularity — classes
   ordered by their c-variable footprint and cut into one contiguous,
   size-balanced shard per worker (one pickle per shard, not per
   class) — across a process pool where each worker owns a
   :class:`ConditionSolver` over the pickled :class:`DomainMap` and a
   governor rebuilt from the parent's
   :class:`~repro.parallel.spec.GovernorSpec`.  Workers share verdicts
   through the cross-worker store
   (:mod:`repro.parallel.shared_memo`) and return ``(class index,
   verdict)`` pairs; the parent folds definite verdicts into the shared
   :class:`~repro.solver.memo.MemoTable` (only those that went past the
   solver's raw rung, as the serial path does) and fans all verdicts
   back to member tuples **in original table order**, so the output
   table is byte-identical whatever ``jobs`` was.

Robustness contracts preserved across the process boundary:

* the governor's deadline serializes as *remaining* wall-clock and its
  step budget/size ceiling travel verbatim; the **call budget** is
  enforced globally by the parent (a worker would otherwise get the
  whole remaining budget each), with over-budget classes degraded to
  ``UNKNOWN`` exactly as the serial call sequence would have;
* fault injection is deterministic and jobs-invariant: the parent
  precomputes each residual class's fault directive from the plan
  applied to the class's *global* decision index, so the same classes
  fault under ``jobs=1`` and ``jobs=N``;
* ``UNKNOWN`` is kept-not-cached: degraded verdicts reach the member
  tuples (kept, counted in ``stats.unknown_kept``) but never enter the
  parent's memo or per-solver cache.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from ..ctable.condition import Condition, FalseCond, TrueCond
from ..ctable.table import CTable
from ..engine.stats import EvalStats
from ..robustness.errors import BudgetExceeded
from ..robustness.faultinject import FaultInjector
from ..robustness.verdict import Verdict
from ..solver.interface import ConditionSolver
from .executor import ParallelExecutor, balanced_shards
from .shared_memo import reads_allowed, session_for
from .spec import GovernorSpec, fault_directive
from .supervisor import SupervisedExecutor, TaskLost, fold_failures
from .worker import init_prune_worker, run_prune_shard

__all__ = ["group_classes", "prune_batched"]

#: Worker counters folded into the parent's ``SolverStats`` verbatim;
#: worker wall-clock is accounted separately (it overlaps).
_FOLD_FIELDS = (
    "sat_calls",
    "implication_calls",
    "cache_hits",
    "enumeration_used",
    "dpll_used",
    "unknown_verdicts",
    "budget_hits",
    "fallbacks",
    "memo_hits",
    "memo_misses",
    "canonical_collapses",
    "fast_path_hits",
    "fast_path_misses",
)


def _atom_count(condition: Condition) -> int:
    return sum(1 for _ in condition.atoms())


def group_classes(
    table: CTable, solver: ConditionSolver
) -> Tuple[List[Tuple[Condition, List[int]]], List[int]]:
    """Group tuple indices by condition equivalence class.

    Returns ``(classes, per_tuple)`` where each class is ``(rep, member
    indices)`` — ``rep`` being the first member's *original* condition —
    in first-appearance order, and ``per_tuple`` lists indices whose
    conditions are over the governor's size ceiling.  Oversized
    conditions are never canonicalized (the ceiling applies *before*
    interning) and are decided tuple-by-tuple on the serial path, where
    the governed rejection happens without consuming fault-injection or
    call-budget slots — exactly as in the unbatched pruner.
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
            and _atom_count(cond) > ceiling
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


def _residual_directives(
    governor, count: int
) -> Tuple[Optional[FaultInjector], List[Optional[str]]]:
    """Precompute the fault kind for each global residual index.

    Directive ``r`` mirrors what the parent injector would have fired on
    its ``base + r + 1``-th call — the call the serial path would make
    for residual class ``r`` — making the schedule a pure function of
    the workload, independent of sharding.
    """
    injector = None
    if governor is not None and isinstance(governor.injector, FaultInjector):
        injector = governor.injector
    if injector is None or injector.plan is None:
        return injector, [None] * count
    base = injector.calls
    directives: List[Optional[Tuple[str, int]]] = []
    for r in range(count):
        kind = fault_directive(injector.plan, base + r + 1)
        directives.append(None if kind is None else (kind, base + r + 1))
    return injector, directives


def _emulate_over_budget(
    solver: ConditionSolver,
    injector: Optional[FaultInjector],
    directive: Optional[Tuple[str, int]],
) -> None:
    """Account one residual decision past the exhausted call budget.

    Mirrors the serial call sequence: ``begin_solver_call`` consumes the
    call and fires the injector *before* the budget check, so injected
    faults still fire (and win) past exhaustion; either way the call
    degrades to ``UNKNOWN`` — or raises under ``on_budget="fail"``.
    """
    governor = solver.governor
    stats = solver.stats
    kind = directive[0] if directive is not None else None
    stats.sat_calls += 1
    governor.events.solver_calls += 1
    governor._calls_used += 1
    if injector is not None:
        injector.calls += 1
    if kind is not None:
        injector.injected[kind] += 1
        governor.events.injected_faults += 1
        if kind == "timeout":
            stats.budget_hits += 1
    else:
        governor.events.budget_hits += 1
        stats.budget_hits += 1
    if not governor.degrade:
        raise BudgetExceeded(
            f"solver-call budget of {governor.solver_call_budget} exhausted",
            resource="solver-calls",
        )
    stats.unknown_verdicts += 1
    governor.events.unknown_verdicts += 1


def _decide_residual_parallel(
    residual: List[Tuple[int, Condition]],
    solver: ConditionSolver,
    stats: EvalStats,
    jobs: int,
    executor: Optional[ParallelExecutor],
) -> Dict[int, Verdict]:
    """Decide residual classes across a worker pool; fold everything back."""
    governor = solver.governor
    injector, directives = _residual_directives(governor, len(residual))
    budget = governor.remaining_calls() if governor is not None else None
    decided_n = len(residual) if budget is None else min(budget, len(residual))

    executor = executor or SupervisedExecutor(jobs)
    session = session_for(solver.memo, executor)
    reads = reads_allowed(governor)
    if session is not None:
        session.enable_parent_reads(reads)
        store_hits_before = session.store.hits

    def _initargs() -> tuple:
        """Initializer args with a *live* governor snapshot.

        Also the supervised executor's ``refresh_initargs`` hook: the
        spec serializes the deadline as *remaining* seconds, so a worker
        respawned for a retry must re-snapshot from the parent's live
        governor — a stale spec would re-arm the full original deadline
        and let a retried task outlive the query's wall-clock budget.
        """
        spec = GovernorSpec.from_governor(governor)
        if spec is not None:
            # The parent enforces the call budget globally (each worker
            # would otherwise spend the whole remainder) and replaces the
            # plan with the per-shard schedule computed above.
            spec = replace(spec, solver_call_budget=None, fault_plan=None)
        return (
            solver.domains,
            spec,
            solver.enumeration_limit,
            solver.memo is not None,
            solver.fast_path,
            session.handle(reads) if session is not None else None,
        )

    # Canonical-class-group sharding: order the in-budget residual by
    # the classes' c-variable footprint so one shard holds conditions
    # over the same variables (shared interning, adjacent memo keys),
    # then cut contiguous balanced runs — one pickle per shard instead
    # of one per class.  Each entry carries its own precomputed fault
    # directive, so *any* partition preserves the jobs=1 schedule; the
    # class index keys the verdict fan-out, so the grouping order never
    # reaches the output.
    def _locality_key(entry):
        return (
            tuple(sorted(v.name for v in entry[1].cvariables())),
            entry[0],
        )

    entries = sorted(
        (
            (residual[r][0], residual[r][1], directives[r])
            for r in range(decided_n)
        ),
        key=_locality_key,
    )
    shards = balanced_shards(entries, jobs)
    start = time.perf_counter()
    results = executor.map(
        run_prune_shard,
        shards,
        initializer=init_prune_worker,
        initargs=_initargs(),
        refresh_initargs=_initargs,
    )
    wall = time.perf_counter() - start
    fold_failures(executor, governor=governor, stats=stats)

    verdicts: Dict[int, Verdict] = {}
    past_raw: Set[int] = set()
    first_error: Optional[Tuple[int, BaseException]] = None
    injected_totals = {"timeout": 0, "failure": 0, "oversize": 0}
    for shard, result in zip(shards, results):
        if isinstance(result, TaskLost):
            # Unrecoverable shard under on_worker_loss="degrade": every
            # class in it degrades to UNKNOWN — member tuples are kept,
            # never pruned on missing evidence (sound, like budget
            # exhaustion; the loss is visible in the failure counters).
            for class_index, _cond, _kind in shard:
                verdicts[class_index] = Verdict.UNKNOWN
            continue
        error = result.get("error")
        if error is not None and (first_error is None or error[0] < first_error[0]):
            first_error = error
        for class_index, name, memoized in result["verdicts"]:
            verdicts[class_index] = Verdict[name]
            if memoized:
                past_raw.add(class_index)
        worker_stats = result["stats"]
        for field in _FOLD_FIELDS:
            setattr(
                solver.stats, field, getattr(solver.stats, field) + worker_stats[field]
            )
        stats.extra["parallel_cpu_seconds"] = (
            stats.extra.get("parallel_cpu_seconds", 0.0) + worker_stats["time_seconds"]
        )
        shared = result.get("shared_memo")
        if shared is not None:
            for field, value in shared.items():
                key = f"shared_memo_{field}"
                stats.extra[key] = stats.extra.get(key, 0) + value
        events = result.get("events")
        if events is not None and governor is not None:
            decided = len(result["verdicts"]) + (1 if error is not None else 0)
            governor.absorb(events, calls=decided)
        injected = result.get("injected")
        if injected is not None:
            for kind, n in injected.items():
                injected_totals[kind] += n

    # Keep the parent injector's sequence aligned with the serial path so
    # later phases inject on the same calls regardless of jobs.
    if injector is not None:
        injector.calls += decided_n
        for kind, n in injected_totals.items():
            injector.injected[kind] += n
    if first_error is not None:
        raise first_error[1]

    # Fold definite verdicts into the per-solver cache, and into the
    # shared memo those the serial path would have memoized there: the
    # ones its raw rung could not decide.  UNKNOWN is kept-not-cached,
    # exactly as in the serial path.
    for r in range(decided_n):
        class_index, condition = residual[r]
        verdict = verdicts[class_index]
        if verdict is Verdict.UNKNOWN:
            continue
        result = verdict is Verdict.SAT
        if solver.memo is not None and class_index in past_raw:
            canon = solver.memo.canonical(condition)
            if not isinstance(canon, (TrueCond, FalseCond)):
                solver.memo.put(solver.memo.sat_key(canon, solver.domains), result)
        solver._sat_cache[condition] = result

    for r in range(decided_n, len(residual)):
        _emulate_over_budget(solver, injector, directives[r])
        verdicts[residual[r][0]] = Verdict.UNKNOWN

    stats.extra["parallel_shards"] = stats.extra.get("parallel_shards", 0) + len(shards)
    stats.extra["parallel_wall_seconds"] = (
        stats.extra.get("parallel_wall_seconds", 0.0) + wall
    )
    stats.extra["parallel_tasks"] = (
        stats.extra.get("parallel_tasks", 0) + executor.last_tasks
    )
    stats.extra["ipc_bytes"] = (
        stats.extra.get("ipc_bytes", 0) + executor.last_ipc_bytes
    )
    if session is not None:
        # Parent-side backing hits (probe phase and verdict fold-back).
        stats.extra["shared_memo_hits"] = stats.extra.get("shared_memo_hits", 0) + (
            session.store.hits - store_hits_before
        )
    return verdicts


def prune_batched(
    table: CTable,
    solver: ConditionSolver,
    stats: Optional[EvalStats] = None,
    jobs: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> CTable:
    """Batched phase-3 prune; drop-in replacement for the per-tuple loop.

    ``jobs=1`` decides residual classes inline through the parent solver
    (one governed call per class, in class order); ``jobs>1`` shards
    them across a pool.  Either way the verdict fan-out walks the table
    in original order, so the result is identical to — and with
    duplicates present, strictly cheaper than — the per-tuple pruner.
    """
    stats = stats if stats is not None else EvalStats()
    governor = solver.governor
    if governor is not None:
        governor.ensure_started()
    classes, per_tuple = group_classes(table, solver)

    verdicts: Dict[int, Verdict] = {}
    residual: List[Tuple[int, Condition]] = []
    for class_index, (rep, _members) in enumerate(classes):
        probe = solver.sat_verdict_cached(rep)
        if probe is None:
            residual.append((class_index, rep))
        else:
            verdicts[class_index] = probe

    if residual:
        if jobs <= 1 or len(residual) == 1:
            for class_index, rep in residual:
                verdicts[class_index] = solver.sat_verdict(rep)
        else:
            verdicts.update(
                _decide_residual_parallel(residual, solver, stats, jobs, executor)
            )

    by_tuple: Dict[int, Verdict] = {}
    for class_index, (_rep, members) in enumerate(classes):
        verdict = verdicts[class_index]
        for i in members:
            by_tuple[i] = verdict

    per_tuple_set = set(per_tuple)
    out = CTable(table.name, table.schema)
    for i, tup in enumerate(table):
        verdict = (
            solver.sat_verdict(tup.condition) if i in per_tuple_set else by_tuple[i]
        )
        if verdict is Verdict.UNSAT:
            stats.tuples_pruned += 1
            continue
        if verdict is Verdict.UNKNOWN:
            stats.unknown_kept += 1
        out.add(tup)
    return out

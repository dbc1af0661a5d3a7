"""Module-level worker functions for the process pool.

Everything here must be importable by name in a worker process (the
``multiprocessing`` pickling contract), so the functions live at module
level and per-worker state travels through pool initializers into the
module-global ``_*_STATE`` dicts.

Three worker families:

* **prune workers** — decide a shard of residual canonical condition
  classes (:mod:`repro.parallel.batch`).  Each worker builds its own
  :class:`~repro.solver.interface.ConditionSolver` over the pickled
  :class:`~repro.solver.domains.DomainMap`, governed by the parent's
  :class:`~repro.parallel.spec.GovernorSpec` and the shard's
  precomputed fault schedule;
* **pattern workers** — run independent per-prefix failure-pattern
  queries over a shipped reachability c-table
  (:meth:`~repro.network.reachability.ReachabilityAnalyzer.under_patterns`);
* **verify workers** — run the relative-complete ladder on independent
  target constraints
  (:meth:`~repro.verify.verifier.RelativeCompleteVerifier.verify_many`).

Workers return plain picklable records (verdict names, c-tables, stats
dicts); all folding into shared state — the parent's
:class:`~repro.solver.memo.MemoTable`, governor ledger, and
:class:`~repro.engine.stats.EvalStats` — happens in the parent, in
deterministic task order.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from .. import clock as _clock
from ..robustness.errors import BudgetExceeded, ConditionTooLarge, SolverFailure
from ..solver.interface import ConditionSolver, SolverStats
from ..solver.memo import MemoTable
from .shared_memo import SharedVerdictStore, StoreHandle
from .spec import GovernorSpec, ScheduledFaultInjector

__all__ = [
    "solver_stats_dict",
    "init_prune_worker",
    "run_prune_shard",
    "init_pattern_worker",
    "run_pattern_task",
    "run_pattern_shard",
    "init_verify_worker",
    "run_verify_task",
    "run_verify_shard",
    "INLINE_STATE_DICTS",
]

#: Counters a worker reports back; ``time_seconds`` is kept separate so
#: the parent can account worker CPU apart from its own wall-clock.
_STAT_FIELDS = (
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
    "time_seconds",
)


def solver_stats_dict(stats: SolverStats) -> Dict[str, float]:
    """Flatten a worker's :class:`SolverStats` for the return trip."""
    return {name: getattr(stats, name) for name in _STAT_FIELDS}


#: Open shared-verdict-store attachments, keyed by log path, so one
#: worker process attaches once however many shards it runs.  Guarded by
#: :data:`INLINE_STATE_DICTS` — an inline (in-parent) run must not leave
#: a dangling attachment behind.
_STORE_CACHE: Dict[str, SharedVerdictStore] = {}


def _open_store(handle: Optional[StoreHandle]) -> Optional[SharedVerdictStore]:
    """Attach to the parent's shared verdict log (cached per path).

    A failed attach (the parent already tore the log down) degrades to
    ``None`` — the worker just loses cross-process sharing.
    """
    if handle is None:
        return None
    store = _STORE_CACHE.get(handle.path)
    if store is None:
        store = handle.open()
        if store is None:
            return None
        _STORE_CACHE[handle.path] = store
    store.reads = handle.reads
    return store


def _worker_memo(
    memo_enabled: bool,
    store: Optional[SharedVerdictStore] = None,
    seed: Optional[Dict] = None,
) -> Optional[MemoTable]:
    """A worker-private memo table (processes cannot share the parent's).

    When the parent runs with memoization disabled (``--no-memo``) the
    workers honor that: no canonicalization, no verdict sharing — and no
    shared store either.  With a store attached, the memo's definite
    verdicts stream to the shared log (writer observer) and, when the
    parent enabled reads, local misses poll the log before solving.

    ``seed`` is the parent memo's entry dict, shipped through the
    initializer for ungoverned runs: under ``fork`` it arrives by
    copy-on-write (no pickling, no log round-trip), so the worker starts
    with the serial path's warm memo instead of re-deriving it record by
    record through the store.  Seeding happens *before* the store
    observer attaches — the session already seeded the log with the same
    entries, so re-appending them would only duplicate dedup work.
    Condition equality is structural, so parent-built keys match the
    worker's own canonicalizations.
    """
    if not memo_enabled:
        return None
    memo = MemoTable()
    if seed:
        memo._entries.update(seed)
    if store is not None:
        memo.add_observer(store.append_key)
        if store.reads:
            memo.backing = store.lookup_key
    return memo


def _store_deltas(
    store: Optional[SharedVerdictStore], before: Tuple[int, int]
) -> Dict[str, int]:
    """Hit/write deltas since ``before`` — one worker process runs many
    shards against one cumulative store, so absolutes would double-count
    when the parent folds every shard's report."""
    if store is None:
        return {"hits": 0, "writes": 0}
    return {"hits": store.hits - before[0], "writes": store.writes - before[1]}


def _store_marks(store: Optional[SharedVerdictStore]) -> Tuple[int, int]:
    return (store.hits, store.writes) if store is not None else (0, 0)


def _use_worker_clock() -> None:
    """Account this worker's sql/solver phases on the CPU clock.

    A worker's ``perf_counter`` keeps ticking while the process is
    descheduled, so on a timeshared host the per-worker phase times sum
    to far more than the actual work (the historical "summed sql_s
    exceeds wall_s" benchmark artifact).  ``process_time`` measures only
    this process's CPU, which *is* additive across workers.  The parent
    keeps wall time — :data:`INLINE_STATE_DICTS` includes the clock so
    inline initializer runs restore it.
    """
    _clock._CLOCK["now"] = time.process_time


# -- batched prune shards ---------------------------------------------------

_PRUNE_STATE: Dict[str, Any] = {}


def init_prune_worker(domains, spec: Optional[GovernorSpec], enumeration_limit: int,
                      memo_enabled: bool, fast_path: bool = True,
                      store: Optional[StoreHandle] = None) -> None:
    _use_worker_clock()
    _PRUNE_STATE.update(
        domains=domains,
        spec=spec,
        enumeration_limit=enumeration_limit,
        memo_enabled=memo_enabled,
        fast_path=fast_path,
        store=_open_store(store),
    )


def run_prune_shard(shard: List[Tuple[int, Any, Optional[tuple]]]) -> Dict[str, Any]:
    """Decide one shard of ``(global_index, condition, fault directive)``.

    Returns per class ``(index, verdict name, went past the raw rung)``
    plus the worker's solver stats and governor events, all keyed for
    deterministic parent-side folding.  ``UNKNOWN`` is reported but (by
    construction) never enters any cache — the worker's memo dies with
    the process and the parent only folds definite verdicts.
    """
    spec: Optional[GovernorSpec] = _PRUNE_STATE["spec"]
    injector = None
    governor = None
    if spec is not None:
        injector = ScheduledFaultInjector([kind for _, _, kind in shard])
        governor = spec.build(injector)
    store: Optional[SharedVerdictStore] = _PRUNE_STATE.get("store")
    marks = _store_marks(store)
    solver = ConditionSolver(
        _PRUNE_STATE["domains"],
        _PRUNE_STATE["enumeration_limit"],
        governor=governor,
        memo=_worker_memo(_PRUNE_STATE["memo_enabled"], store),
        fast_path=_PRUNE_STATE.get("fast_path", True),
    )
    verdicts = []
    error = None
    stats = solver.stats
    for index, condition, _kind in shard:
        try:
            # A call that reached the canonical rungs counts a memo hit,
            # miss or collapse; only its verdict enters the parent's memo.
            before = stats.memo_hits + stats.memo_misses + stats.canonical_collapses
            name = solver.sat_verdict(condition).name
            after = stats.memo_hits + stats.memo_misses + stats.canonical_collapses
            verdicts.append((index, name, after != before))
        except (BudgetExceeded, SolverFailure, ConditionTooLarge) as exc:
            # on_budget="fail": ship the failure home instead of letting
            # the pool surface an arbitrary shard's exception first; the
            # parent re-raises the lowest class index deterministically.
            error = (index, exc)
            break
    return {
        "verdicts": verdicts,
        "error": error,
        "stats": solver_stats_dict(solver.stats),
        "events": governor.events.as_dict() if governor is not None else None,
        "injected": dict(injector.injected) if injector is not None else None,
        "shared_memo": _store_deltas(store, marks),
    }


# -- per-prefix pattern queries ---------------------------------------------

_PATTERN_STATE: Dict[str, Any] = {}


def init_pattern_worker(reach_db, domains, per_flow: bool,
                        spec: Optional[GovernorSpec], enumeration_limit: int,
                        memo_enabled: bool, fast_path: bool = True,
                        store: Optional[StoreHandle] = None,
                        memo_seed: Optional[Dict] = None,
                        storage=None) -> None:
    from ..engine.storage import Storage

    _use_worker_clock()

    opened = _open_store(store)
    _PATTERN_STATE.update(
        reach_db=reach_db,
        # Prefer the parent's already-indexed storage (free under fork);
        # rebuild only when it was not shipped.
        storage=storage if storage is not None else Storage(reach_db),
        domains=domains,
        per_flow=per_flow,
        spec=spec,
        enumeration_limit=enumeration_limit,
        memo_enabled=memo_enabled,
        store=opened,
        memo=_worker_memo(memo_enabled, opened, memo_seed),
        fast_path=fast_path,
    )


def run_pattern_task(task) -> Dict[str, Any]:
    """Run one failure-pattern query; ``task`` is a ``PatternQuery``.

    Governance is rebuilt per task (fresh fault-injector schedule per
    query), so each query's faults are a deterministic function of the
    query alone, independent of worker count and assignment.
    """
    from ..network.reachability import run_pattern_query
    from ..robustness.faultinject import FaultInjector

    spec: Optional[GovernorSpec] = _PATTERN_STATE["spec"]
    governor = None
    if spec is not None:
        injector = FaultInjector(spec.fault_plan) if spec.fault_plan else None
        governor = spec.build(injector)
    solver = ConditionSolver(
        _PATTERN_STATE["domains"],
        _PATTERN_STATE["enumeration_limit"],
        governor=governor,
        memo=_PATTERN_STATE["memo"],  # warm within one worker across tasks
        fast_path=_PATTERN_STATE.get("fast_path", True),
    )
    table, stats = run_pattern_query(
        _PATTERN_STATE["reach_db"],
        solver,
        _PATTERN_STATE["per_flow"],
        task,
        storage=_PATTERN_STATE["storage"],
    )
    return {
        "table": table,
        "stats": stats,
        "solver_stats": solver_stats_dict(solver.stats),
        "events": governor.events.as_dict() if governor is not None else None,
    }


def run_pattern_shard(shard: List[Any]) -> Dict[str, Any]:
    """Run a batch of pattern queries in one task message.

    Coarse sharding: one pickle ships N queries and one reply ships N
    results, cutting the per-task IPC that dominated fine-grained
    fan-out.  Each query still gets its own rebuilt governor and its own
    deterministic fault schedule (``run_pattern_task``), so faults stay
    a pure function of the query — independent of sharding and worker
    count.  The shared-store counters are reported as shard deltas.
    """
    store: Optional[SharedVerdictStore] = _PATTERN_STATE.get("store")
    marks = _store_marks(store)
    return {
        "results": [run_pattern_task(task) for task in shard],
        "shared_memo": _store_deltas(store, marks),
    }


# -- relative-complete verification ladders ---------------------------------

_VERIFY_STATE: Dict[str, Any] = {}


def init_verify_worker(known, schemas, column_domains, generic_rows,
                       budget_retries, budget_growth, domains,
                       enumeration_limit: int, spec: Optional[GovernorSpec],
                       memo_enabled: bool, fast_path: bool = True,
                       store: Optional[StoreHandle] = None,
                       update=None, state=None,
                       memo_seed=None) -> None:
    _use_worker_clock()
    opened = _open_store(store)
    _VERIFY_STATE.update(
        known=known,
        schemas=schemas,
        column_domains=column_domains,
        generic_rows=generic_rows,
        budget_retries=budget_retries,
        budget_growth=budget_growth,
        domains=domains,
        enumeration_limit=enumeration_limit,
        spec=spec,
        memo_enabled=memo_enabled,
        store=opened,
        memo=_worker_memo(memo_enabled, opened, memo_seed),
        fast_path=fast_path,
        update=update,
        state=state,
    )


#: Module-global state dicts the executors must snapshot/restore when an
#: initializer runs *in the parent* (the jobs=1 inline path and the
#: supervised executor's quarantine path) — without the guard, inline
#: runs would leak worker state into the parent across calls.  The store
#: cache is guarded too: inline attachments must not outlive the call
#: (the dropped store object closes its descriptors on GC).
INLINE_STATE_DICTS = (
    _PRUNE_STATE,
    _PATTERN_STATE,
    _VERIFY_STATE,
    _STORE_CACHE,
    _clock._CLOCK,
)


def run_verify_task(task) -> Any:
    """Run the ladder on one ``(target, update, state)`` task."""
    from ..robustness.faultinject import FaultInjector
    from ..verify.verifier import RelativeCompleteVerifier

    target, update, state = task
    spec: Optional[GovernorSpec] = _VERIFY_STATE["spec"]
    governor = None
    if spec is not None:
        injector = FaultInjector(spec.fault_plan) if spec.fault_plan else None
        governor = spec.build(injector)
    solver = ConditionSolver(
        _VERIFY_STATE["domains"],
        _VERIFY_STATE["enumeration_limit"],
        governor=governor,
        memo=_VERIFY_STATE["memo"],
        fast_path=_VERIFY_STATE.get("fast_path", True),
    )
    verifier = RelativeCompleteVerifier(
        _VERIFY_STATE["known"],
        solver,
        schemas=_VERIFY_STATE["schemas"],
        column_domains=_VERIFY_STATE["column_domains"],
        generic_rows=_VERIFY_STATE["generic_rows"],
        budget_retries=_VERIFY_STATE["budget_retries"],
        budget_growth=_VERIFY_STATE["budget_growth"],
    )
    return verifier.verify(target, update=update, state=state)


def run_verify_shard(shard: List[Any]) -> Dict[str, Any]:
    """Run a batch of ladder targets in one task message.

    The shared ``update``/``state`` pair ships once via the initializer
    (they are identical for every target of one ``verify_many`` call);
    the shard is just the bare targets.  Returns the verdicts in shard
    order plus shard-delta shared-store counters.
    """
    store: Optional[SharedVerdictStore] = _VERIFY_STATE.get("store")
    marks = _store_marks(store)
    update, state = _VERIFY_STATE.get("update"), _VERIFY_STATE.get("state")
    return {
        "verdicts": [run_verify_task((target, update, state)) for target in shard],
        "shared_memo": _store_deltas(store, marks),
    }

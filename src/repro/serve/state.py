"""The daemon's resident state: WAL-fronted evaluator + snapshots.

:class:`ServeState` owns the recovery invariant of serve mode:

    resident state  ==  newest durable seed snapshot (or the initial
                        evaluation of (program, seed database) when no
                        snapshot exists)
                        + replay of every durable WAL entry above the
                        snapshot's sequence, in order.

Every mutation path preserves it:

* a live update is validated, made durable (:meth:`WriteAheadLog.append`
  fsyncs before returning), applied, and published as the next epoch;
* a crash at any point recovers by :meth:`ServeState.__init__` running
  the right-hand side from scratch — which is *the same code path* a
  live update takes (:meth:`IncrementalEvaluator.apply`), so recovered
  answers are byte-identical to an uninterrupted run's;
* an apply that blows up *after* its entry became durable triggers an
  in-process rebuild from the log (the entry replays as part of it), so
  a poisoned apply degrades to a recovery, never to a half-applied
  resident state;
* **compaction** folds the whole durable prefix into a fresh snapshot
  (atomic write-new → rename, fsync before anything is retired), then
  rewrites the WAL down to the empty suffix — a crash between the two
  leaves snapshot *and* full log, and recovery replays only the suffix
  above the snapshot seq, so the overlap is harmless.

**Withdrawal** is the paper's guard-variable encoding: a fact ingested
with ``removable: true`` gets a fresh boolean guard c-variable
``__g<seq>`` conjoined onto its condition (``__g<seq> == 1``), and
``withdraw`` is a WAL'd *assignment* ``__g<seq> := 0`` — never a
retraction.  Queries substitute the recorded assignments into row
conditions: a condition that folds to FALSE drops the row, so after a
withdrawal the answer is exactly what a from-scratch evaluation without
the withdrawn fact represents, while the evaluator itself only ever saw
monotone growth.

Queries never touch the evaluator: they read the epoch manager's
current immutable snapshot, with an optional condition filter decided
by a **per-request** governed solver — budget exhaustion degrades the
answer to ``INCONCLUSIVE`` (undecided rows flagged, definite rows
intact) instead of stalling the daemon.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from ..ctable.condition import Condition, FALSE, TRUE, TrueCond, conjoin, eq
from ..ctable.io import (
    condition_to_obj,
    database_from_obj,
    domains_from_obj,
    load_database,
    term_to_obj,
)
from ..ctable.table import CTuple
from ..ctable.terms import Constant, CVariable
from ..faurelog.ast import ProgramError
from ..faurelog.incremental import IncrementalEvaluator
from ..faurelog.parser import parse_program
from ..robustness.chaos import chaos_directives, sentinel_fires
from ..robustness.governor import Governor
from ..robustness.verdict import Verdict
from ..solver.domains import BOOL_DOMAIN
from ..solver.interface import ConditionSolver
from ..solver.memo import MemoTable
from .epochs import EpochManager, RelationIndex, Snapshot
from .protocol import ServeRequestError, parse_values, parse_where
from .snapshots import (
    build_snapshot_obj,
    load_latest_snapshot,
    retire_snapshots,
    write_snapshot,
)
from .wal import UpdateEntry, WriteAheadLog, wal_fingerprint

__all__ = ["ServeBudgets", "ServeState", "row_to_obj"]


@dataclass(frozen=True)
class ServeBudgets:
    """Per-request resource budgets (update apply and query filtering)."""

    deadline_seconds: Optional[float] = None
    solver_call_budget: Optional[int] = None
    steps_per_call: Optional[int] = None
    max_condition_atoms: Optional[int] = None

    @property
    def any(self) -> bool:
        return any(
            v is not None
            for v in (
                self.deadline_seconds,
                self.solver_call_budget,
                self.steps_per_call,
                self.max_condition_atoms,
            )
        )

    def governor(self) -> Optional[Governor]:
        """A fresh armed governor, or ``None`` when nothing is bounded.

        Always ``on_budget="degrade"``: a daemon answers degraded, it
        does not die because one request was expensive.
        """
        if not self.any:
            return None
        return Governor(
            deadline_seconds=self.deadline_seconds,
            solver_call_budget=self.solver_call_budget,
            steps_per_call=self.steps_per_call,
            max_condition_atoms=self.max_condition_atoms,
            on_budget="degrade",
        ).start()


def row_to_obj(tup: CTuple, unknown: bool = False, condition: Optional[Condition] = None) -> Dict[str, Any]:
    """One snapshot row in the wire encoding (ctable interchange terms).

    ``condition`` overrides the tuple's own condition — the query path
    passes the guard-substituted (withdrawal-aware) form.
    """
    effective = tup.condition if condition is None else condition
    row: Dict[str, Any] = {"values": [term_to_obj(v) for v in tup.values]}
    if not isinstance(effective, TrueCond):
        row["condition"] = condition_to_obj(effective)
    if unknown:
        row["unknown"] = True
    return row


def _members(positions: Tuple[int, ...], among: Tuple[int, ...]) -> int:
    """How many of ``among`` the sorted ``positions`` hold."""
    count = 0
    for i in among:
        k = bisect_left(positions, i)
        count += k < len(positions) and positions[k] == i
    return count


def _maybe_compact_die() -> None:
    """Chaos hook: hard-exit between snapshot fsync and segment retirement.

    Directive ``compact-die:<sentinel>`` — the worst instant of a
    compaction, proving recovery tolerates snapshot+full-log overlap.
    """
    for directive in chaos_directives():
        if directive[0] == "compact-die" and sentinel_fires(directive[1]):
            os._exit(1)


class ServeState:
    """Resident database + evaluator behind a write-ahead log."""

    def __init__(
        self,
        program_text: str,
        database_text: str,
        wal_path: str,
        budgets: Optional[ServeBudgets] = None,
        compact_every: Optional[int] = None,
        compact_bytes: Optional[int] = None,
    ):
        self.program_text = program_text
        self.database_text = database_text
        self.budgets = budgets or ServeBudgets()
        self.compact_every = compact_every
        self.compact_bytes = compact_bytes
        self.program = parse_program(program_text)
        self.fingerprint = wal_fingerprint(program_text, database_text)
        self.epochs = EpochManager()
        self._epoch = 0
        self._generation = 0  # bumped by every _rebuild (a fresh evaluator)
        self._lock = threading.Lock()  # serializes submit/recovery/compaction
        self.counters: Dict[str, int] = {
            "updates_applied": 0,
            "updates_duplicate": 0,
            "updates_rejected": 0,
            "withdrawals": 0,
            "queries": 0,
            "queries_inconclusive": 0,
            "recoveries": 0,
            "compactions": 0,
            "replicated_applied": 0,
        }
        self._snapshot_obj, self.snapshot_path = load_latest_snapshot(
            wal_path, self.fingerprint
        )
        base_seq = int(self._snapshot_obj["seq"]) if self._snapshot_obj else 0
        seed_txids = self._snapshot_obj.get("txids") if self._snapshot_obj else None
        self.wal = WriteAheadLog.open(
            wal_path, self.fingerprint, base_seq=base_seq, seed_txids=seed_txids
        )
        self._rebuild()
        self._publish()

    @classmethod
    def from_bootstrap(
        cls, obj: Dict[str, Any], wal_path: str, **kwargs: Any
    ) -> "ServeState":
        """Build a state from a primary's snapshot object (replica start).

        The snapshot is first made durable locally (it becomes this
        node's own compaction base), then the normal recovery path picks
        it up — a replica restart with the primary unreachable recovers
        from its local snapshot + local WAL suffix alone.
        """
        write_snapshot(wal_path, obj)
        return cls(obj["program"], obj["database"], wal_path, **kwargs)

    # -- build / recover -----------------------------------------------------

    def _rebuild(self) -> None:
        """(Re)create the evaluator and replay the WAL suffix.

        With a seed snapshot: adopt its serialized EDB/IDB/guard state
        verbatim (no initial evaluation) and replay only entries above
        its seq.  Without one: initial evaluation of the seed database,
        then full replay — PR 6's original invariant.
        """
        self.guards: Dict[str, Dict[str, Any]] = {}
        self.assignments: Dict[CVariable, Constant] = {}
        restored_idb = None
        if self._snapshot_obj is not None:
            obj = self._snapshot_obj
            database = database_from_obj({"tables": obj["edb"]})
            domains = domains_from_obj({"domains": obj["domains"]})
            restored_idb = database_from_obj({"tables": obj["idb"]})
            for name, info in obj.get("guards", {}).items():
                self.guards[name] = dict(info)
                self.domains_declare_guard(name, domains)
                if info.get("withdrawn"):
                    self.assignments[CVariable(name)] = Constant(0)
            base_seq = int(obj["seq"])
        else:
            database, domains = load_database(self.database_text)
            base_seq = 0
        self.domains = domains
        self._memo = MemoTable()
        #: The newest read index built per relation; the next epoch's
        #: index is carried forward from it while the generation holds.
        self._newest: Dict[str, RelationIndex] = {}
        self._generation += 1
        self._update_governor = self.budgets.governor()
        solver = ConditionSolver(
            domains, governor=self._update_governor, memo=self._memo
        )
        self.evaluator = IncrementalEvaluator(
            self.program,
            database,
            solver=solver,
            restored_idb=restored_idb,
        )
        for entry in self.wal.entries():
            if entry.seq <= base_seq:
                # Compaction crashed between snapshot fsync and segment
                # retirement: the folded prefix is still on disk.  It is
                # already inside the snapshot — replaying it twice would
                # double-apply.
                continue
            self._apply_entry(entry)

    @staticmethod
    def domains_declare_guard(name: str, domains) -> None:
        """Guards are boolean: 1 = fact present, 0 = withdrawn."""
        domains.declare(CVariable(name), BOOL_DOMAIN)

    def _publish(self) -> None:
        self._epoch += 1
        self.epochs.publish(
            Snapshot.capture(
                self.evaluator.combined,
                self._epoch,
                self.wal.last_seq,
                assignments=self.assignments,
                generation=self._generation,
            )
        )

    def close(self) -> None:
        self.wal.close()

    # -- update path ---------------------------------------------------------

    def _apply_entry(self, entry: UpdateEntry) -> int:
        """Apply one durable entry; live updates and replay both land here."""
        if entry.kind == "withdraw":
            info = self.guards.get(entry.guard)
            if info is None:  # replay of a guard the snapshot should hold
                raise ProgramError(f"withdraw of unknown guard {entry.guard!r}")
            info["withdrawn"] = True
            info["withdraw_seq"] = entry.seq
            self.assignments[CVariable(entry.guard)] = Constant(0)
            return 0
        terms = parse_values(list(entry.values))
        condition = parse_where(entry.condition)
        if condition is None:
            condition = TRUE
        if entry.guard:
            # A removable fact: conjoin the fresh guard (``guard == 1``)
            # so withdrawal later is an assignment, not a retraction.
            self.domains_declare_guard(entry.guard, self.domains)
            self.guards[entry.guard] = {
                "relation": entry.relation,
                "seq": entry.seq,
                "withdrawn": False,
                "withdraw_seq": None,
            }
            condition = conjoin([condition, eq(CVariable(entry.guard), 1)])
        if self._update_governor is not None:
            self._update_governor.start()  # re-arm the per-update deadline
        return self.evaluator.apply(entry.kind, entry.relation, terms, condition)

    def admit(self, entry: UpdateEntry) -> None:
        """Semantic validation against schema and program — pre-durability.

        Raises :class:`ServeRequestError`; a rejected update never
        reaches the WAL, so replay cannot meet an entry the evaluator
        would refuse and a malformed client cannot poison the state.
        """
        if entry.kind == "withdraw":
            if entry.guard not in self.guards:
                raise ServeRequestError(
                    "UNKNOWN_GUARD",
                    f"no removable fact with guard {entry.guard!r}",
                )
            return
        # The grammar (and c-variables-only) checks of the wire path,
        # repeated for in-process submitters: an entry ``apply`` would
        # refuse must never become durable, or every replay refuses it.
        parse_values(list(entry.values))
        parse_where(entry.condition)
        if entry.relation in self.program.idb_predicates():
            raise ServeRequestError(
                "IDB_INSERT",
                f"{entry.relation} is derived; updates may only touch the EDB",
            )
        if entry.relation not in self.evaluator.database:
            raise ServeRequestError(
                "UNKNOWN_RELATION", f"no stored relation {entry.relation!r}"
            )
        table = self.evaluator.database.table(entry.relation)
        if len(entry.values) != table.arity:
            raise ServeRequestError(
                "ARITY",
                f"{entry.relation} has arity {table.arity}, "
                f"got {len(entry.values)} value(s)",
            )
        try:
            self.evaluator.check_insertable(entry.relation)
        except ProgramError as exc:
            raise ServeRequestError("NON_MONOTONE", str(exc)) from exc

    def submit(self, entry: UpdateEntry) -> Dict[str, Any]:
        """Admit, log, apply, publish — the full life of one update."""
        with self._lock:
            if entry.txid is not None:
                seen = self.wal.seen_txid(entry.txid)
                if seen is not None:
                    # A retried update the client never got an ack for:
                    # answer with the original sequence, no double-apply.
                    self.counters["updates_duplicate"] += 1
                    snapshot = self.epochs.current()
                    return {
                        "ok": True,
                        "seq": seen,
                        "epoch": snapshot.epoch,
                        "duplicate": True,
                    }
            if entry.kind == "withdraw":
                return self._submit_withdraw(entry)
            try:
                self.admit(entry)
            except ServeRequestError:
                self.counters["updates_rejected"] += 1
                raise
            if entry.guard == "":
                # Removable: mint the guard name from the seq this entry
                # is about to take, so replay reconstructs it verbatim.
                entry = dataclasses.replace(
                    entry, guard=f"__g{self.wal.last_seq + 1}"
                )
            sequenced = self.wal.append(entry)  # durable *before* apply
            recovered = False
            try:
                derived = self._apply_entry(sequenced)
            except Exception:
                # The resident state may be half-applied; rebuild it from
                # the log (which includes the entry that just blew up).
                self.counters["recoveries"] += 1
                self._rebuild()
                derived = None
                recovered = True
            self._publish()
            self.counters["updates_applied"] += 1
            response: Dict[str, Any] = {
                "ok": True,
                "seq": sequenced.seq,
                "epoch": self._epoch,
                "derived": derived,
            }
            if sequenced.guard:
                response["guard"] = sequenced.guard
            if recovered:
                response["recovered"] = True
            self._maybe_compact_locked()
            return response

    def _submit_withdraw(self, entry: UpdateEntry) -> Dict[str, Any]:
        """Withdraw = durably log a guard assignment, then apply it."""
        try:
            self.admit(entry)
        except ServeRequestError:
            self.counters["updates_rejected"] += 1
            raise
        info = self.guards[entry.guard]
        if info.get("withdrawn"):
            # Withdrawal is idempotent: answering with the original
            # sequence mirrors the txid-retry contract for inserts.
            self.counters["updates_duplicate"] += 1
            return {
                "ok": True,
                "seq": info.get("withdraw_seq"),
                "epoch": self.epochs.current().epoch,
                "guard": entry.guard,
                "withdrawn": True,
                "duplicate": True,
            }
        entry = dataclasses.replace(entry, relation=info["relation"])
        sequenced = self.wal.append(entry)  # durable *before* apply
        self._apply_entry(sequenced)
        self._publish()
        self.counters["withdrawals"] += 1
        self._maybe_compact_locked()
        return {
            "ok": True,
            "seq": sequenced.seq,
            "epoch": self._epoch,
            "guard": sequenced.guard,
            "withdrawn": True,
        }

    # -- replica apply -------------------------------------------------------

    def apply_replicated(self, entries: List[UpdateEntry]) -> int:
        """Apply a gapless batch of entries tailed from the primary.

        Entries keep the *primary's* sequence numbers; each is made
        durable in the local WAL before it is applied (the same
        durable-before-apply contract as primary ingest), and the batch
        publishes **once** — replica readers always observe a consistent
        prefix of the primary's history, never a half-batch.
        """
        if not entries:
            return 0
        applied = 0
        with self._lock:
            for entry in entries:
                if entry.seq <= self.wal.last_seq:
                    continue  # already durable locally (tail overlap)
                self.wal.append_replicated(entry)
                try:
                    self._apply_entry(entry)
                except Exception:
                    self.counters["recoveries"] += 1
                    self._rebuild()
                applied += 1
            if applied:
                self._publish()
                self.counters["replicated_applied"] += applied
            self._maybe_compact_locked()
        return applied

    def adopt_bootstrap(self, obj: Dict[str, Any]) -> None:
        """Replace local state with a primary snapshot (re-bootstrap).

        Used when the tail cursor fell below the primary's compaction
        horizon: the snapshot is made durable locally, the local WAL is
        rewritten down to the (empty) suffix, and the resident state is
        rebuilt from the new base.
        """
        if obj.get("fingerprint") != self.fingerprint:
            raise ServeRequestError(
                "INTERNAL",
                "bootstrap snapshot is for a different workload",
            )
        with self._lock:
            path = write_snapshot(self.wal.path, obj)
            self._snapshot_obj, self.snapshot_path = obj, path
            self.wal.rewrite(int(obj["seq"]))
            retire_snapshots(self.wal.path, int(obj["seq"]))
            self._rebuild()
            self._publish()

    # -- compaction ----------------------------------------------------------

    def _maybe_compact_locked(self) -> None:
        """Fire a threshold-triggered compaction (caller holds the lock)."""
        if len(self.wal) == 0:
            return
        if self.compact_every is not None and len(self.wal) >= self.compact_every:
            self._compact_locked()
        elif (
            self.compact_bytes is not None
            and self.wal.size_bytes() >= self.compact_bytes
        ):
            self._compact_locked()

    def compact(self, force: bool = False) -> Dict[str, Any]:
        """Fold the durable log into a fresh seed snapshot (admin path)."""
        with self._lock:
            if len(self.wal) == 0 and not force:
                return {
                    "ok": True,
                    "compacted": False,
                    "seq": self.wal.last_seq,
                    "reason": "log suffix is empty",
                }
            return self._compact_locked()

    def _compact_locked(self) -> Dict[str, Any]:
        obj = self.snapshot_obj()
        path = write_snapshot(self.wal.path, obj)  # fsync'd before any retire
        _maybe_compact_die()  # chaos: die with snapshot durable, log intact
        self._snapshot_obj, self.snapshot_path = obj, path
        self.wal.rewrite(int(obj["seq"]))
        retire_snapshots(self.wal.path, int(obj["seq"]))
        self.counters["compactions"] += 1
        return {
            "ok": True,
            "compacted": True,
            "seq": int(obj["seq"]),
            "snapshot": path,
            "wal_entries": len(self.wal),
            "wal_bytes": self.wal.size_bytes(),
        }

    def snapshot_now(self) -> Dict[str, Any]:
        """Write a durable seed snapshot without retiring any log segment.

        The admin ``snapshot`` action: the next restart replays only the
        suffix above this snapshot (open time drops), while the full log
        stays on disk for tailing replicas and forensics.  ``compact``
        is this plus segment retirement.
        """
        with self._lock:
            obj = self.snapshot_obj()
            path = write_snapshot(self.wal.path, obj)
            self._snapshot_obj, self.snapshot_path = obj, path
            return {"ok": True, "seq": int(obj["seq"]), "snapshot": path}

    def snapshot_obj(self) -> Dict[str, Any]:
        """Serialize the resident state (caller holds the lock)."""
        return build_snapshot_obj(
            self.fingerprint,
            self.wal.last_seq,
            self.program_text,
            self.database_text,
            self.evaluator,
            self.domains,
            self.guards,
            self.wal.txids(),
        )

    def bootstrap_obj(self) -> Dict[str, Any]:
        """A consistent snapshot for a replica (takes the lock briefly)."""
        with self._lock:
            return self.snapshot_obj()

    # -- query path ----------------------------------------------------------

    def query(
        self,
        relation: str,
        where: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Answer from the current snapshot; never blocks an ingest.

        Guard assignments recorded by withdrawals are substituted into
        every row condition first: a condition folding to FALSE drops
        the row (those worlds no longer exist), one folding to TRUE
        returns the row unconditional — so answers after a withdrawal
        match a from-scratch evaluation without the withdrawn fact.
        The substitution lives in the snapshot's read index
        (:class:`~repro.serve.epochs.RelationIndex`), which each epoch
        carries forward from the newest one built, so a row is
        substituted once per generation and once more per withdrawal
        of a guard it names.

        With a ``where`` filter, a row is kept when ``effective ∧
        filter`` is satisfiable, decided by a fresh per-request governed
        solver: ``SAT`` rows are returned, ``UNSAT`` rows dropped, and
        ``UNKNOWN`` (budget ran out) rows returned flagged — the
        response degrades to ``status: INCONCLUSIVE`` rather than
        stalling or failing.  Only rows sharing a c-variable with the
        filter send the conjunction to the solver; see
        :meth:`_filter_verdicts`.  Without a filter, ``total`` is the
        index's live-row count.  Either way only the first ``limit``
        rows are encoded.
        """
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise ServeRequestError("MALFORMED", "'limit' must be a non-negative integer")
        snapshot = self.epochs.current()
        try:
            view = snapshot.relation(relation)
        except KeyError:
            raise ServeRequestError(
                "UNKNOWN_RELATION", f"no relation {relation!r}"
            ) from None
        condition = parse_where(where)
        assignments = snapshot.assignments
        if condition is not None and assignments:
            condition = condition.substitute(assignments)
        self.counters["queries"] += 1
        newest = self._newest.get(relation)
        index = snapshot.read_index(relation, newest)
        if newest is None or index.epoch > newest.epoch:
            self._newest[relation] = index
        inconclusive = False
        if condition is None:
            total = len(index)
            kept = [(i, False) for i in islice(index.rows(), limit)]
        elif condition is FALSE:
            total, kept = 0, []
        else:
            total, kept, inconclusive = self._filter_verdicts(index, condition, limit)
        if inconclusive:
            self.counters["queries_inconclusive"] += 1
        rows = [
            row_to_obj(index.tuples[i], unknown=unknown, condition=index.effective[i])
            for i, unknown in kept
        ]
        response: Dict[str, Any] = {
            "ok": True,
            "epoch": snapshot.epoch,
            "seq": snapshot.seq,
            "relation": relation,
            "schema": list(view.schema),
            "status": "INCONCLUSIVE" if inconclusive else "OK",
            "rows": rows,
            "total": total,
        }
        if limit is not None and total > limit:
            response["truncated"] = True
        return response

    def _filter_verdicts(
        self, index: RelationIndex, condition: Condition, limit: Optional[int]
    ) -> Tuple[int, List[Tuple[int, bool]], bool]:
        """``sat(effective ∧ filter)`` over the index: ``(total, kept, inconclusive)``.

        ``kept`` lists the first ``limit`` surviving ``(position,
        unknown)`` pairs in row order.  Every c-variable has its own
        domain, so a conjunction over disjoint variable sets is
        satisfiable exactly when each side is: a row sharing no
        c-variable with the filter is decided as the three-valued AND of
        its own ``sat(effective)`` (settled once in the index, pending
        while the governor leaves it UNKNOWN) and the filter's verdict.
        Only the rows the index lists under a filter variable send the
        conjunction to the solver; the rest are counted from the index's
        SAT and pending positions and visited only up to ``limit``.
        """
        solver = ConditionSolver(
            self.domains, governor=self.budgets.governor(), memo=self._memo
        )
        filter_verdict = solver.sat_verdict(condition)
        if filter_verdict is Verdict.UNSAT:
            return 0, [], False
        filter_unknown = filter_verdict is Verdict.UNKNOWN
        sat, pending = index.settle(solver)
        shared = index.sharing(condition.cvariables())
        matched = []
        inconclusive = False
        for i in shared:
            verdict = solver.sat_verdict(conjoin([index.effective[i], condition]))
            if verdict is not Verdict.UNSAT:
                unknown = verdict is Verdict.UNKNOWN
                inconclusive = inconclusive or unknown
                matched.append((i, unknown))
        lone_sat = len(sat) - _members(sat, shared)
        lone_pending = len(pending) - _members(pending, shared)
        if lone_pending or (filter_unknown and lone_sat):
            inconclusive = True
        skip = frozenset(shared)
        lone = heapq.merge(
            ((i, filter_unknown) for i in sat if i not in skip),
            ((i, True) for i in pending if i not in skip),
        )
        kept = list(islice(heapq.merge(lone, matched), limit))
        return lone_sat + lone_pending + len(matched), kept, inconclusive

    # -- health --------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        snapshot = self.epochs.current()
        return {
            "ok": True,
            "epoch": snapshot.epoch,
            "seq": snapshot.seq,
            "relations": {name: len(snapshot.relation(name)) for name in snapshot.names()},
            "wal_entries": len(self.wal),
            "counters": dict(self.counters),
        }

    def status(self) -> Dict[str, Any]:
        """The serve-admin view: health plus log/snapshot lifecycle."""
        out = self.health()
        withdrawn = sum(1 for info in self.guards.values() if info.get("withdrawn"))
        out.update(
            {
                "wal_path": self.wal.path,
                "wal_bytes": self.wal.size_bytes(),
                "wal_base_seq": self.wal.base_seq,
                "snapshot_path": self.snapshot_path,
                "snapshot_seq": (
                    int(self._snapshot_obj["seq"]) if self._snapshot_obj else None
                ),
                "compact_every": self.compact_every,
                "compact_bytes": self.compact_bytes,
                "guards": len(self.guards),
                "withdrawn": withdrawn,
            }
        )
        return out

"""Checkpoint/resume: a durable journal of completed work units.

Long analyses (large RIBs, wide verification suites) die for boring
reasons — OOM killers, preempted machines, ^C.  Restarting from zero
repeats hours of NP-complete solving whose answers were already known.
A :class:`CheckpointJournal` makes completed *units* durable as they
finish, so a killed run resumes by replaying the journal and re-running
**zero** completed units:

* **definite memo verdicts** — every ``put`` into the shared
  :class:`~repro.solver.memo.MemoTable` streams to the journal through
  the table's observer hook (UNKNOWN never enters the memo, so the
  journal inherits the governor's never-cache-UNKNOWN contract);
* **pattern-query results** — each per-prefix failure-pattern c-table
  plus its :class:`~repro.engine.stats.EvalStats`;
* **computed reachability tables** and **per-target verify verdicts**.

Format: line 1 is a header ``{"magic", "fingerprint"}``; each further
line is one JSON record ``{"kind", "key", "payload"}``, appended with
``flush()`` + ``fsync()`` so a record is either durable or absent.  A
torn final line (the process died mid-append) is tolerated and
discarded on load; everything before it replays.  The fingerprint is a
digest of the run's *inputs* (database text, program text, flags that
change semantics) — resuming against different inputs is a hard
:class:`~repro.robustness.errors.CheckpointError`, never a silent
splice of foreign results.

Determinism: replayed units return the exact objects the original run
computed (c-tables and verdicts round-trip through
:mod:`repro.ctable.io`), and memo verdicts are keyed by canonical form
with the domain signature *recomputed* against the live
:class:`~repro.solver.domains.DomainMap` — so a resumed run's output is
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, Optional, Tuple

from typing import TYPE_CHECKING

from .chaos import chaos_directives, sentinel_fires
from .errors import CheckpointError

if TYPE_CHECKING:  # runtime imports stay lazy: ctable.io imports the
    # solver package, which imports robustness — importing it here would
    # make robustness/__init__ circular.
    from ..ctable.table import CTable
    from ..engine.stats import EvalStats

__all__ = [
    "CheckpointJournal",
    "fingerprint_of",
    "fsync_dir",
    "rewrite_journal",
    "digest_key",
    "table_to_obj",
    "table_from_obj",
    "stats_to_obj",
    "stats_from_obj",
    "verdict_to_obj",
    "verdict_from_obj",
]

MAGIC = "faure-checkpoint-v1"


def fingerprint_of(*parts: Optional[str]) -> str:
    """Digest of the run's semantic inputs (order- and None-sensitive)."""
    h = hashlib.sha256()
    for part in parts:
        marker = b"\x00none\x00" if part is None else part.encode("utf-8")
        h.update(len(marker).to_bytes(8, "big"))
        h.update(marker)
    return h.hexdigest()


def fsync_dir(path: str) -> None:
    """fsync the directory containing ``path`` (make a rename durable)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def rewrite_journal(
    path: str, fingerprint: str, records: Iterable[Tuple[str, Any, Any]]
) -> "CheckpointJournal":
    """Atomically replace the journal at ``path`` with the given records.

    Used by serve-mode WAL compaction to retire a long log: the new
    journal is written (and fsync'd, record by record) to a sibling
    temp file, then ``os.replace``'d over the old one and the directory
    fsync'd — a crash at any point leaves either the complete old log
    or the complete new one, never a splice.  Returns a freshly opened
    journal on the final path.
    """
    tmp = path + ".rewrite"
    if os.path.exists(tmp):
        os.remove(tmp)
    staging = CheckpointJournal.open(tmp, fingerprint)
    try:
        for kind, key, payload in records:
            staging.record(kind, key, payload)
    finally:
        staging.close()
    os.replace(tmp, path)
    fsync_dir(path)
    return CheckpointJournal.open(path, fingerprint)


def digest_key(obj: Any) -> str:
    """Stable digest of a JSON-able key object (record identity)."""
    encoded = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# -- payload serializers (reusing the ctable interchange encoding) -----------


def table_to_obj(table: "CTable") -> Dict[str, Any]:
    from ..ctable.condition import TrueCond
    from ..ctable.io import condition_to_obj, term_to_obj

    rows = []
    for tup in table:
        row: Dict[str, Any] = {"values": [term_to_obj(v) for v in tup.values]}
        if not isinstance(tup.condition, TrueCond):
            row["condition"] = condition_to_obj(tup.condition)
        rows.append(row)
    return {"name": table.name, "schema": list(table.schema), "rows": rows}


def table_from_obj(obj: Dict[str, Any]) -> "CTable":
    from ..ctable.io import condition_from_obj, term_from_obj
    from ..ctable.table import CTable

    table = CTable(obj["name"], obj["schema"])
    for row in obj.get("rows", []):
        values = [term_from_obj(v) for v in row["values"]]
        if "condition" in row:
            table.add(values, condition_from_obj(row["condition"]))
        else:
            table.add(values)
    return table


def stats_to_obj(stats: "EvalStats") -> Dict[str, Any]:
    return {
        "sql_seconds": stats.sql_seconds,
        "solver_seconds": stats.solver_seconds,
        "tuples_generated": stats.tuples_generated,
        "tuples_pruned": stats.tuples_pruned,
        "iterations": stats.iterations,
        "unknown_kept": stats.unknown_kept,
        "partial_results": stats.partial_results,
        "extra": dict(stats.extra),
    }


def stats_from_obj(obj: Dict[str, Any]) -> "EvalStats":
    from ..engine.stats import EvalStats

    stats = EvalStats(
        sql_seconds=obj["sql_seconds"],
        solver_seconds=obj["solver_seconds"],
        tuples_generated=obj["tuples_generated"],
        tuples_pruned=obj["tuples_pruned"],
        iterations=obj["iterations"],
        unknown_kept=obj["unknown_kept"],
        partial_results=obj["partial_results"],
    )
    stats.extra.update(obj.get("extra", {}))
    return stats


def verdict_to_obj(verdict) -> Dict[str, Any]:
    from ..ctable.io import condition_to_obj

    return {
        "status": verdict.status.name,
        "decided_by": verdict.decided_by.name if verdict.decided_by else None,
        "violation_condition": condition_to_obj(verdict.violation_condition),
        "trail": list(verdict.trail),
        "memo_stats": dict(verdict.memo_stats),
    }


def verdict_from_obj(obj: Dict[str, Any]):
    from ..ctable.io import condition_from_obj
    from ..verify.constraints import Status
    from ..verify.verifier import Level, Verdict

    return Verdict(
        status=Status[obj["status"]],
        decided_by=Level[obj["decided_by"]] if obj["decided_by"] else None,
        violation_condition=condition_from_obj(obj["violation_condition"]),
        trail=list(obj["trail"]),
        memo_stats=dict(obj["memo_stats"]),
    )


def _memo_key_to_obj(key: Tuple) -> Optional[Dict[str, Any]]:
    """Serialize a memo key; None for shapes the journal does not keep."""
    from ..ctable.io import condition_to_obj

    try:
        if key[0] == "sat":
            return {"op": "sat", "cond": condition_to_obj(key[1])}
        if key[0] == "implies":
            return {
                "op": "implies",
                "a": condition_to_obj(key[1]),
                "b": condition_to_obj(key[2]),
            }
    except TypeError:
        return None  # a condition outside the interchange grammar
    return None


class CheckpointJournal:
    """Append-only journal of completed work units for one workload.

    Use :meth:`open` — it validates or writes the header, replays every
    durable record into memory, and leaves the file open for appends.
    ``record`` is idempotent per ``(kind, key)``: replayed units are
    never re-appended, so resume → resume → … keeps the journal
    minimal.
    """

    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self._seen: Dict[Tuple[str, str], Any] = {}
        self._file = None
        #: Units found durable on open (what resume saved).
        self.replayed = 0
        #: Units appended by this process.
        self.recorded = 0
        self._appended = 0  # chaos accounting, counts only this process

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, path: str, fingerprint: str) -> "CheckpointJournal":
        journal = cls(path, fingerprint)
        if os.path.exists(path) and os.path.getsize(path) > 0:
            journal._load()
            journal._file = open(path, "a", encoding="utf-8")
        else:
            journal._file = open(path, "w", encoding="utf-8")
            journal._append({"magic": MAGIC, "fingerprint": fingerprint})
        return journal

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            raw = handle.read()
        lines = raw.split(b"\n")
        try:
            header = json.loads(lines[0])
            magic, fingerprint = header["magic"], header["fingerprint"]
        except (ValueError, KeyError, IndexError) as exc:
            raise CheckpointError(
                f"{self.path}: not a checkpoint journal (bad header)"
            ) from exc
        if magic != MAGIC:
            raise CheckpointError(f"{self.path}: unsupported journal format {magic!r}")
        if fingerprint != self.fingerprint:
            raise CheckpointError(
                f"{self.path}: checkpoint is for a different workload "
                f"(fingerprint {fingerprint[:12]}… != {self.fingerprint[:12]}…); "
                "refusing to splice foreign results — delete the file to start over"
            )
        durable = len(lines[0]) + 1  # bytes of the valid prefix, incl. newline
        for line in lines[1:]:
            if not line:
                continue
            try:
                record = json.loads(line)
                kind, key, payload = record["kind"], record["key"], record["payload"]
            except (ValueError, KeyError):
                break  # torn tail: the process died mid-append; discard
            durable += len(line) + 1
            self._seen[(kind, key)] = payload
            self.replayed += 1
        if durable < len(raw):
            # Drop the torn tail so appends start on a fresh line.
            with open(self.path, "r+b") as handle:
                handle.truncate(durable)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- record / query ------------------------------------------------------

    def _append(self, obj: Dict[str, Any]) -> None:
        self._file.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def _maybe_die(self) -> None:
        """Chaos hook: hard-exit after N appends (``die-after-records``)."""
        for directive in chaos_directives():
            if directive[0] != "die-after-records":
                continue
            if self._appended >= int(directive[1]) and sentinel_fires(directive[2]):
                os._exit(1)

    def record(self, kind: str, key: Any, payload: Any) -> bool:
        """Durably append one completed unit (idempotent per kind+key).

        Returns ``True`` when the unit was appended, ``False`` when it
        was already durable (so callers — e.g. the serve-mode WAL — can
        tell a fresh write from a replayed duplicate).
        """
        digest = key if isinstance(key, str) else digest_key(key)
        if (kind, digest) in self._seen:
            return False
        self._seen[(kind, digest)] = payload
        self._append({"kind": kind, "key": digest, "payload": payload})
        self.recorded += 1
        self._appended += 1
        self._maybe_die()
        return True

    def get(self, kind: str, key: Any) -> Optional[Any]:
        """The payload of a completed unit, or ``None`` if not durable."""
        digest = key if isinstance(key, str) else digest_key(key)
        return self._seen.get((kind, digest))

    def entries(self, kind: str) -> Iterable[Tuple[str, Any]]:
        """Durable units of one kind, in append order.

        Append order is load order: ``_seen`` is an insertion-ordered
        dict rebuilt line-by-line on :meth:`open`, so consumers that
        need a total order (the serve WAL replays updates by sequence
        number) observe records exactly as they were made durable.
        """
        for (record_kind, digest), payload in self._seen.items():
            if record_kind == kind:
                yield digest, payload

    def count(self, kind: str) -> int:
        """Number of durable units of one kind."""
        return sum(1 for record_kind, _ in self._seen if record_kind == kind)

    # -- the memo bridge -----------------------------------------------------

    def replay_memo(self, memo, domains) -> int:
        """Seed a live memo table from the journal's definite verdicts.

        Keys are rebuilt against the *live* ``domains`` (the signature is
        never persisted), so a verdict only applies when the resumed
        run's domains make it the same question.  Call before
        :meth:`attach`, so replay does not re-journal what it reads.
        """
        from ..ctable.io import condition_from_obj

        replayed = 0
        for _, payload in self.entries("memo"):
            key_obj, value = payload["key"], payload["value"]
            if key_obj["op"] == "sat":
                cond = condition_from_obj(key_obj["cond"])
                key = ("sat", cond, memo.domain_signature(domains, cond.cvariables()))
            else:
                a = condition_from_obj(key_obj["a"])
                b = condition_from_obj(key_obj["b"])
                cvars = a.cvariables() | b.cvariables()
                key = ("implies", a, b, memo.domain_signature(domains, cvars))
            memo.put(key, bool(value))
            replayed += 1
        return replayed

    def attach(self, memo, domains) -> int:
        """Replay journaled verdicts into ``memo``, then observe it.

        Returns the number of replayed memo entries.  After this call
        every *new* definite verdict the run computes streams to the
        journal as it lands in the memo (through
        :meth:`MemoTable.add_observer`).
        """
        replayed = self.replay_memo(memo, domains)

        def observe(key: Tuple, value: bool) -> None:
            key_obj = _memo_key_to_obj(key)
            if key_obj is not None:
                self.record("memo", key_obj, {"key": key_obj, "value": value})

        memo.add_observer(observe)
        return replayed

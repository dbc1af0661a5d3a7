"""Cross-worker shared verdict store: an append-only, crash-tolerant log.

The parallel fan-outs (batched pruning, pattern queries, verification
ladders) give every worker process a *private* :class:`MemoTable`, so a
condition the serial path decides once is re-decided by every worker
that meets it — the reason BENCH_parallel showed ``--jobs 4`` spending
4–10x the serial solver time.  This module restores the serial memo's
"decided once per run" property across process boundaries:

* the parent opens a :class:`SharedVerdictStore` — a plain file of
  fixed-size records — **seeds** it with the parent memo's existing
  definite verdicts, and subscribes a writer to the parent memo's
  observer list (:class:`SharedMemoSession`);
* every worker's private memo gets the same writer plus (when safe, see
  below) a read-through ``backing``: on a local miss it polls the log,
  folds any new records, and answers from the store — so a verdict
  computed by *any* process is computed exactly once per run.

**Record format** (:data:`RECORD_SIZE` bytes, fixed):

====== ===== ==========================================================
offset bytes field
====== ===== ==========================================================
0      16    BLAKE2b-128 of the canonical memo key (op + conditions),
             *without* the domain signature
16     8     BLAKE2b-64 of the domain signature the verdict depends on
24     1     verdict byte: 1 = UNSAT(False), 2 = SAT(True); anything
             else (including the 0 of a zero-filled page) is invalid
25     3     zero padding
28     4     CRC-32 of bytes [0, 28)
====== ===== ==========================================================

**Crash tolerance.**  Writers append one record per ``os.write`` on an
``O_APPEND`` descriptor; POSIX serializes such writes, so concurrent
appends interleave at record granularity.  A writer SIGKILLed mid-append
can leave at most one torn tail record; readers validate the CRC and the
verdict byte at every record boundary and *skip* anything invalid.
Skipping is sound: a dropped record is a lost cache hit, never a wrong
answer — the reader simply re-decides.  The same argument covers domain
fingerprint mismatches (rejected at lookup) and hash-encoding drift
between processes (under ``spawn`` both sides re-derive the hash from
the same deterministic ``repr``-based encoding; a mismatch costs a hit).

**Soundness** (extends docs/SEMANTICS.md §5's memo argument): a record
is written only for a *definite* verdict of an exact decision procedure,
keyed by canonical form + domain fingerprint.  Exactness means any two
processes that compute a verdict for the same key compute the *same*
verdict, so reading another worker's record is indistinguishable from
having computed it locally.  ``UNKNOWN`` is never written — a degraded
(budget/fault) outcome in one worker must not rob another worker of its
fresh chance at a real answer, mirroring the memo's own contract.

**Determinism.**  Store *writes* never change the writer's own call
sequence.  Store *reads* can (a served verdict skips a governed solver
call), so reads are enabled only for ungoverned runs — any armed
governor (deadline, budgets, fault injector) stands the read side down,
because fault-injection schedules are indexed by solver call.  Governed runs therefore stay byte-identical to ``jobs=1``
including their governor event ledgers and fault-injection schedules,
while the common ungoverned benchmark path gets the full sharing win
(identical *answers* either way; exactness guarantees that).
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from typing import Dict, Optional, Tuple

__all__ = [
    "RECORD_SIZE",
    "encode_memo_key",
    "SharedVerdictStore",
    "StoreHandle",
    "SharedMemoSession",
    "session_for",
    "reads_allowed",
]

RECORD_SIZE = 32
_HEADER = b"faure-shared-verdict-log:v1\n".ljust(RECORD_SIZE, b"\0")
_VERDICT_BYTES = {False: 1, True: 2}
_VERDICT_VALUES = {1: False, 2: True}


def encode_memo_key(key: Tuple) -> Optional[Tuple[bytes, bytes]]:
    """``(key_hash16, domain_fp8)`` for a :class:`MemoTable` key.

    The two hash fields are kept separate so a lookup can distinguish
    "different question" (key hash miss) from "same condition, different
    declared domains" (fingerprint rejection) — the latter is a tested
    safety property, not an accident of hashing.  Encoding goes through
    ``repr`` of the canonical condition(s) and the domain signature:
    both are deterministic structural renderings (no set iteration, no
    per-process hash randomization), so cooperating processes derive
    identical bytes for identical keys.  Returns ``None`` for keys this
    version does not encode (future ops age out soundly).
    """
    from hashlib import blake2b

    op = key[0]
    if op == "sat" and len(key) == 3:
        body = f"sat\x00{key[1]!r}"
        signature = key[2]
    elif op == "implies" and len(key) == 4:
        body = f"implies\x00{key[1]!r}\x00{key[2]!r}"
        signature = key[3]
    else:
        return None
    key_hash = blake2b(body.encode("utf-8"), digest_size=16).digest()
    domain_fp = blake2b(repr(signature).encode("utf-8"), digest_size=8).digest()
    return key_hash, domain_fp


def pack_record(key_hash: bytes, domain_fp: bytes, value: bool) -> bytes:
    """One checksummed :data:`RECORD_SIZE`-byte log record."""
    head = key_hash + domain_fp + struct.pack("<B3x", _VERDICT_BYTES[bool(value)])
    return head + struct.pack("<I", zlib.crc32(head))


def unpack_record(record: bytes) -> Optional[Tuple[bytes, bytes, bool]]:
    """Decode one record; ``None`` when torn/corrupt (checksum or
    verdict byte invalid) — the caller skips it."""
    head, (crc,) = record[:28], struct.unpack("<I", record[28:32])
    if zlib.crc32(head) != crc:
        return None
    verdict = _VERDICT_VALUES.get(record[24])
    if verdict is None:
        return None
    return record[:16], record[16:24], verdict


class SharedVerdictStore:
    """One process's view of the shared append-only verdict log.

    Every cooperating process (parent and workers) holds its own
    instance over the same path: an ``O_APPEND`` write descriptor, a
    read descriptor, a poll offset, and the dictionary of valid records
    folded so far.  See the module docstring for the format and the
    crash-tolerance argument.
    """

    def __init__(self, path: str, _create: bool = False):
        self.path = path
        if _create:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            try:
                os.write(fd, _HEADER)
            finally:
                os.close(fd)
        self._wfd = os.open(path, os.O_WRONLY | os.O_APPEND)
        self._rfd = os.open(path, os.O_RDONLY)
        self._offset = len(_HEADER)
        self._verdicts: Dict[bytes, Tuple[bytes, bool]] = {}
        #: Per-key encoding cache: hashing goes through ``repr`` of
        #: canonical conditions, which is the dominant cost of a store
        #: hit — and every served key is encoded twice (the lookup, then
        #: the write-observer dedup when the verdict folds into the local
        #: memo).  Bounded by the memo's own entry ceiling in practice.
        self._encoded: Dict[Tuple, Optional[Tuple[bytes, bytes]]] = {}
        #: Whether lookups may answer (False = write-only wiring).
        self.reads = True
        self.hits = 0
        self.writes = 0
        self.skipped_records = 0
        self.fingerprint_rejections = 0
        self._owner_pid = os.getpid() if _create else None
        self._closed = False

    @classmethod
    def create(cls, dir: Optional[str] = None) -> "SharedVerdictStore":
        """Create a fresh log in a temp file; the creator owns unlink.

        The unlink is also registered with :mod:`atexit` — a run whose
        memo is never cleared (the common CLI exit path) must not leave
        the log behind.  ``close`` is idempotent and PID-guarded, so
        the hook is a harmless no-op after an explicit close and in
        forked children.
        """
        import atexit

        fd, path = tempfile.mkstemp(prefix="faure-verdicts-", suffix=".log", dir=dir)
        os.close(fd)
        store = cls(path, _create=True)
        atexit.register(store.close, unlink=True)
        return store

    @classmethod
    def attach(cls, path: str) -> "SharedVerdictStore":
        """Open an existing log (worker side); never unlinks it."""
        return cls(path)

    # -- writing -------------------------------------------------------------

    def append(self, key_hash: bytes, domain_fp: bytes, value: bool) -> None:
        """Append one verdict record (a single ``O_APPEND`` write)."""
        known = self._verdicts.get(key_hash)
        if known is not None and known[0] == domain_fp:
            return  # already durable (e.g. a backing hit echoed back)
        os.write(self._wfd, pack_record(key_hash, domain_fp, value))
        self._verdicts[key_hash] = (domain_fp, bool(value))
        self.writes += 1

    def append_key(self, key: Tuple, value: bool) -> None:
        """Observer form: encode a memo key, append when encodable.

        UNKNOWN can never reach here — :meth:`MemoTable.put` (the only
        caller) rejects non-boolean values by contract.
        """
        encoded = self._encode_cached(key)
        if encoded is not None:
            self.append(encoded[0], encoded[1], value)

    def _encode_cached(self, key: Tuple) -> Optional[Tuple[bytes, bytes]]:
        try:
            return self._encoded[key]
        except KeyError:
            encoded = encode_memo_key(key)
            self._encoded[key] = encoded
            return encoded

    # -- reading -------------------------------------------------------------

    def poll(self) -> int:
        """Fold every complete record appended since the last poll.

        Returns the number of *valid* records folded.  Torn or corrupt
        records (a writer died mid-append) are counted and skipped; the
        trailing partial record, if any, is left for the next poll in
        case its writer is still mid-``write``.
        """
        size = os.fstat(self._rfd).st_size
        end = size - ((size - len(_HEADER)) % RECORD_SIZE)
        folded = 0
        while self._offset < end:
            chunk = os.pread(
                self._rfd, min(end - self._offset, RECORD_SIZE * 2048), self._offset
            )
            if len(chunk) < RECORD_SIZE:
                break  # racing a truncation-free grow; retry next poll
            usable = len(chunk) - (len(chunk) % RECORD_SIZE)
            for at in range(0, usable, RECORD_SIZE):
                decoded = unpack_record(chunk[at : at + RECORD_SIZE])
                if decoded is None:
                    self.skipped_records += 1
                    continue
                key_hash, domain_fp, verdict = decoded
                self._verdicts[key_hash] = (domain_fp, verdict)
                folded += 1
            self._offset += usable
        return folded

    def lookup(self, key_hash: bytes, domain_fp: bytes) -> Optional[bool]:
        """Answer from the log, polling for new records first."""
        if not self.reads:
            return None
        known = self._verdicts.get(key_hash)
        if known is None:
            self.poll()
            known = self._verdicts.get(key_hash)
            if known is None:
                return None
        fp, verdict = known
        if fp != domain_fp:
            self.fingerprint_rejections += 1
            return None
        self.hits += 1
        return verdict

    def lookup_key(self, key: Tuple) -> Optional[bool]:
        """Backing form: :meth:`MemoTable` read-through hook."""
        encoded = self._encode_cached(key)
        if encoded is None:
            return None
        return self.lookup(encoded[0], encoded[1])

    # -- lifecycle -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "shared_memo_hits": self.hits,
            "shared_memo_writes": self.writes,
            "shared_memo_skipped": self.skipped_records,
            "shared_memo_fp_rejections": self.fingerprint_rejections,
        }

    def close(self, unlink: bool = False) -> None:
        if self._closed:
            return
        self._closed = True
        for fd in (self._wfd, self._rfd):
            try:
                os.close(fd)
            except OSError:
                pass
        # Only the creating *process* may unlink: forked workers inherit
        # the parent's store object and must not tear the file down on
        # their own exit.
        if unlink and self._owner_pid == os.getpid():
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close(unlink=True)  # PID-guarded: no-op off-creator
        except Exception:
            pass


class StoreHandle:
    """Picklable pointer a worker initializer uses to attach.

    ``reads`` carries the parent's read-enable decision (see
    :func:`reads_allowed`); attach failures (the parent already cleaned
    up) degrade to no store at all — workers just lose the sharing.
    """

    __slots__ = ("path", "reads")

    def __init__(self, path: str, reads: bool):
        self.path = path
        self.reads = reads

    def __getstate__(self):
        return (self.path, self.reads)

    def __setstate__(self, state):
        self.path, self.reads = state

    def open(self) -> Optional[SharedVerdictStore]:
        try:
            store = SharedVerdictStore.attach(self.path)
        except OSError:
            return None
        store.reads = self.reads
        return store


def reads_allowed(governor) -> bool:
    """Whether store *reads* keep this run byte-identical to serial.

    A served verdict skips a governed solver call, which would shift
    call budgets, deadlines, and fault-injection indices relative to
    ``jobs=1`` — so any armed governor stands the read side down (writes
    stay on; they never change the writer's sequence).
    """
    return governor is None


class SharedMemoSession:
    """Parent-side lifecycle of one shared verdict log.

    Creates the store, seeds it with the memo's existing definite
    verdicts (the compute-phase answers are the bulk of the win for the
    pattern fan-out), subscribes the writer to the memo, and hands out
    worker :class:`StoreHandle`\\ s.  One session per :class:`MemoTable`
    (see :func:`session_for`); closed when the memo is cleared.
    """

    def __init__(self, memo):
        self.memo = memo
        self.store = SharedVerdictStore.create()
        for key, value in list(memo._entries.items()):
            self.store.append_key(key, value)
        memo.add_observer(self.store.append_key)
        self.closed = False

    def handle(self, reads: bool) -> StoreHandle:
        return StoreHandle(self.store.path, reads)

    def enable_parent_reads(self, enabled: bool) -> None:
        """Point the parent memo's read-through at the store (or away).

        Only for ungoverned runs (:func:`reads_allowed`); the prune
        probe and any later serial phase then see worker verdicts too.
        """
        self.memo.backing = self.store.lookup_key if enabled else None

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.memo.remove_observer(self.store.append_key)
        if self.memo.backing == self.store.lookup_key:
            self.memo.backing = None
        self.store.close(unlink=True)


def session_for(memo, executor) -> Optional[SharedMemoSession]:
    """The (lazily created) session shared by everything using ``memo``.

    ``None`` when there is nothing to share through (no memo — the
    ``--no-memo`` contract extends to the store) or sharing is disabled
    on the executor (``--no-shared-memo``).  The session is cached on
    the memo itself so successive fan-outs — and different executors
    over the same memo — reuse one log, preserving "decided once per
    *run*" across phases; :meth:`MemoTable.clear` closes it.
    """
    if memo is None or not getattr(executor, "shared_memo", True):
        return None
    session = getattr(memo, "_store_session", None)
    if session is None or session.closed:
        session = SharedMemoSession(memo)
        memo._store_session = session
    return session

"""The serve daemon: a threaded line-protocol endpoint over ServeState.

Request handling is split by contention class:

* **queries and health** run directly on the handler thread against the
  current immutable snapshot — any number run concurrently, and none
  can observe a half-applied update (epoch isolation);
* **updates and withdrawals** funnel through a *bounded* ingest queue
  drained by a single ingest thread, which serializes the
  WAL-append→apply→publish sequence.  When the queue is full the
  request is **shed** with an explicit ``OVERLOADED`` + ``retry_after``
  response — the daemon under overload answers honestly instead of
  stalling or dying;
* a request the ingest thread cannot apply for *infrastructure* reasons
  (not a validation reject — those never reach the queue) marks the
  daemon failed: in-flight requests get ``INTERNAL`` responses and the
  process exits with code 6 (``EXIT_SERVE_FAILURE``), leaving the WAL
  as the authoritative state for the next start.

Replication surface (protocol v2): ``tail`` streams durable WAL
entries above a cursor (handler-thread read — the WAL's in-memory list
is copied, never locked against ingest), answering ``COMPACTED`` when
the cursor fell below the compaction horizon; ``snapshot`` transfers a
consistent bootstrap snapshot.  A server started with
``role="replica"`` answers queries but refuses ingest with
``READ_ONLY`` (redirecting to the primary), and stamps every response
with ``lag_seqs``/``primary_up`` so clients can reason about staleness
explicitly.

Chaos hooks: the ingest loop honors the ``FAURE_CHAOS`` directive
``serve-hang-apply:<seconds>:<sentinel>`` (sleep once before the next
apply), which the overload tests use to make shedding deterministic;
the WAL inherits ``die-after-records`` from the checkpoint journal, and
compaction honors ``compact-die`` (exit between snapshot fsync and
segment retirement), so the chaos suite can SIGKILL the daemon at the
exact production danger points.
"""

from __future__ import annotations

import queue
import socketserver
import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..robustness.chaos import chaos_directives, sentinel_fires
from .protocol import (
    FEATURES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServeRequestError,
    decode_request,
    encode,
    error_response,
    validate_update,
    validate_withdraw,
)
from .state import ServeState

__all__ = ["FaureServer"]

#: Seconds an update handler waits for the ingest thread before giving
#: up with INTERNAL — a backstop, not a normal path (the queue bound is
#: the real admission control).
_INGEST_WAIT_SECONDS = 120.0

#: Seconds a stopping daemon waits for requests already dispatched to
#: write their responses (the shutdown ack among them) before it closes.
_ANSWER_WAIT_SECONDS = 10.0

#: Default max entries per tail batch (a client may ask for fewer).
_TAIL_BATCH_MAX = 512


class _Box:
    """One in-flight update's rendezvous between handler and ingest."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None


def _maybe_chaos_hang() -> None:
    """Fire a scheduled ``serve-hang-apply`` directive (test hook)."""
    for directive in chaos_directives():
        if directive[0] == "serve-hang-apply" and sentinel_fires(directive[2]):
            time.sleep(float(directive[1]))


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    faure: "FaureServer"


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: FaureServer = self.server.faure  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(MAX_LINE_BYTES + 1)
            except (ConnectionError, OSError):
                return
            if not line:
                return
            if not line.strip():
                continue
            with server._answering:
                server._in_flight += 1
            try:
                response, close = server.dispatch(line.strip())
                try:
                    self.wfile.write(encode(response))
                    self.wfile.flush()
                except (ConnectionError, OSError):
                    return
            finally:
                with server._answering:
                    server._in_flight -= 1
                    server._answering.notify_all()
            # A stopping daemon answers the in-flight request, then drops
            # the connection — so tailing replicas and pooled clients see
            # the stop as a disconnect, the same signal a crash gives.
            if close or server._stopping.is_set():
                return


class FaureServer:
    """Lifecycle owner: TCP endpoint, ingest thread, graceful shutdown."""

    def __init__(
        self,
        state: ServeState,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        shed_retry_after: float = 0.1,
        role: str = "primary",
        primary_addr: Optional[Tuple[str, int]] = None,
    ):
        if role not in ("primary", "replica"):
            raise ValueError(f"unknown serve role {role!r}")
        self.state = state
        self.role = role
        self.primary_addr = primary_addr
        #: Set by the replica runner: the tailer thread keeping this
        #: replica converged (carries primary_seq / primary_up).
        self.tailer: Optional[Any] = None
        self.queue_limit = queue_limit
        self.shed_retry_after = shed_retry_after
        self.started = time.monotonic()
        self.counters: Dict[str, int] = {"requests": 0, "shed": 0, "protocol_errors": 0}
        self.fatal: Optional[BaseException] = None
        self._stopping = threading.Event()
        #: Handler threads are daemon threads, so the process can exit
        #: under one mid-write; ``_finish`` waits on this count instead.
        self._answering = threading.Condition()
        self._in_flight = 0
        self._queue: "queue.Queue[Optional[Tuple[Any, _Box]]]" = queue.Queue(
            maxsize=max(1, queue_limit)
        )
        self._tcp = _ThreadedTCPServer((host, port), _Handler)
        self._tcp.faure = self
        self._ingest = threading.Thread(
            target=self._ingest_loop, name="faure-ingest", daemon=True
        )
        self._ingest.start()

    # -- addresses -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real one."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    # -- the ingest thread ---------------------------------------------------

    def _ingest_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            entry, box = item
            _maybe_chaos_hang()
            try:
                box.result = self.state.submit(entry)
            except ServeRequestError as exc:
                box.error = exc
            except BaseException as exc:  # infrastructure failure: daemon is done
                self.fatal = exc
                box.error = exc
                box.event.set()
                self._request_stop(drain=False)
                return
            box.event.set()

    # -- request dispatch ----------------------------------------------------

    def dispatch(self, line: bytes) -> Tuple[Dict[str, Any], bool]:
        """Answer one request line; returns (response, close_connection)."""
        self.counters["requests"] += 1
        try:
            obj = decode_request(line)
        except ServeRequestError as exc:
            self.counters["protocol_errors"] += 1
            return self._stamp(exc.response()), False
        op = obj["op"]
        close = False
        if op == "health":
            response = self._health()
        elif op == "shutdown":
            self._request_stop(drain=True)
            response, close = {"ok": True, "shutdown": True}, True
        elif op == "query":
            response = self._query(obj)
        elif op == "tail":
            response = self._tail(obj)
        elif op == "snapshot":
            response = self._snapshot()
        elif op == "admin":
            response = self._admin(obj)
        else:  # update / withdraw
            response = self._update(obj)
        return self._stamp(response), close

    def _stamp(self, response: Dict[str, Any]) -> Dict[str, Any]:
        """Replica staleness contract: lag in every response line."""
        if self.role == "replica":
            response.setdefault("role", "replica")
            tailer = self.tailer
            primary_seq = getattr(tailer, "primary_seq", None)
            local_seq = self.state.wal.last_seq
            response["lag_seqs"] = (
                max(0, primary_seq - local_seq) if primary_seq is not None else None
            )
            response["primary_up"] = bool(getattr(tailer, "primary_up", False))
        return response

    def _health(self) -> Dict[str, Any]:
        health = self.state.health()
        health["uptime_s"] = round(time.monotonic() - self.started, 3)
        health["queue_depth"] = self._queue.qsize()
        health["queue_limit"] = self.queue_limit
        health["server"] = dict(self.counters)
        health["protocol"] = PROTOCOL_VERSION
        health["features"] = list(FEATURES)
        health["role"] = self.role
        return health

    def _status(self) -> Dict[str, Any]:
        status = self.state.status()
        status["uptime_s"] = round(time.monotonic() - self.started, 3)
        status["queue_depth"] = self._queue.qsize()
        status["queue_limit"] = self.queue_limit
        status["server"] = dict(self.counters)
        status["protocol"] = PROTOCOL_VERSION
        status["features"] = list(FEATURES)
        status["role"] = self.role
        if self.primary_addr is not None:
            status["primary"] = {
                "host": self.primary_addr[0],
                "port": self.primary_addr[1],
            }
        return status

    def _query(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        relation = obj.get("relation")
        if not isinstance(relation, str) or not relation:
            return error_response("MALFORMED", "query needs a 'relation' string")
        try:
            return self.state.query(
                relation, where=obj.get("where"), limit=obj.get("limit")
            )
        except ServeRequestError as exc:
            return exc.response()

    def _tail(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        """Durable entries above a cursor — the replica catch-up stream."""
        after_seq = obj.get("after_seq", 0)
        if not isinstance(after_seq, int) or after_seq < 0:
            return error_response("MALFORMED", "'after_seq' must be a non-negative integer")
        max_entries = obj.get("max", _TAIL_BATCH_MAX)
        if not isinstance(max_entries, int) or max_entries <= 0:
            return error_response("MALFORMED", "'max' must be a positive integer")
        wal = self.state.wal
        if after_seq < wal.base_seq:
            # The cursor predates the compaction horizon: those entries
            # were folded into a snapshot and no longer exist as log
            # records.  The replica must re-bootstrap from the snapshot.
            return error_response(
                "COMPACTED",
                f"entries through seq {wal.base_seq} were compacted into a "
                "snapshot; re-bootstrap via the 'snapshot' op",
                base_seq=wal.base_seq,
            )
        entries = wal.entries_after(after_seq, limit=min(max_entries, _TAIL_BATCH_MAX))
        return {
            "ok": True,
            "entries": [e.to_obj() for e in entries],
            "last_seq": wal.last_seq,
            "base_seq": wal.base_seq,
        }

    def _snapshot(self) -> Dict[str, Any]:
        """Consistent bootstrap snapshot (briefly excludes ingest)."""
        try:
            return {"ok": True, "snapshot": self.state.bootstrap_obj()}
        except ServeRequestError as exc:
            return exc.response()

    def _admin(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        action = obj.get("action")
        if action == "status":
            return self._status()
        if action == "compact":
            if self._stopping.is_set():
                return error_response("OVERLOADED", "daemon is shutting down")
            try:
                return self.state.compact(force=bool(obj.get("force", False)))
            except ServeRequestError as exc:
                return exc.response()
        if action == "snapshot":
            if self._stopping.is_set():
                return error_response("OVERLOADED", "daemon is shutting down")
            try:
                return self.state.snapshot_now()
            except ServeRequestError as exc:
                return exc.response()
        return error_response(
            "MALFORMED",
            f"unknown admin action {action!r} (want status, compact, or snapshot)",
        )

    def _update(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        if self.role == "replica":
            extra: Dict[str, Any] = {}
            if self.primary_addr is not None:
                extra["primary"] = {
                    "host": self.primary_addr[0],
                    "port": self.primary_addr[1],
                }
            return error_response(
                "READ_ONLY",
                "this node is a read replica; send updates to the primary",
                **extra,
            )
        if self._stopping.is_set():
            return error_response(
                "OVERLOADED",
                "daemon is shutting down",
                retry_after=self.shed_retry_after,
                status="OVERLOADED",
            )
        try:
            if obj.get("op") == "withdraw":
                entry = validate_withdraw(obj)
            else:
                entry = validate_update(obj)
        except ServeRequestError as exc:
            self.state.counters["updates_rejected"] += 1
            return exc.response()
        box = _Box()
        try:
            self._queue.put_nowait((entry, box))
        except queue.Full:
            # Admission control: shed with an explicit, retryable answer
            # instead of blocking the handler on a saturated ingest.
            self.counters["shed"] += 1
            return error_response(
                "OVERLOADED",
                f"ingest queue full ({self.queue_limit}); retry later",
                retry_after=self.shed_retry_after,
                status="OVERLOADED",
            )
        if not box.event.wait(timeout=_INGEST_WAIT_SECONDS):
            return error_response("INTERNAL", "ingest did not answer in time")
        if box.error is not None:
            if isinstance(box.error, ServeRequestError):
                return box.error.response()
            return error_response("INTERNAL", f"apply failed: {box.error}")
        assert box.result is not None
        return box.result

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> int:
        """Block until shutdown; returns 0 (graceful) or 6 (failed)."""
        try:
            self._tcp.serve_forever(poll_interval=0.05)
        finally:
            self._finish()
        return 6 if self.fatal is not None else 0

    def _request_stop(self, drain: bool) -> None:
        """Initiate shutdown from any thread (idempotent)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if not drain:
            # Fail fast: wake every parked update handler with INTERNAL.
            try:
                while True:
                    item = self._queue.get_nowait()
                    if item is not None:
                        item[1].error = RuntimeError("daemon failed")
                        item[1].event.set()
            except queue.Empty:
                pass
        # serve_forever must be stopped from a different thread.
        threading.Thread(target=self._tcp.shutdown, daemon=True).start()

    def stop(self) -> None:
        """Graceful stop for in-process (test) embeddings."""
        self._request_stop(drain=True)

    def _finish(self) -> None:
        """Drain the ingest queue, stop the ingest thread, close the WAL."""
        self._stopping.set()
        if self._ingest.is_alive():
            self._queue.put(None)  # FIFO: everything queued drains first
            self._ingest.join(timeout=_INGEST_WAIT_SECONDS)
        tailer = self.tailer
        if tailer is not None:
            try:
                tailer.stop()
            except Exception:  # pragma: no cover - shutdown best-effort
                pass
        with self._answering:
            self._answering.wait_for(
                lambda: self._in_flight == 0, timeout=_ANSWER_WAIT_SECONDS
            )
        self._tcp.server_close()
        self.state.close()

"""Span tracing wrapped around the public calls into each layer.

The traced run installs wrappers from this file around the program's
public functions and methods (nothing in ``src/`` changes).  Each
wrapped call is a span: name, start, end, parent, op id.  Coarse spans
(one per fixpoint, pattern query, request, submit, compaction, ...) are
kept and written as Chrome trace-event JSON; fine spans (solver calls,
``derive`` steps, index probes) are only aggregated, so a traced
fixpoint with ~50k solver and index calls stays small in memory.

A span's *self time* is its duration minus the time its direct child
spans cover; each (scope, name) pair accumulates calls, total time and
self time.  The scope labels what an op is doing ("op", "setup",
"read", "write", "launch"), so one daemon trace separates the read path
from the write path.

If a wrapped attribute or a stats field is renamed by a later change,
the wrapper is skipped or the field is recorded as missing, and every
metric that depends on it reports null instead of crashing.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: Spans kept individually (the rest are aggregated only).
KEPT = frozenset(
    {
        "network.compile",
        "network.fixpoint",
        "network.pattern",
        "faurelog.evaluate",
        "faurelog.inc_apply",
        "serve.dispatch",
        "serve.submit",
        "serve.query",
        "serve.compact",
        "serve.replay",
    }
)


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        #: (id, name, start, end, parent_id, op, thread_id, self_s)
        self.spans: List[Tuple] = []
        #: (scope, name) -> [calls, total_s, self_s]
        self.agg: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (scope, name) -> count
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        #: wrapped attributes or stats fields that no longer exist
        self.missing: set = set()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: op id of the most recent write request (cross-thread link)
        self.last_write_op = 0

    # -- per-thread state ----------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.scope = "idle"
            local.op = 0
        return local

    def set_scope(self, scope: str) -> None:
        self._state().scope = scope

    def begin_op(self, scope: Optional[str] = None, op: Optional[int] = None) -> int:
        state = self._state()
        state.op = next(self._ops) if op is None else op
        if scope is not None:
            state.scope = scope
        return state.op

    def top(self) -> Optional[list]:
        stack = self._state().stack
        return stack[-1] if stack else None

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> list:
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        keep = name in KEPT
        span_id = next(self._ids) if keep else 0
        # the nearest kept ancestor is the parent in the written trace
        kept_parent = 0
        if parent is not None:
            kept_parent = parent[3] or parent[4]
        frame = [name, 0.0, 0.0, span_id, kept_parent, state.op]
        stack.append(frame)
        frame[1] = _now()
        return frame

    def exit(self, frame: list) -> None:
        end = _now()
        state = self._state()
        stack = state.stack
        stack.pop()
        duration = end - frame[1]
        self_time = duration - frame[2]
        if stack:
            stack[-1][2] += duration
        key = (state.scope, frame[0])
        with self._lock:
            entry = self.agg[key]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
            if frame[3]:
                self.spans.append(
                    (frame[3], frame[0], frame[1], end, frame[4], frame[5],
                     threading.get_ident(), self_time)
                )

    def count(self, name: str, amount: float = 1.0) -> None:
        key = (self._state().scope, name)
        with self._lock:
            self.counters[key] += amount

    # -- queries over what was recorded -----------------------------------

    def calls(self, scope: str, name: str) -> int:
        return int(self.agg[(scope, name)][0]) if (scope, name) in self.agg else 0

    def total(self, scope: str, name: str) -> float:
        return self.agg[(scope, name)][1] if (scope, name) in self.agg else 0.0

    def self_time(self, scope: str, name: str) -> float:
        return self.agg[(scope, name)][2] if (scope, name) in self.agg else 0.0

    def counter(self, scope: str, name: str) -> float:
        return self.counters.get((scope, name), 0.0)

    def nesting_violations(self) -> int:
        """Kept spans that do not fit inside their kept parent."""
        by_id = {span[0]: span for span in self.spans}
        bad = 0
        for span in self.spans:
            parent = by_id.get(span[4])
            if parent is None:
                continue
            if span[2] < parent[2] or span[3] > parent[3]:
                bad += 1
        return bad

    def dump(self, path: str, label: str) -> None:
        """Write spans, aggregates and counters (atomically) to ``path``."""
        with self._lock:
            obj = {
                "label": label,
                "pid": os.getpid(),
                "spans": [list(span) for span in self.spans],
                "agg": [[s, n, *vals] for (s, n), vals in self.agg.items()],
                "counters": [[s, n, v] for (s, n), v in self.counters.items()],
                "missing": sorted(self.missing),
            }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        os.replace(tmp, path)

    def absorb(self, obj: Dict[str, Any]) -> None:
        """Load a dump written by another process's :meth:`dump`."""
        self.spans.extend(tuple(span) for span in obj["spans"])
        for scope, name, calls, total, self_time in obj["agg"]:
            entry = self.agg[(scope, name)]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_time
        for scope, name, value in obj["counters"]:
            self.counters[(scope, name)] += value
        self.missing.update(obj["missing"])

    # -- wrapper installation ------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; skip if gone."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapped = make(original)
        functools.update_wrapper(wrapped, original)
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.enabled = False

    def timed(
        self,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[[Any], Any]:
        """A wrapper factory: span ``name`` around each call.

        ``before(args, kwargs)`` runs just before the span opens and its
        result is handed to ``after(state, args, kwargs, result)``,
        which runs after the span closes (counter updates).
        """
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                state = before(args, kwargs) if before is not None else None
                frame = tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                if after is not None:
                    after(state, args, kwargs, result)
                return result

            return wrapper

        return make

    def stepped(self, name: str) -> Callable[[Any], Any]:
        """A wrapper factory for generator functions: one span per step."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.enabled:
                    yield from gen
                    return
                while True:
                    frame = tracer.enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(frame)
                    yield item

            return wrapper

        return make

    def fields(self, obj: Any, names: Tuple[str, ...]) -> Tuple[float, ...]:
        """Read numeric stats fields; a renamed field reads 0 and is noted."""
        out = []
        for field in names:
            value = getattr(obj, field, None)
            if value is None:
                self.missing.add(f"{type(obj).__name__}.{field}")
                value = 0
            out.append(value)
        return tuple(out)


# -- the library layers: network, faurelog, engine, solver --------------------

_SOLVER_FIELDS = (
    "enumeration_used",
    "dpll_used",
    "fast_path_hits",
    "fast_path_misses",
    "memo_hits",
    "memo_misses",
)
_EVAL_FIELDS = (
    "iterations",
    "tuples_generated",
    "tuples_pruned",
    "sql_seconds",
    "solver_seconds",
)


def install_library(tracer: Tracer) -> None:
    """Wrap the public calls into network, faurelog, engine and solver."""
    from repro.engine import storage
    from repro.faurelog import evaluation, incremental
    from repro.network import forwarding, reachability
    from repro.solver import interface, memo

    tracer.patch(forwarding, "compile_forwarding", tracer.timed("network.compile"))
    tracer.patch(
        reachability.ReachabilityAnalyzer, "compute", tracer.timed("network.fixpoint")
    )
    tracer.patch(reachability, "run_pattern_query", tracer.timed("network.pattern"))

    def eval_before(args, kwargs):
        return tracer.fields(args[0].stats, _EVAL_FIELDS)

    def eval_after(state, args, kwargs, result):
        after = tracer.fields(args[0].stats, _EVAL_FIELDS)
        for field, old, new in zip(_EVAL_FIELDS, state, after):
            tracer.count(f"eval.{field}", new - old)

    tracer.patch(
        evaluation.FaureEvaluator,
        "evaluate",
        tracer.timed("faurelog.evaluate", eval_before, eval_after),
    )
    # ``derive`` is imported by name into both evaluators.
    tracer.patch(evaluation, "derive", tracer.stepped("faurelog.derive"))
    tracer.patch(incremental, "derive", tracer.stepped("faurelog.derive"))

    def apply_after(state, args, kwargs, result):
        tracer.count("inc.applies")
        if isinstance(result, int):
            tracer.count("inc.derived", result)

    tracer.patch(
        incremental.IncrementalEvaluator,
        "apply",
        tracer.timed("faurelog.inc_apply", after=apply_after),
    )

    def probe_after(state, args, kwargs, result):
        tracer.count("engine.rows_examined", _probe_size(args[0], args[1]))

    tracer.patch(
        storage.IndexedTable, "candidates", tracer.timed("engine.probe", after=probe_after)
    )

    def solver_before(args, kwargs):
        top = tracer.top()
        if top is not None and top[0].startswith("solver."):
            return None  # the enclosing solver call counts this one
        return tracer.fields(args[0].stats, _SOLVER_FIELDS)

    def solver_after(state, args, kwargs, result):
        if state is None:
            return
        after = tracer.fields(args[0].stats, _SOLVER_FIELDS)
        for field, old, new in zip(_SOLVER_FIELDS, state, after):
            tracer.count(f"solver.{field}", new - old)

    solver_cls = interface.ConditionSolver
    tracer.patch(
        solver_cls, "sat_verdict", tracer.timed("solver.sat", solver_before, solver_after)
    )
    tracer.patch(
        solver_cls,
        "implies_verdict",
        tracer.timed("solver.implies", solver_before, solver_after),
    )
    tracer.patch(memo.MemoTable, "canonical", tracer.timed("solver.canonical"))


def _probe_size(table, pattern) -> int:
    """Rows an ``IndexedTable.candidates`` probe hands back at call time.

    The smallest matching bucket (plus wildcard rows) over the pattern's
    constant columns, or the whole table for a pattern with none; read
    from the indexes the probe itself just built, so no row is touched.
    """
    sizes = []
    for col, want in enumerate(pattern):
        if want is not None:
            index = table.index_on(col)
            sizes.append(len(index.by_constant.get(want, ())) + len(index.wildcard))
    return min(sizes) if sizes else len(table)


# -- the serve layers (installed inside the daemon by serve_launcher.py) ------

_WRITE_OPS = {"update": "write", "withdraw": "write", "query": "read"}


def install_serve(tracer: Tracer) -> None:
    """Wrap the daemon's request path, WAL, apply, publish and compaction."""
    from repro.serve import server, snapshots, state, wal

    def dispatch(fn):
        def wrapper(self, line):
            if not tracer.enabled:
                return fn(self, line)
            tracer.begin_op(scope="request")
            frame = tracer.enter("serve.dispatch")
            try:
                return fn(self, line)
            finally:
                tracer.exit(frame)

        return wrapper

    tracer.patch(server.FaureServer, "dispatch", dispatch)

    def decode_after(state_, args, kwargs, result):
        kind = _WRITE_OPS.get(result.get("op"), str(result.get("op")))
        if kind == "write":
            tracer.last_write_op = tracer._state().op
        tracer.set_scope(kind)
        tracer.count("requests")

    def decode(fn):
        # the scope is known only once the line is decoded, so the
        # decode span itself is charged to the request's scope
        def wrapper(line):
            if not tracer.enabled:
                return fn(line)
            frame = tracer.enter("serve.decode")
            try:
                result = fn(line)
            except BaseException:
                tracer.exit(frame)
                raise
            decode_after(None, (line,), {}, result)
            tracer.exit(frame)
            return result

        return wrapper

    tracer.patch(server, "decode_request", decode)

    def encode_after(state_, args, kwargs, result):
        tracer.count("serve.response_bytes", len(result))
        tracer.count("serve.responses")

    tracer.patch(server, "encode", tracer.timed("serve.encode", after=encode_after))

    tracer.patch(server.FaureServer, "_update", tracer.timed("serve.update_handler"))

    def submit(fn):
        def wrapper(self, entry):
            if not tracer.enabled:
                return fn(self, entry)
            tracer.begin_op(scope="write", op=tracer.last_write_op)
            frame = tracer.enter("serve.submit")
            try:
                return fn(self, entry)
            finally:
                tracer.exit(frame)
                tracer.count("serve.submits")

        return wrapper

    tracer.patch(state.ServeState, "submit", submit)

    def wal_before(args, kwargs):
        return args[0].size_bytes()

    def wal_after(before, args, kwargs, result):
        tracer.count("serve.wal_bytes", args[0].size_bytes() - before)

    tracer.patch(
        wal.WriteAheadLog, "append", tracer.timed("serve.wal_append", wal_before, wal_after)
    )

    def fsync(fn):
        def wrapper(fd):
            if tracer.enabled:
                tracer.count("serve.fsyncs")
            return fn(fd)

        return wrapper

    tracer.patch(os, "fsync", fsync)
    tracer.patch(state.ServeState, "_publish", tracer.timed("serve.publish"))

    def compact_after(state_, args, kwargs, result):
        tracer.count("serve.compactions")

    tracer.patch(
        state.ServeState, "_compact_locked", tracer.timed("serve.compact", after=compact_after)
    )

    def snapshot_after(state_, args, kwargs, result):
        try:
            tracer.count("serve.snapshot_bytes", os.path.getsize(result))
            tracer.count("serve.snapshots")
        except (OSError, TypeError):
            tracer.missing.add("write_snapshot.path")

    tracer.patch(
        state, "write_snapshot", tracer.timed("serve.write_snapshot", after=snapshot_after)
    )
    tracer.patch(snapshots, "database_to_obj", tracer.timed("ctable.dump"))

    def query_before(args, kwargs):
        self_, relation = args[0], args[1]
        try:
            return len(self_.epochs.current().relation(relation))
        except (KeyError, RuntimeError, AttributeError):
            return 0

    def query_after(scanned, args, kwargs, result):
        tracer.count("serve.rows_scanned", scanned)
        rows = result.get("rows") if isinstance(result, dict) else None
        tracer.count("serve.rows_returned", len(rows) if rows is not None else 0)
        tracer.count("serve.queries")

    tracer.patch(
        state.ServeState, "query", tracer.timed("serve.query", query_before, query_after)
    )
    tracer.patch(state.ServeState, "_rebuild", tracer.timed("serve.replay"))


def chrome_events(spans, pid: int, label: str) -> List[Dict[str, Any]]:
    """Kept spans as Chrome trace-event JSON objects (complete events)."""
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}
    ]
    for span_id, name, start, end, parent, op, tid, self_time in spans:
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, "op": op,
                         "self_us": round(self_time * 1e6, 3)},
            }
        )
    return events

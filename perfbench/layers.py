"""Per-layer metrics computed from a traced run.

Every workload reports every metric below.  A layer the workload does
not exercise reports 0 (its spans cover no time); a metric whose
wrapped call or stats field no longer exists reports null.

``*_ms`` metrics are *self time* per op unless the README says
otherwise: a span's duration minus what its direct child spans cover.
"""

from __future__ import annotations

from typing import Dict, Optional

from tracer import Tracer

#: (name, unit) in report order; BENCHMARK.json's per_layer mirrors it.
PER_LAYER = [
    ("network.compile_ms", "ms"),
    ("network.fixpoint_ms", "ms"),
    ("faurelog.evaluate_ms", "ms"),
    ("faurelog.derive_ms", "ms"),
    ("faurelog.iterations", "count"),
    ("faurelog.tuples_generated", "count"),
    ("faurelog.tuples_pruned", "count"),
    ("faurelog.inc_apply_ms", "ms"),
    ("faurelog.derived_per_update", "count"),
    ("engine.sql_s", "s"),
    ("engine.probes", "count"),
    ("engine.rows_examined_per_tuple", "ratio"),
    ("solver.sat_ms", "ms"),
    ("solver.sat_calls", "count"),
    ("solver.implies_ms", "ms"),
    ("solver.implication_calls", "count"),
    ("solver.canonical_ms", "ms"),
    ("solver.decisions", "count"),
    ("solver.memo_hit_rate", "ratio"),
    ("solver.fast_path_hit_rate", "ratio"),
    ("solver.backend_calls", "count"),
    ("solver.s", "s"),
    ("serve.decode_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wal_append_ms", "ms"),
    ("serve.fsyncs_per_update", "count"),
    ("serve.wal_bytes_per_update", "B"),
    ("serve.publish_ms", "ms"),
    ("serve.compactions", "count"),
    ("serve.compact_ms", "ms"),
    ("serve.compact_stall_ms", "ms"),
    ("serve.snapshot_bytes", "B"),
    ("serve.query_ms", "ms"),
    ("serve.rows_scanned_per_row_returned", "ratio"),
    ("serve.query_solver_calls", "count"),
    ("serve.encode_ms", "ms"),
    ("serve.response_bytes", "B"),
    ("serve.resident_rows", "count"),
    ("serve.replay_ms", "ms"),
    ("ctable.dump_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

#: Wrapped attributes / stats fields each metric depends on (null if gone).
_DEPENDS = {
    "network.compile_ms": ("forwarding.compile_forwarding",),
    "network.fixpoint_ms": ("ReachabilityAnalyzer.compute",),
    "faurelog.evaluate_ms": ("FaureEvaluator.evaluate",),
    "faurelog.derive_ms": ("evaluation.derive", "incremental.derive"),
    "faurelog.iterations": ("EvalStats.iterations",),
    "faurelog.tuples_generated": ("EvalStats.tuples_generated",),
    "faurelog.tuples_pruned": ("EvalStats.tuples_pruned",),
    "faurelog.inc_apply_ms": ("IncrementalEvaluator.apply",),
    "faurelog.derived_per_update": ("IncrementalEvaluator.apply",),
    "engine.sql_s": ("EvalStats.sql_seconds",),
    "engine.probes": ("IndexedTable.candidates",),
    "engine.rows_examined_per_tuple": ("IndexedTable.candidates",),
    "solver.sat_ms": ("ConditionSolver.sat_verdict",),
    "solver.sat_calls": ("ConditionSolver.sat_verdict",),
    "solver.implies_ms": ("ConditionSolver.implies_verdict",),
    "solver.implication_calls": ("ConditionSolver.implies_verdict",),
    "solver.canonical_ms": ("MemoTable.canonical",),
    "solver.decisions": (
        "SolverStats.enumeration_used", "SolverStats.dpll_used", "SolverStats.fast_path_hits",
    ),
    "solver.memo_hit_rate": ("SolverStats.memo_hits", "SolverStats.memo_misses"),
    "solver.fast_path_hit_rate": ("SolverStats.fast_path_hits", "SolverStats.fast_path_misses"),
    "solver.backend_calls": ("SolverStats.enumeration_used", "SolverStats.dpll_used"),
    "solver.s": ("EvalStats.solver_seconds",),
    "serve.decode_ms": ("server.decode_request",),
    "serve.dispatch_ms": ("FaureServer.dispatch",),
    "serve.queue_wait_ms": ("FaureServer._update", "ServeState.submit"),
    "serve.submit_ms": ("ServeState.submit",),
    "serve.wal_append_ms": ("WriteAheadLog.append",),
    "serve.fsyncs_per_update": ("os.fsync",),
    "serve.wal_bytes_per_update": ("WriteAheadLog.append",),
    "serve.publish_ms": ("ServeState._publish",),
    "serve.compactions": ("ServeState._compact_locked",),
    "serve.compact_ms": ("ServeState._compact_locked",),
    "serve.compact_stall_ms": ("ServeState._compact_locked",),
    "serve.snapshot_bytes": ("state.write_snapshot", "write_snapshot.path"),
    "serve.query_ms": ("ServeState.query",),
    "serve.rows_scanned_per_row_returned": ("ServeState.query",),
    "serve.query_solver_calls": ("ConditionSolver.sat_verdict",),
    "serve.encode_ms": ("server.encode",),
    "serve.response_bytes": ("server.encode",),
    "serve.replay_ms": ("ServeState._rebuild",),
    "ctable.dump_ms": ("snapshots.database_to_obj",),
}


def _per(value: float, n: float) -> float:
    return value / n if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def library_metrics(t: Tracer, op: str, n_op: int, setup: str) -> Dict[str, float]:
    """network/faurelog/engine/solver metrics, per op of scope ``op``."""
    compile_calls = t.calls(setup, "network.compile") or t.calls(op, "network.compile")
    compile_total = t.total(setup, "network.compile") + t.total(op, "network.compile")
    fix_scope = op if t.calls(op, "network.fixpoint") else setup
    generated = t.counter(op, "eval.tuples_generated")
    memo_hits = t.counter(op, "solver.memo_hits")
    memo_misses = t.counter(op, "solver.memo_misses")
    fp_hits = t.counter(op, "solver.fast_path_hits")
    fp_misses = t.counter(op, "solver.fast_path_misses")
    backend = t.counter(op, "solver.enumeration_used") + t.counter(op, "solver.dpll_used")
    return {
        "network.compile_ms": 1000 * _per(compile_total, compile_calls),
        "network.fixpoint_ms": 1000 * _per(
            t.total(fix_scope, "network.fixpoint"), t.calls(fix_scope, "network.fixpoint")
        ),
        "faurelog.evaluate_ms": 1000 * _per(t.self_time(op, "faurelog.evaluate"), n_op),
        "faurelog.derive_ms": 1000 * _per(t.self_time(op, "faurelog.derive"), n_op),
        "faurelog.iterations": _per(t.counter(op, "eval.iterations"), n_op),
        "faurelog.tuples_generated": _per(generated, n_op),
        "faurelog.tuples_pruned": _per(t.counter(op, "eval.tuples_pruned"), n_op),
        "engine.sql_s": _per(t.counter(op, "eval.sql_seconds"), n_op),
        "engine.probes": _per(t.calls(op, "engine.probe"), n_op),
        "engine.rows_examined_per_tuple": _ratio(t.counter(op, "engine.rows_examined"), generated),
        "solver.sat_ms": 1000 * _per(t.self_time(op, "solver.sat"), n_op),
        "solver.sat_calls": _per(t.calls(op, "solver.sat"), n_op),
        "solver.implies_ms": 1000 * _per(t.self_time(op, "solver.implies"), n_op),
        "solver.implication_calls": _per(t.calls(op, "solver.implies"), n_op),
        "solver.canonical_ms": 1000 * _per(t.self_time(op, "solver.canonical"), n_op),
        "solver.decisions": _per(backend + fp_hits, n_op),
        "solver.memo_hit_rate": _ratio(memo_hits, memo_hits + memo_misses),
        "solver.fast_path_hit_rate": _ratio(fp_hits, fp_hits + fp_misses),
        "solver.backend_calls": _per(backend, n_op),
        "solver.s": _per(t.counter(op, "eval.solver_seconds"), n_op),
    }


def compact_stall(t: Tracer) -> float:
    """Extra ack time of the writes that compacted, in seconds.

    The mean daemon-side ack (``serve.dispatch``) of writes whose submit
    ran a compaction, minus the median ack of the writes that did not.
    """
    by_id = {span[0]: span for span in t.spans}
    submits = {span[5] for span in t.spans if span[1] == "serve.submit"}
    compacting = {
        by_id[span[4]][5]
        for span in t.spans
        if span[1] == "serve.compact" and span[4] in by_id
    }
    acks = {
        span[5]: span[3] - span[2]
        for span in t.spans
        if span[1] == "serve.dispatch" and span[5] in submits
    }
    stalled = [acks[op] for op in compacting if op in acks]
    plain = sorted(ack for op, ack in acks.items() if op not in compacting)
    if not stalled or not plain:
        return 0.0
    return sum(stalled) / len(stalled) - plain[len(plain) // 2]


def serve_metrics(t: Tracer, replay: Tracer, resident_rows: float) -> Dict[str, float]:
    """serve/ctable metrics, plus the write path's faurelog and engine ones.

    ``t`` holds the live daemon's trace: write metrics are per acked
    write, read metrics per read.  ``replay`` holds the restarted
    daemon's, whose ``_rebuild`` is the replay.
    """
    writes = t.calls("write", "serve.dispatch")
    reads = t.calls("read", "serve.dispatch")
    compactions = t.counter("write", "serve.compactions")
    handler = t.total("write", "serve.update_handler")
    submit = t.total("write", "serve.submit")
    compact = t.total("write", "serve.compact")
    return {
        "serve.decode_ms": 1000 * _per(
            t.self_time("write", "serve.decode") + t.self_time("read", "serve.decode"),
            writes + reads,
        ),
        "serve.dispatch_ms": 1000 * _per(
            t.self_time("write", "serve.dispatch") + t.self_time("read", "serve.dispatch"),
            writes + reads,
        ),
        "serve.queue_wait_ms": 1000 * _per(handler - submit, writes),
        "serve.submit_ms": 1000 * _per(t.self_time("write", "serve.submit"), writes),
        "serve.wal_append_ms": 1000 * _per(t.total("write", "serve.wal_append"), writes),
        "serve.fsyncs_per_update": _per(t.counter("write", "serve.fsyncs"), writes),
        "serve.wal_bytes_per_update": _per(t.counter("write", "serve.wal_bytes"), writes),
        "serve.publish_ms": 1000 * _per(t.total("write", "serve.publish"), writes),
        "serve.compactions": compactions,
        "serve.compact_ms": 1000 * _per(compact, compactions),
        "serve.compact_stall_ms": 1000 * compact_stall(t),
        "serve.snapshot_bytes": _per(
            t.counter("write", "serve.snapshot_bytes"), t.counter("write", "serve.snapshots")
        ),
        "serve.query_ms": 1000 * _per(t.self_time("read", "serve.query"), reads),
        "serve.rows_scanned_per_row_returned": _ratio(
            t.counter("read", "serve.rows_scanned"), t.counter("read", "serve.rows_returned")
        ),
        "serve.query_solver_calls": _per(t.calls("read", "solver.sat"), reads),
        "serve.encode_ms": 1000 * _per(t.total("read", "serve.encode"), reads),
        "serve.response_bytes": _per(t.counter("read", "serve.response_bytes"), reads),
        "serve.resident_rows": resident_rows,
        "ctable.dump_ms": 1000 * _per(t.total("write", "ctable.dump"), compactions),
        "faurelog.inc_apply_ms": 1000 * _per(t.self_time("write", "faurelog.inc_apply"), writes),
        "faurelog.derive_ms": 1000 * _per(t.self_time("write", "faurelog.derive"), writes),
        "faurelog.derived_per_update": _per(
            t.counter("write", "inc.derived"), t.counter("write", "inc.applies")
        ),
        "engine.probes": _per(t.calls("write", "engine.probe"), writes),
        "engine.rows_examined_per_tuple": _ratio(
            t.counter("write", "engine.rows_examined"), t.counter("write", "inc.derived")
        ),
        "serve.replay_ms": 1000 * _per(
            replay.total("restart", "serve.replay"), replay.calls("restart", "serve.replay")
        ),
    }


def report(values: Dict[str, float], t: Tracer, overhead_pct: Optional[float]) -> Dict[str, Dict]:
    """Every PER_LAYER metric as ``{"value", "unit"}``; null when its source is gone."""
    out = {}
    missing = " ".join(sorted(t.missing))
    for name, unit in PER_LAYER:
        if name == "trace.overhead_pct":
            value = overhead_pct
        else:
            value = values.get(name, 0.0)
            if any(dep in missing for dep in _DEPENDS.get(name, ())):
                value = None
        out[name] = {"value": value, "unit": unit}
    return out

"""Helpers shared by the perfbench workloads: statistics, probes, results."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

#: Iterations of the host-drift probe loop (about 20-40 ms on a 2-CPU VM).
PROBE_ITERATIONS = 300_000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and their spread as a share."""
    if len(values) < 2:
        only = float(values[0]) if values else float("nan")
        return {"median": only, "q1": only, "q3": only, "spread": 0.0, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def drift_probe() -> float:
    """Milliseconds for a fixed pure-Python loop.

    Reported beside every run so a later noise verdict can be told apart
    from host drift; it never scales a metric.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed * 1000.0


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def settle() -> None:
    """Collect set-up garbage before a timed region starts."""
    gc.collect()


class Digest:
    """A running SHA-256 over canonical output lines (diffable across runs)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.items = 0

    def add(self, *parts: object) -> None:
        self._hash.update(repr(parts).encode("utf-8"))
        self._hash.update(b"\n")
        self.items += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def table_lines(table) -> List[str]:
    """A c-table as sorted ``values | condition`` lines (order-free)."""
    return sorted(
        f"{tuple(str(v) for v in tup.values)} | {tup.condition}" for tup in table
    )


def metric(value: Optional[float], unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(
    setup_s: float, op_ms: Sequence[float], tuples_per_s: float, queries_per_s: float,
    peak_rss_mb: float,
) -> Dict[str, Dict[str, object]]:
    """The six end-to-end metrics every workload reports (BENCHMARK.json)."""
    return {
        "setup_s": metric(setup_s, "s"),
        "op_p50_ms": metric(percentile(op_ms, 0.5), "ms"),
        "op_p90_ms": metric(percentile(op_ms, 0.9), "ms"),
        "tuples_per_s": metric(tuples_per_s, "1/s"),
        "queries_per_s": metric(queries_per_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> str:
    """The one JSON object the benchmark prints last."""
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": metrics},
        sort_keys=True,
    )


def summarize(label: str, values: Iterable[float], unit: str = "ms") -> str:
    vals = list(values)
    if not vals:
        return f"  {label}: no samples"
    return (
        f"  {label}: p50 {percentile(vals, 0.5):.3f}{unit}  "
        f"p90 {percentile(vals, 0.9):.3f}{unit}  n={len(vals)}"
    )


def closure(edges) -> set:
    """Plain transitive closure of a set of (a, b) pairs."""
    reach = set(edges)
    while True:
        extra = {(a, d) for (a, b) in reach for (c, d) in edges if b == c} - reach
        if not extra:
            return reach
        reach |= extra


def check_worlds(compiled, flow: str, got_pairs, extra_edges=(), pattern=None) -> Optional[str]:
    """World-enumeration oracle for one flow; returns a mismatch or None.

    In every world over the flow's path variables, the plain transitive
    closure of the flow's live F rows (plus ``extra_edges``, ``(a, b,
    condition)`` triples live where their condition holds) must equal
    ``got_pairs(assignment)``, the (a, b) pairs the program holds in that
    world.  Under ``pattern`` the expected set is empty in worlds the
    pattern excludes.  This is the paper's loss-less guarantee.
    """
    from repro.ctable import worlds
    from repro.ctable.terms import Constant

    f_rows = [tup for tup in compiled.table if tup.values[0] == Constant(flow)]
    for assignment in worlds.iter_assignments(compiled.variables_of(flow), compiled.domains):
        live = set()
        for tup in f_rows:
            row = worlds.instantiate_tuple(tup, assignment)
            if row is not None:
                live.add((row[1].value, row[2].value))
        live |= {(a, b) for a, b, cond in extra_edges if cond.evaluate(assignment)}
        expected = closure(live)
        if pattern is not None and not pattern.evaluate(assignment):
            expected = set()
        got = got_pairs(assignment)
        if got != expected:
            world = {v.name: c.value for v, c in assignment.items()}
            return f"flow {flow} world {world}: expected {sorted(expected)} got {sorted(got)}"
    return None


def write_trace(workload: str, seed: int, events: List[dict]) -> str:
    """Write Chrome trace-event JSON to perfbench/out/trace-<workload>-seed<n>.json."""
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path

"""Incremental maintenance vs recompute-from-scratch (§7 context).

A stream of new route announcements arrives (new F edges for existing
flows).  Two ways to keep the reachability view current:

* **recompute** — re-run q4/q5 after every change (the stateless
  baseline);
* **incremental** — semi-naive propagation from the delta
  (:class:`repro.faurelog.incremental.IncrementalEvaluator`).

Expected shape: recompute cost grows with the full database per event;
incremental cost tracks the (small) set of new derivations — the gap
widens with base size, which is exactly the argument incremental
verifiers (Jinjing, INCV) make, here reproduced on top of c-tables.

Run: ``pytest benchmarks/bench_incremental.py --benchmark-only``
or   ``python benchmarks/bench_incremental.py`` (which also rewrites
``BENCH_incremental.json`` at the repository root).
"""

import pytest

from repro.ctable.table import Database
from repro.faurelog.evaluation import evaluate
from repro.faurelog.incremental import IncrementalEvaluator
from repro.network.forwarding import compile_forwarding
from repro.network.reachability import reachability_program
from repro.solver.interface import ConditionSolver
from repro.workloads.ribgen import RibConfig, generate_rib

BASE_PREFIXES = 40
EVENTS = 12

PROGRAM = reachability_program(per_flow=True)


def _workload(prefixes: int = BASE_PREFIXES, events_count: int = EVENTS):
    routes = generate_rib(RibConfig(prefixes=prefixes, as_count=70, seed=23))
    compiled = compile_forwarding(routes)
    # the event stream: fresh edges extending existing flows
    events = []
    for i, route in enumerate(routes[:events_count]):
        head = route.paths[0][0]
        events.append((route.prefix, f"NEW{i}", head))
    return compiled, events


def run_incremental() -> int:
    compiled, events = _workload()
    solver = ConditionSolver(compiled.domains)
    inc = IncrementalEvaluator(PROGRAM, compiled.database(), solver=solver)
    new = 0
    for flow, src, dst in events:
        new += inc.insert("F", [flow, src, dst])
    return new


def run_recompute() -> int:
    compiled, events = _workload()
    solver = ConditionSolver(compiled.domains)
    db = compiled.database()
    total = 0
    for flow, src, dst in events:
        db.table("F").add([flow, src, dst])
        result = evaluate(PROGRAM, db, solver=solver)
        total = len(result.table("R"))
    return total


def test_incremental(benchmark):
    new = benchmark.pedantic(run_incremental, rounds=1, iterations=1)
    benchmark.extra_info["events"] = EVENTS
    benchmark.extra_info["new_derivations"] = new


def test_recompute(benchmark):
    total = benchmark.pedantic(run_recompute, rounds=1, iterations=1)
    benchmark.extra_info["events"] = EVENTS
    benchmark.extra_info["final_tuples"] = total


def build_report(prefixes: int = BASE_PREFIXES, events_count: int = EVENTS) -> dict:
    """Per-event latency rows for the ``BENCH_incremental.json`` artifact.

    Measures, over the same announcement stream:

    * ``incremental_s`` — one :meth:`IncrementalEvaluator.insert` (the
      serve daemon's per-update apply cost);
    * ``recompute_s`` — a full q4/q5 re-evaluation after the same edge
      lands (the stateless baseline);
    * ``speedup`` — their ratio, per event and in aggregate.

    Both sides must agree on the final ``R`` cardinality; the report
    records the check so CI can gate on it.
    """
    import time

    compiled, events = _workload(prefixes, events_count)
    solver = ConditionSolver(compiled.domains)
    start = time.perf_counter()
    inc = IncrementalEvaluator(PROGRAM, compiled.database(), solver=solver)
    initial_s = time.perf_counter() - start

    recompute_db = compiled.database()
    recompute_solver = ConditionSolver(compiled.domains)
    rows = []
    for i, (flow, src, dst) in enumerate(events):
        start = time.perf_counter()
        derived = inc.insert("F", [flow, src, dst])
        incremental_s = time.perf_counter() - start

        recompute_db.table("F").add([flow, src, dst])
        start = time.perf_counter()
        result = evaluate(PROGRAM, recompute_db, solver=recompute_solver)
        recompute_s = time.perf_counter() - start
        rows.append(
            {
                "event": i,
                "new_derivations": derived,
                "incremental_s": round(incremental_s, 6),
                "recompute_s": round(recompute_s, 6),
                "speedup": round(recompute_s / max(incremental_s, 1e-9), 2),
            }
        )
    incremental_total = sum(row["incremental_s"] for row in rows)
    recompute_total = sum(row["recompute_s"] for row in rows)
    latencies = sorted(row["incremental_s"] for row in rows)
    return {
        "workload": "incremental-announcements",
        "prefixes": prefixes,
        "events": len(rows),
        "initial_eval_s": round(initial_s, 4),
        "final_tuples_agree": len(inc.table("R")) == len(result.table("R")),
        "incremental_total_s": round(incremental_total, 4),
        "recompute_total_s": round(recompute_total, 4),
        "speedup_vs_recompute": round(
            recompute_total / max(incremental_total, 1e-9), 2
        ),
        "update_latency_max_s": round(latencies[-1], 6) if latencies else 0.0,
        "update_latency_p50_s": round(latencies[len(latencies) // 2], 6)
        if latencies
        else 0.0,
        "rows": rows,
    }


def main() -> None:
    import json
    import os
    import time

    t0 = time.perf_counter()
    run_incremental()
    inc = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_recompute()
    rec = time.perf_counter() - t0
    print(f"{EVENTS} announcement events over a {BASE_PREFIXES}-prefix base:")
    print(f"  incremental: {inc:6.2f}s (includes the initial evaluation)")
    print(f"  recompute  : {rec:6.2f}s (full q4/q5 per event)")
    print(f"  speedup    : {rec / max(inc, 1e-9):5.1f}x")
    # The same artifact ``report.py`` emits, at its full size (40, 12).
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCH_incremental.json")
    report = build_report()
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path} (update p50 {report['update_latency_p50_s'] * 1000:.2f} ms)")


if __name__ == "__main__":
    main()

"""Machine-readable benchmark reports for the Table-4 RIB workload.

Produces three JSON artifacts next to the repo root (or ``--out-dir``):

* ``BENCH_table4.json`` — the paper's Table 4 measurements (per query
  and prefix size: sql/solver/wall seconds and generated tuple counts)
  at ``jobs=1``, i.e. the serial reproduction;
* ``BENCH_parallel.json`` — the same q6/q7/q8 sweep at ``jobs=1`` vs
  ``jobs=2`` and ``--jobs N`` side by side, with per-row
  ``speedup_vs_serial`` and the host's ``cpu_count`` so a reader can
  judge whether a speedup was physically possible on the measuring
  machine.  Parallel rows carry two *distinct* time columns: ``wall_s``
  (parent wall clock — what a user waits) and ``cpu_s`` (the workers'
  summed sql+solver CPU time — what the work costs).  Workers account
  phases on ``process_time``, so ``cpu_s`` is additive across workers
  and directly comparable to the serial row — earlier revisions summed
  per-worker *wall* phases, which on a timeshared host overstated the
  work by up to the worker count (rows where "sql_s" exceeded
  ``wall_s``).  Rows also report ``tasks`` (shard messages sent),
  ``ipc_bytes`` (pickled bytes both directions) and
  ``shared_memo_hits`` (cross-worker verdicts served by the shared
  store);
* ``BENCH_incremental.json`` — per-announcement update latency for
  semi-naive incremental maintenance vs recompute-from-scratch (the
  serve daemon's per-update apply cost; see bench_incremental.py);
* ``BENCH_serve.json`` — the serve daemon under multi-client load
  (query p50/p99, acked-ingest throughput, shed rate, threshold
  compactions) with two gates: a cold restart on the same WAL must
  answer the row projection byte-identically to the live daemon, and
  the live WAL suffix must stay bounded by the compaction interval
  (see bench_serve.py).

Both runs must generate identical tuple counts (``jobs`` changes how
the work is scheduled, never what is answered); the report asserts this
and exits non-zero on divergence, which is what the CI ``bench-smoke``
job leans on.

Run: ``python benchmarks/report.py`` (full sweep, jobs=4) or
``python benchmarks/report.py --smoke`` (smallest prefix, jobs=2).
"""

import argparse
import json
import os
import sys
import time
from typing import Dict, List

from repro.network.forwarding import compile_forwarding
from repro.workloads.ribgen import RibConfig, generate_rib

try:  # package-relative when imported by pytest
    from .bench_incremental import build_report as build_incremental_report
    from .bench_serve import FULL as SERVE_FULL
    from .bench_serve import SMOKE as SERVE_SMOKE
    from .bench_serve import build_report as build_serve_report
    from .bench_table4 import _fresh_analyzer, _pattern_stats
    from .conftest import PREFIX_SIZES
except ImportError:  # python benchmarks/report.py
    from bench_incremental import build_report as build_incremental_report
    from bench_serve import FULL as SERVE_FULL
    from bench_serve import SMOKE as SERVE_SMOKE
    from bench_serve import build_report as build_serve_report
    from bench_table4 import _fresh_analyzer, _pattern_stats
    from conftest import PREFIX_SIZES

QUERIES = ("q6", "q7", "q8")


def _fast_path_hit_rate(stats):
    """Share of solver decisions the interval/atom fast path settled.

    ``None`` when the phase recorded no fast-path activity at all
    (e.g. every verdict came from a cache).
    """
    extra = getattr(stats, "extra", None) or {}
    hits = extra.get("fast_path_hits", 0)
    misses = extra.get("fast_path_misses", 0)
    total = hits + misses
    return round(hits / total, 4) if total else None


def run_sweep(prefixes: int, jobs: int) -> List[Dict]:
    """One Table-4 column: q4–q5 then q6/q7/q8 at the given job count.

    Returns one row dict per query with the report schema: query,
    prefixes, sql_s, solver_s, cpu_s, wall_s, tuples, jobs, tasks,
    ipc_bytes, shared_memo_hits.  ``sql_s``/``solver_s`` are the phase
    split (summed worker CPU when ``jobs > 1``); ``cpu_s`` is their sum;
    ``wall_s`` is the parent's wall clock around the whole query.
    """
    routes = generate_rib(
        RibConfig(prefixes=prefixes, as_count=max(60, prefixes // 4), seed=20210610)
    )
    compiled = compile_forwarding(routes)
    analyzer = _fresh_analyzer(compiled, jobs=jobs)
    start = time.perf_counter()
    analyzer.compute()
    rows = [
        {
            "query": "q4-q5",
            "prefixes": prefixes,
            "sql_s": round(analyzer.stats.sql_seconds, 4),
            "solver_s": round(analyzer.stats.solver_seconds, 4),
            "cpu_s": round(
                analyzer.stats.sql_seconds + analyzer.stats.solver_seconds, 4
            ),
            "wall_s": round(time.perf_counter() - start, 4),
            "tuples": analyzer.stats.tuples_generated,
            "jobs": 1,  # the recursive fixpoint is inherently serial
            "tasks": 0,
            "ipc_bytes": 0,
            "shared_memo_hits": 0,
            "fast_path_hit_rate": _fast_path_hit_rate(analyzer.stats),
        }
    ]
    for query in QUERIES:
        # The shard/IPC/store accounting accumulates on the *analyzer's*
        # stats across queries; per-query values are before/after deltas.
        marks = dict(analyzer.stats.extra)
        start = time.perf_counter()
        stats = _pattern_stats(analyzer, compiled, routes, query, jobs=jobs)
        wall = time.perf_counter() - start

        def delta(key):
            return analyzer.stats.extra.get(key, 0) - marks.get(key, 0)

        rows.append(
            {
                "query": query,
                "prefixes": prefixes,
                "sql_s": round(stats.sql_seconds, 4),
                "solver_s": round(stats.solver_seconds, 4),
                "cpu_s": round(stats.sql_seconds + stats.solver_seconds, 4),
                "wall_s": round(wall, 4),
                "tuples": stats.tuples_generated,
                "jobs": jobs,
                "tasks": int(delta("parallel_tasks")),
                "ipc_bytes": int(delta("ipc_bytes")),
                "shared_memo_hits": int(delta("shared_memo_hits")),
                "fast_path_hit_rate": _fast_path_hit_rate(stats),
            }
        )
    return rows


def build_reports(sizes: List[int], jobs: int) -> Dict[str, Dict]:
    """Run the serial and parallel sweeps; assemble both report dicts."""
    serial_rows: List[Dict] = []
    parallel_rows: List[Dict] = []
    mismatches: List[str] = []
    # Always include a jobs=2 column: the "parallelism must not *hurt*"
    # gate is defined at two workers, whatever --jobs asks for.
    job_levels = sorted({2, jobs}) if jobs > 1 else []
    for prefixes in sizes:
        serial = run_sweep(prefixes, jobs=1)
        serial_rows.extend(serial)
        for s_row in serial:
            parallel_rows.append({**s_row, "speedup_vs_serial": 1.0})
        for level in job_levels:
            parallel = run_sweep(prefixes, jobs=level)
            for s_row, p_row in zip(serial, parallel):
                if s_row["tuples"] != p_row["tuples"]:
                    mismatches.append(
                        f"{s_row['query']}@{prefixes}: serial {s_row['tuples']} "
                        f"vs jobs={level} {p_row['tuples']} tuples"
                    )
                # q4-q5 is serial in both runs (row carries jobs=1); its
                # wall delta between the sweeps is noise, so skip the
                # duplicate.
                if p_row["jobs"] > 1:
                    parallel_rows.append(
                        {
                            **p_row,
                            "speedup_vs_serial": round(
                                s_row["wall_s"] / p_row["wall_s"], 3
                            )
                            if p_row["wall_s"]
                            else 1.0,
                        }
                    )
    meta = {
        "workload": "table4-rib",
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "job_levels": job_levels,
        "prefix_sizes": sizes,
        "tuple_counts_agree": not mismatches,
        "tuple_mismatches": mismatches,
    }
    return {
        "BENCH_table4.json": {**meta, "jobs": 1, "rows": serial_rows},
        "BENCH_parallel.json": {**meta, "rows": parallel_rows},
    }


#: (prefixes, events) for the incremental-maintenance artifact.
INCREMENTAL_FULL = (40, 12)
INCREMENTAL_SMOKE = (20, 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=4, help="parallel worker count (default 4)"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help=f"prefix sizes to sweep (default {PREFIX_SIZES})",
    )
    parser.add_argument(
        "--out-dir", default=".", help="directory for the JSON artifacts"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: smallest prefix size only, jobs=2 unless --jobs given",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        sizes = args.sizes or [min(PREFIX_SIZES)]
        jobs = args.jobs if args.jobs != parser.get_default("jobs") else 2
    else:
        sizes = args.sizes or list(PREFIX_SIZES)
        jobs = args.jobs

    os.makedirs(args.out_dir, exist_ok=True)
    reports = build_reports(sizes, jobs)
    inc_prefixes, inc_events = INCREMENTAL_SMOKE if args.smoke else INCREMENTAL_FULL
    reports["BENCH_incremental.json"] = build_incremental_report(
        inc_prefixes, inc_events
    )
    serve_params = SERVE_SMOKE if args.smoke else SERVE_FULL
    reports["BENCH_serve.json"] = build_serve_report(*serve_params)
    for name, payload in reports.items():
        path = os.path.join(args.out_dir, name)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        # Round-trip so a malformed artifact fails loudly here, not in CI.
        with open(path) as handle:
            json.load(handle)
        print(f"wrote {path} ({len(payload['rows'])} rows)")

    parallel = reports["BENCH_parallel.json"]
    if not parallel["tuple_counts_agree"]:
        for line in parallel["tuple_mismatches"]:
            print(f"MISMATCH: {line}", file=sys.stderr)
        return 1
    rows = parallel["rows"]
    serial_by = {
        (r["query"], r["prefixes"]): r for r in rows if r["jobs"] == 1
    }
    best = max(
        (
            row["speedup_vs_serial"]
            for row in rows
            if row["jobs"] > 1 and row["query"] in QUERIES
        ),
        default=1.0,
    )
    print(
        f"serial/parallel tuple counts agree; best q6-q8 speedup "
        f"{best:.2f}x at jobs={jobs} on a {parallel['cpu_count']}-cpu host"
    )
    failures = []
    # Gate: two workers must never make things *worse* than serial by
    # more than 25% (plus a small absolute slack so sub-second smoke
    # runs don't gate on scheduler noise).  On a host with ≥2 CPUs the
    # bound is on wall time — what a user actually waits.  On a 1-CPU
    # host parallel wall is serial wall plus every fork/IPC cost with
    # zero chance of overlap, so wall is not a property of this code;
    # there the bound is on cpu_s — the *work* must stay within 25% of
    # serial (no duplicated solving, no accounting distortion), which is
    # exactly the machine-independent part of the claim.
    twos = [r for r in rows if r["jobs"] == 2 and r["query"] in QUERIES]
    if twos:
        multi_core = (parallel["cpu_count"] or 1) >= 2
        metric = "wall_s" if multi_core else "cpu_s"
        p_cost = sum(r[metric] for r in twos)
        s_cost = sum(
            serial_by[(r["query"], r["prefixes"])][metric] for r in twos
        )
        if p_cost > 1.25 * s_cost + 0.5:
            failures.append(
                f"jobs=2 q6-q8 {metric} {p_cost:.2f}s exceeds "
                f"1.25x serial ({s_cost:.2f}s)"
            )
        print(
            f"jobs=2 overhead gate ({metric}): q6-q8 {p_cost:.2f}s "
            f"vs serial {s_cost:.2f}s"
        )
    # Gate: with real cores available, the fan-out must actually win.
    if (parallel["cpu_count"] or 1) >= 2 and best < 1.5:
        failures.append(
            f"best q6-q8 speedup {best:.2f}x < 1.5x on a "
            f"{parallel['cpu_count']}-cpu host"
        )
    # Gate: the workers' *summed* solver CPU at the deepest job level
    # must stay within 1.5x of the serial run's on q6 and q8 — the same
    # decisions are made, only scheduled differently, so a blow-up here
    # means duplicated work (or dishonest wall-based accounting).
    deepest = max((r["jobs"] for r in rows), default=1)
    if deepest > 1:
        for row in rows:
            if row["jobs"] != deepest or row["query"] not in ("q6", "q8"):
                continue
            s_solver = serial_by[(row["query"], row["prefixes"])]["solver_s"]
            if row["solver_s"] > 1.5 * s_solver + 0.05:
                failures.append(
                    f"{row['query']}@{row['prefixes']}: jobs={deepest} summed "
                    f"solver_s {row['solver_s']:.3f} exceeds 1.5x serial "
                    f"({s_solver:.3f})"
                )
        print(
            f"cpu accounting gate: jobs={deepest} summed q6/q8 solver_s "
            f"within 1.5x of serial"
            if not any("summed" in f for f in failures)
            else "cpu accounting gate: FAILING"
        )
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    incremental = reports["BENCH_incremental.json"]
    if not incremental["final_tuples_agree"]:
        print(
            "MISMATCH: incremental maintenance and recompute-from-scratch "
            "disagree on the final R cardinality",
            file=sys.stderr,
        )
        return 1
    print(
        f"incremental maintenance: {incremental['events']} events, "
        f"p50 update latency {incremental['update_latency_p50_s']}s, "
        f"{incremental['speedup_vs_recompute']:.1f}x vs recompute"
    )
    serve = reports["BENCH_serve.json"]
    if not serve["restart_rows_agree"]:
        print(
            "MISMATCH: serve daemon cold restart (snapshot + WAL-suffix "
            "replay) diverged from the live daemon's row projection",
            file=sys.stderr,
        )
        return 1
    if not serve["wal_bounded"]:
        print(
            f"FAIL: serve WAL unbounded after threshold compaction "
            f"({serve['wal_entries']} live entries)",
            file=sys.stderr,
        )
        return 1
    print(
        f"serve stress: {serve['clients']} clients, query p50 "
        f"{serve['query_p50_s']}s / p99 {serve['query_p99_s']}s, "
        f"{serve['ingest_per_s']:.0f} acked updates/s, "
        f"shed rate {serve['shed_rate']:.1%}, "
        f"{serve['compactions']} compactions, restart byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

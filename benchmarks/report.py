"""Machine-readable benchmark reports for the Table-4 RIB workload.

Produces three JSON artifacts next to the repo root (or ``--out-dir``):

* ``BENCH_table4.json`` — the paper's Table 4 measurements (per query
  and prefix size: sql/solver seconds, their sum ``cpu_s``, the wall
  seconds around the whole query, generated tuple counts and the
  solver fast-path hit rate), with the host's ``cpu_count``;
* ``BENCH_incremental.json`` — per-announcement update latency for
  semi-naive incremental maintenance vs recompute-from-scratch (the
  serve daemon's per-update apply cost; see bench_incremental.py);
* ``BENCH_serve.json`` — the serve daemon under multi-client load
  (query p50/p99, acked-ingest throughput, shed rate, threshold
  compactions) with two gates: a cold restart on the same WAL must
  answer the row projection byte-identically to the live daemon, and
  the live WAL suffix must stay bounded by the compaction interval
  (see bench_serve.py).

The report exits non-zero when a correctness gate of the incremental
or serve artifact fails, which is what the CI ``bench-smoke`` job leans
on.

Run: ``python benchmarks/report.py`` (full sweep) or
``python benchmarks/report.py --smoke`` (smallest prefix).
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


def run_sweep(prefixes: int) -> List[Dict]:
    """One Table-4 column: q4–q5 then q6/q7/q8 at one prefix size.

    Returns one row dict per query with the report schema: query,
    prefixes, sql_s, solver_s, cpu_s, wall_s, tuples, fast_path_hit_rate.
    ``sql_s``/``solver_s`` are the phase split; ``cpu_s`` is their sum;
    ``wall_s`` is the wall clock around the whole query.
    """
    routes = generate_rib(
        RibConfig(prefixes=prefixes, as_count=max(60, prefixes // 4), seed=20210610)
    )
    compiled = compile_forwarding(routes)
    analyzer = _fresh_analyzer(compiled)
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
            "fast_path_hit_rate": _fast_path_hit_rate(analyzer.stats),
        }
    ]
    for query in QUERIES:
        start = time.perf_counter()
        stats = _pattern_stats(analyzer, compiled, routes, query)
        wall = time.perf_counter() - start
        rows.append(
            {
                "query": query,
                "prefixes": prefixes,
                "sql_s": round(stats.sql_seconds, 4),
                "solver_s": round(stats.solver_seconds, 4),
                "cpu_s": round(stats.sql_seconds + stats.solver_seconds, 4),
                "wall_s": round(wall, 4),
                "tuples": stats.tuples_generated,
                "fast_path_hit_rate": _fast_path_hit_rate(stats),
            }
        )
    return rows


def build_reports(sizes: List[int]) -> Dict[str, Dict]:
    """Run the Table-4 sweep; assemble its report dict."""
    rows: List[Dict] = []
    for prefixes in sizes:
        rows.extend(run_sweep(prefixes))
    return {
        "BENCH_table4.json": {
            "workload": "table4-rib",
            "cpu_count": os.cpu_count(),
            "prefix_sizes": sizes,
            "rows": rows,
        }
    }


#: (prefixes, events) for the incremental-maintenance artifact.
INCREMENTAL_FULL = (40, 12)
INCREMENTAL_SMOKE = (20, 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
        help="CI mode: smallest prefix size only",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        sizes = args.sizes or [min(PREFIX_SIZES)]
    else:
        sizes = args.sizes or list(PREFIX_SIZES)

    os.makedirs(args.out_dir, exist_ok=True)
    reports = build_reports(sizes)
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

    # Every gate is evaluated and every failure printed before exiting.
    failures = []
    incremental = reports["BENCH_incremental.json"]
    if not incremental["final_tuples_agree"]:
        failures.append(
            "MISMATCH: incremental maintenance and recompute-from-scratch "
            "disagree on the final R cardinality"
        )
    print(
        f"incremental maintenance: {incremental['events']} events, "
        f"p50 update latency {incremental['update_latency_p50_s']}s, "
        f"{incremental['speedup_vs_recompute']:.1f}x vs recompute"
    )
    serve = reports["BENCH_serve.json"]
    if not serve["restart_rows_agree"]:
        failures.append(
            "MISMATCH: serve daemon cold restart (snapshot + WAL-suffix "
            "replay) diverged from the live daemon's row projection"
        )
    if not serve["wal_bounded"]:
        failures.append(
            f"FAIL: serve WAL unbounded after threshold compaction "
            f"({serve['wal_entries']} live entries)"
        )
    print(
        f"serve stress: {serve['clients']} clients, query p50 "
        f"{serve['query_p50_s']}s / p99 {serve['query_p99_s']}s, "
        f"{serve['ingest_per_s']:.0f} acked updates/s, "
        f"shed rate {serve['shed_rate']:.1%}, "
        f"{serve['compactions']} compactions, restart "
        f"{'byte-identical' if serve['restart_rows_agree'] else 'DIVERGED'}"
    )
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

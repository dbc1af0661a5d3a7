"""Tier-2 gate on the interval/atom fast path's hit rate.

The ≥5× solver-time reduction in ``BENCH_table4.json`` rests entirely
on the semi-decision fast path settling (nearly) every q6/q8 solver
call before the enumeration/DPLL backends run.  A soundness-preserving
regression that quietly knocks the hit rate down — a narrowed fragment,
a budget set too low, a canonical form the atomizer no longer
recognizes — would not fail any correctness test; it would just slide
Table 4 back toward the seed numbers.  This gate makes that slide loud:

* **live**: run the q6/q8 pattern sweep at a smoke size and demand a
  ``fast_path_hit_rate`` of at least :data:`REQUIRED_HIT_RATE` from the
  merged evaluator stats, with byte-identical tuple counts against a
  fast-path-off run of the same sweep;
* **artifact**: the committed ``BENCH_table4.json`` must carry the same
  floor on every q6/q8 row, so a stale or hand-edited artifact cannot
  claim a speedup the code no longer delivers.

Run: ``python benchmarks/bench_fastpath.py`` or
``pytest benchmarks/bench_fastpath.py``.
"""

import argparse
import json
import os
import sys

from repro.network.forwarding import compile_forwarding
from repro.workloads.ribgen import RibConfig, generate_rib

try:  # package-relative when imported by pytest
    from .bench_table4 import _fresh_analyzer, _pattern_stats
except ImportError:  # python benchmarks/bench_fastpath.py
    from bench_table4 import _fresh_analyzer, _pattern_stats

#: Floor on hits / (hits + misses) for the q6/q8 pattern sweeps.  The
#: measured rate is 1.0 across every size; 0.9 leaves headroom for
#: workload drift without letting the fast path decay into a bystander.
REQUIRED_HIT_RATE = 0.9

GATED_QUERIES = ("q6", "q8")

ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "BENCH_table4.json")


def _hit_rate(stats) -> float:
    extra = getattr(stats, "extra", None) or {}
    hits = extra.get("fast_path_hits", 0)
    misses = extra.get("fast_path_misses", 0)
    total = hits + misses
    return hits / total if total else 0.0


def run_gate(prefixes: int):
    """Measure the q6/q8 hit rate live; return per-query results.

    Each entry is ``(query, hit_rate, tuples_fast, tuples_slow)`` where
    the tuple counts come from fast-path-on and -off runs of the same
    sweep — they must agree exactly.
    """
    routes = generate_rib(
        RibConfig(prefixes=prefixes, as_count=max(60, prefixes // 4), seed=20210610)
    )
    compiled = compile_forwarding(routes)
    results = []
    for query in GATED_QUERIES:
        fast = _fresh_analyzer(compiled, fast_path=True)
        fast.compute()
        fast_stats = _pattern_stats(fast, compiled, routes, query)
        slow = _fresh_analyzer(compiled, fast_path=False)
        slow.compute()
        slow_stats = _pattern_stats(slow, compiled, routes, query)
        results.append(
            (
                query,
                _hit_rate(fast_stats),
                fast_stats.tuples_generated,
                slow_stats.tuples_generated,
            )
        )
    return results


def test_fast_path_hit_rate_floor():
    for query, rate, tuples_fast, tuples_slow in run_gate(prefixes=30):
        assert tuples_fast == tuples_slow, (
            f"{query}: fast path changed the answer "
            f"({tuples_fast} vs {tuples_slow} tuples)"
        )
        assert rate >= REQUIRED_HIT_RATE, (
            f"{query}: fast_path_hit_rate {rate:.3f} < {REQUIRED_HIT_RATE}"
        )


def test_committed_artifact_holds_the_floor():
    with open(ARTIFACT) as fh:
        report = json.load(fh)
    gated = 0
    for row in report["rows"]:
        if row["query"] not in GATED_QUERIES:
            continue
        gated += 1
        rate = row.get("fast_path_hit_rate")
        assert rate is not None, f"{row['query']}@{row['prefixes']}: no hit rate"
        assert rate >= REQUIRED_HIT_RATE, (
            f"{row['query']}@{row['prefixes']}: committed hit rate {rate} "
            f"< {REQUIRED_HIT_RATE}"
        )
    assert gated >= len(GATED_QUERIES), "artifact is missing gated query rows"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="smallest instance")
    parser.add_argument("--prefixes", type=int, default=None)
    args = parser.parse_args(argv)
    prefixes = args.prefixes or (20 if args.smoke else 50)
    failed = False
    for query, rate, tuples_fast, tuples_slow in run_gate(prefixes):
        agree = tuples_fast == tuples_slow
        ok = agree and rate >= REQUIRED_HIT_RATE
        failed |= not ok
        print(
            f"{query}@{prefixes}: hit_rate={rate:.3f} "
            f"tuples={tuples_fast}{'==' if agree else '!='}{tuples_slow} "
            f"[{'ok' if ok else 'FAIL'}]"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness evidence: repeat the benchmark over seeds, report quartiles.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload serve-mixed --runs 10 \
        --seconds 20 --out perfbench/results/serve-mixed.json

Runs ``perfbench/run.py`` once per seed 1..runs, one after another,
and records for every end-to-end metric the median, first and third
quartile (``statistics.quantiles(n=4)``) and the spread ``(q3 - q1) / median`` next to its bound from
BENCHMARK.json.  Each run's host-drift probe is kept beside it, never
used to scale a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402

_PROBE = re.compile(r"host drift probe: ([0-9.]+) ms")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    probe = _PROBE.search(proc.stdout)
    return {
        "seed": seed,
        "wall_s": wall,
        "probe_ms": float(probe.group(1)) if probe else None,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(1, args.runs + 1):
        run = run_once(args.workload, seed, seconds)
        runs.append(run)
        shown = " ".join(f"{k}={v:.4g}" for k, v in sorted(run["metrics"].items()))
        print(f"seed {seed}: {run['wall_s']:.1f}s probe {run['probe_ms']}ms {shown}", flush=True)
    summary = {}
    for name in sorted(bounds):
        stats = common.quartiles([run["metrics"][name] for run in runs])
        stats["bound"] = bounds[name]
        summary[name] = stats
        flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above bound/3"
        print(f"{name:14s} median {stats['median']:.5g}  q1 {stats['q1']:.5g}  "
              f"q3 {stats['q3']:.5g}  spread {stats['spread']:.3f} (bound {bounds[name]}){flag}")
    probes = [run["probe_ms"] for run in runs if run["probe_ms"] is not None]
    if probes:
        summary["host_probe_ms"] = common.quartiles(probes)
        print(f"host drift probe median {summary['host_probe_ms']['median']:.2f} ms "
              f"spread {summary['host_probe_ms']['spread']:.3f}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "summary": summary}, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command, three workloads, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rib-fixpoint --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is the separate traced run that reports the per-layer metrics and the
tracing overhead.  Human-readable lines (latency summaries, the output
digest, the host-drift probe) come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check
passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rib-fixpoint", "rib-patterns", "serve-mixed")


def hash_seed(seed: int) -> str:
    """PYTHONHASHSEED for a workload seed (set/dict order is then fixed)."""
    return str((seed * 2654435761 + 97) % 4294967296)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    wanted = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        # every process of the run (this one and any daemon) hashes alike
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    import common

    if args.workload == "serve-mixed":
        import servework

        summary, metrics, lines = servework.serve_mixed(args.seed, args.seconds, bool(args.trace))
    else:
        import ribwork

        run = ribwork.rib_fixpoint if args.workload == "rib-fixpoint" else ribwork.rib_patterns
        summary, metrics, lines = run(args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {entry['unit']}")
    correct = not summary["errors"]
    if not correct:
        print(f"CORRECTNESS FAILURES: {len(summary['errors'])}", file=sys.stderr)
    print(common.result_line(correct, summary["attempted"], summary["failed"], metrics),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

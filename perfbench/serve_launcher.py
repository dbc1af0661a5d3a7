"""Run ``repro serve`` with the perfbench tracer installed around its layers.

Usage (from the repository root)::

    python3 perfbench/serve_launcher.py --trace-out T.json --scope launch -- \
        serve --db DB --program-file P --wal W

The wrappers are installed before ``repro.cli.main`` starts the daemon,
so the daemon's request path is timed from outside the program.  On
SIGUSR1 the launcher writes everything recorded so far to ``--trace-out``
(atomically); the benchmark sends it before it kills the daemon.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--scope", default="launch")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import tracer as tracing
    from repro.cli import main as repro_main

    t = tracing.Tracer()
    tracing.install_library(t)
    tracing.install_serve(t)
    t.set_scope(args.scope)
    t.enabled = True
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: t.dump(args.trace_out, args.scope))
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())

"""Table 4 — running time of reachability analysis on RIB inputs.

The paper reports, for four RIB sizes, the per-query SQL time, Z3
(solver) time, and generated tuple counts for:

* q4–q5: recursive all-pairs reachability (SQL time only in the paper);
* q6: reachability under a 2-link-failure pattern;
* q7: a nested, endpoint-pinned query;
* q8: reachability with at-least-one-failure.

We reproduce the same measurements on the synthetic RIB at scaled-down
prefix counts.  Shapes to look for (paper vs ours):

* q4–q5 grows roughly linearly in #prefixes;
* q6/q8 touch every prefix → tuple counts and solver time scale with the
  input, with solver time dominating SQL time;
* q7 is pinned to one flow/endpoint pair → nearly flat.

Run: ``pytest benchmarks/bench_table4.py --benchmark-only``
or   ``python benchmarks/bench_table4.py`` for the paper's table layout
(``--jobs N`` fans the per-prefix q6–q8 queries across a worker pool;
the printed numbers are identical for every ``jobs`` value).
"""

import argparse
from typing import List

import pytest

from repro.engine.stats import EvalStats
from repro.network.reachability import PatternQuery, ReachabilityAnalyzer
from repro.solver.interface import ConditionSolver
from repro.workloads.failures import at_least_k_failures, exactly_k_failures

try:  # pytest run
    from .conftest import PREFIX_SIZES
except ImportError:  # python benchmarks/bench_table4.py
    from conftest import PREFIX_SIZES


def _fresh_analyzer(compiled, jobs: int = 1, fast_path: bool = True):
    solver = ConditionSolver(compiled.domains, fast_path=fast_path)
    return ReachabilityAnalyzer(compiled.database(), solver, per_flow=True, jobs=jobs)


def _pattern_queries(compiled, routes, kind: str) -> List[PatternQuery]:
    """The per-prefix q6/q7/q8-shaped queries, one list per query kind."""
    queries: List[PatternQuery] = []
    for route in routes:
        variables = list(compiled.variables_of(route.prefix))
        if len(variables) < 2:
            continue
        if kind == "q6":
            queries.append(
                PatternQuery(
                    exactly_k_failures(variables, len(variables) - 1),
                    name="T1",
                    flow=route.prefix,
                )
            )
        elif kind == "q7":
            queries.append(
                PatternQuery(
                    exactly_k_failures(variables, len(variables) - 1),
                    name="T2",
                    flow=route.prefix,
                    source=route.paths[0][0],
                    dest=route.paths[0][-1],
                )
            )
        else:  # q8
            queries.append(
                PatternQuery(
                    at_least_k_failures(variables, 1), name="T3", flow=route.prefix
                )
            )
    return queries


def _pattern_stats(analyzer, compiled, routes, kind: str, jobs: int = 1) -> EvalStats:
    """Run a q6/q7/q8-shaped query over every prefix; merge stats.

    ``jobs > 1`` fans the independent per-prefix queries across a worker
    pool via :meth:`ReachabilityAnalyzer.under_patterns`; the merged
    stats (and the result tables) are identical for every ``jobs``.
    """
    total = EvalStats()
    for _, stats in analyzer.under_patterns(
        _pattern_queries(compiled, routes, kind), jobs=jobs
    ):
        total.add(stats)
    return total


@pytest.mark.parametrize("prefixes", PREFIX_SIZES)
def test_q4_q5_recursion(benchmark, rib_workloads, prefixes):
    """q4–q5: all-pairs reachability via the recursive fixpoint."""
    routes, compiled = rib_workloads[prefixes]

    def run():
        analyzer = _fresh_analyzer(compiled)
        analyzer.compute()
        return analyzer

    analyzer = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["prefixes"] = prefixes
    benchmark.extra_info["sql_seconds"] = round(analyzer.stats.sql_seconds, 4)
    benchmark.extra_info["solver_seconds"] = round(analyzer.stats.solver_seconds, 4)
    benchmark.extra_info["tuples"] = analyzer.stats.tuples_generated


@pytest.mark.parametrize("prefixes", PREFIX_SIZES)
@pytest.mark.parametrize("query", ["q6", "q7", "q8"])
def test_failure_patterns(benchmark, rib_workloads, prefixes, query):
    """q6/q7/q8: failure-pattern queries nested over R."""
    routes, compiled = rib_workloads[prefixes]
    analyzer = _fresh_analyzer(compiled)
    analyzer.compute()  # R computed once, outside the measured region

    def run():
        return _pattern_stats(analyzer, compiled, routes, query)

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["prefixes"] = prefixes
    benchmark.extra_info["query"] = query
    benchmark.extra_info["sql_seconds"] = round(stats.sql_seconds, 4)
    benchmark.extra_info["solver_seconds"] = round(stats.solver_seconds, 4)
    benchmark.extra_info["tuples"] = stats.tuples_generated


def main(argv=None) -> None:
    """Print the paper's Table 4 layout for the scaled RIB sweep."""
    from repro.network.forwarding import compile_forwarding
    from repro.workloads.ribgen import RibConfig, generate_rib

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the q6/q7/q8 per-prefix fan-out (default 1)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help=f"prefix sizes to sweep (default {PREFIX_SIZES})",
    )
    args = parser.parse_args(argv)
    sizes = args.sizes or PREFIX_SIZES

    header = (
        f"{'#prefix':>8} | {'q4-q5 sql':>9} | "
        f"{'q6 sql':>7} {'q6 slv':>7} {'q6 #tup':>8} | "
        f"{'q7 sql':>7} {'q7 slv':>7} {'q7 #tup':>8} | "
        f"{'q8 sql':>7} {'q8 slv':>7} {'q8 #tup':>8}"
    )
    print("Table 4 (reproduced, scaled): reachability on RIB inputs")
    print(header)
    print("-" * len(header))
    for prefixes in sizes:
        routes = generate_rib(
            RibConfig(prefixes=prefixes, as_count=max(60, prefixes // 4), seed=20210610)
        )
        compiled = compile_forwarding(routes)
        analyzer = _fresh_analyzer(compiled, jobs=args.jobs)
        analyzer.compute()
        rec_sql = analyzer.stats.sql_seconds
        cells = [f"{prefixes:>8} | {rec_sql:>9.2f} |"]
        for query in ("q6", "q7", "q8"):
            stats = _pattern_stats(analyzer, compiled, routes, query, jobs=args.jobs)
            cells.append(
                f" {stats.sql_seconds:>7.2f} {stats.solver_seconds:>7.2f} "
                f"{stats.tuples_generated:>8} |"
            )
        print("".join(cells).rstrip("|"))


if __name__ == "__main__":
    main()

"""The two RIB workloads: rib-fixpoint and rib-patterns.

Both drive the public API in-process, single-threaded: ribgen makes a
150-prefix synthetic RIB, ``compile_forwarding`` turns it into the
per-flow F c-table, ``ReachabilityAnalyzer`` runs q4-q5 and the q6/q8
pattern queries.  Library calls go through module attributes so the
traced run's wrappers see them.
"""

from __future__ import annotations

import os
import random
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.ctable import worlds
from repro.ctable.terms import Constant
from repro.network import forwarding, reachability
from repro.solver import interface, memo
from repro.workloads import failures, ribgen

import common

PREFIXES = 150
AS_COUNT = 60
#: rib-fixpoint: cold fixpoints per second of --seconds (one takes ~1 s).
FIXPOINTS_PER_SECOND = 1.0
#: rib-patterns: RIBs per run, each set up just before its share of the
#: passes, so the set-up samples span the run (set-up time is their median).
PATTERN_RIBS = 6
#: rib-patterns: passes per second of --seconds (a pass takes ~0.4 s).
PASSES_PER_SECOND = 1.5
#: Flows checked against world enumeration per RIB.
CHECKED_FLOWS = 4


class Failures:
    """Counts failed ops; prints the first few tracebacks to stderr."""

    def __init__(self) -> None:
        self.failed = 0

    def record(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"op failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def make_rib(seed: int, index: int):
    """One seeded 150-prefix RIB compiled to the per-flow F c-table."""
    routes = ribgen.generate_rib(
        ribgen.RibConfig(prefixes=PREFIXES, as_count=AS_COUNT, seed=seed * 1009 + index)
    )
    return routes, forwarding.compile_forwarding(routes)


def fresh_solver(compiled):
    return interface.ConditionSolver(compiled.domains, memo=memo.MemoTable())


# -- the loss-less check ---------------------------------------------------------


def check_flow(compiled, flow: str, derived, pattern=None) -> Optional[str]:
    """World-enumeration oracle for one flow of a derived table (R, or T
    = R under ``pattern``); returns a mismatch or None."""
    d_rows = [tup for tup in derived if tup.values[0] == Constant(flow)]

    def got_pairs(assignment):
        rows = (worlds.instantiate_tuple(tup, assignment) for tup in d_rows)
        return {(row[1].value, row[2].value) for row in rows if row is not None}

    return common.check_worlds(compiled, flow, got_pairs, pattern=pattern)


def sample_flows(routes, rng: random.Random) -> List[str]:
    prefixes = [route.prefix for route in routes]
    return rng.sample(prefixes, min(CHECKED_FLOWS, len(prefixes)))


# -- rib-fixpoint -----------------------------------------------------------------


def fixpoint_op(compiled):
    """One op: a cold q4-q5 fixpoint with a fresh solver and private memo."""
    analyzer = reachability.ReachabilityAnalyzer(
        compiled.database(), fresh_solver(compiled), per_flow=True
    )
    return analyzer.compute()


def run_fixpoint_ops(seed: int, indices, tracer=None, deadline: float = float("inf")):
    """Run fixpoint ops on RIBs ``indices``; returns samples and checks."""
    out = {"latency": [], "setup": [], "tuples": 0, "busy": 0.0, "errors": [],
           "digest": common.Digest(), "attempted": 0}
    fails = Failures()
    for index in indices:
        if time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.begin_op(scope="setup")
        start = time.perf_counter()
        routes, compiled = make_rib(seed, index)
        out["setup"].append(time.perf_counter() - start)
        common.settle()
        out["attempted"] += 1
        if tracer is not None:
            tracer.begin_op(scope="op")
        start = time.perf_counter()
        try:
            table = fixpoint_op(compiled)
        except Exception:
            fails.record(f"fixpoint on RIB {index}")
            continue
        elapsed = time.perf_counter() - start
        out["latency"].append(elapsed)
        out["busy"] += elapsed
        out["tuples"] += len(table)
        if tracer is not None:
            tracer.set_scope("check")
        out["digest"].add(index, common.table_lines(table))
        rng = random.Random(seed * 7919 + index)
        for flow in sample_flows(routes, rng):
            problem = check_flow(compiled, flow, table)
            if problem:
                out["errors"].append(f"rib-fixpoint RIB {index}: {problem}")
    out["failed"] = fails.failed
    return out


def rib_fixpoint(seed: int, seconds: int, trace: bool) -> Tuple[dict, Dict, List[str]]:
    ops = max(3, round(FIXPOINTS_PER_SECOND * seconds))
    if trace:
        return _traced_fixpoint(seed, min(ops, 3))
    probes = [common.drift_probe()]
    res = run_fixpoint_ops(seed, range(ops), deadline=time.perf_counter() + 3 * seconds + 30)
    probes.append(common.drift_probe())
    lat_ms = [s * 1000 for s in res["latency"]]
    metrics = common.end_to_end(
        common.median(res["setup"]), lat_ms, res["tuples"] / res["busy"],
        len(lat_ms) / res["busy"], common.self_peak_rss_mb(),
    )
    lines = [
        f"rib-fixpoint: {len(lat_ms)} cold fixpoints over {PREFIXES}-prefix RIBs",
        common.summarize("fixpoint", lat_ms),
        f"  R tuples per op: {res['tuples'] / max(1, len(lat_ms)):.0f}",
        f"  host drift probe: {common.median(probes):.2f} ms",
        f"  digest rib-fixpoint {res['digest'].hexdigest()}",
    ]
    summary = {"attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"]}
    return summary, metrics, lines + res["errors"]


def _traced_fixpoint(seed: int, count: int):
    import tracer as tracing

    plain = run_fixpoint_ops(seed, range(count))
    t = tracing.Tracer()
    tracing.install_library(t)
    t.enabled = True
    try:
        traced = run_fixpoint_ops(seed, range(count), tracer=t)
    finally:
        t.uninstall()
    same = plain["digest"].hexdigest() == traced["digest"].hexdigest()
    return traced_result("rib-fixpoint", seed, t, plain, traced, same,
                         plain["errors"] + traced["errors"])


def traced_result(workload: str, seed: int, t, plain: dict, traced: dict, same_output: bool,
                  errors: List[str]):
    """Per-layer report of an in-process traced run, its trace file and checks."""
    import layers
    import tracer as tracing

    if not same_output:
        errors.append(f"{workload}: traced outputs differ from untraced outputs")
    bad = t.nesting_violations()
    if bad:
        errors.append(f"{workload}: {bad} child spans outside their parents")
    overhead = 100 * (common.median(traced["latency"]) / common.median(plain["latency"]) - 1)
    values = layers.library_metrics(t, "op", len(traced["latency"]), "setup")
    common.write_trace(workload, seed, tracing.chrome_events(t.spans, os.getpid(), workload))
    lines = [
        f"{workload} traced: {len(traced['latency'])} ops, tracing overhead {overhead:+.1f}%",
        f"  {len(t.spans)} kept spans, nesting violations: {bad}",
    ]
    summary = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": errors,
    }
    return summary, layers.report(values, t, overhead), lines + errors


# -- rib-patterns ------------------------------------------------------------------


def pattern_queries(routes, compiled, rng: random.Random) -> List[Tuple[str, str, object]]:
    """(flow, kind, pattern) for every multi-path prefix, in seeded order."""
    out = []
    order = list(routes)
    rng.shuffle(order)
    for i, route in enumerate(order):
        variables = list(compiled.variables_of(route.prefix))
        if len(variables) < 2:
            continue
        if i % 2 == 0:  # q6: exactly one path left up
            out.append((route.prefix, "q6",
                        failures.exactly_k_failures(variables, len(variables) - 1)))
        else:  # q8: at least one failure
            out.append((route.prefix, "q8", failures.at_least_k_failures(variables, 1)))
    return out


class PatternRib:
    """One set-up RIB: compiled F, the computed R, its query list."""

    def __init__(self, seed: int, index: int):
        self.routes, self.compiled = make_rib(seed, index)
        self.analyzer = reachability.ReachabilityAnalyzer(
            self.compiled.database(), fresh_solver(self.compiled), per_flow=True
        )
        self.analyzer.compute()
        self.queries = pattern_queries(self.routes, self.compiled, random.Random(seed * 31 + index))

    def run_pass(self, latencies: Optional[list] = None, sink=None) -> int:
        """One pass: a fresh solver and private memo, every query once."""
        self.analyzer.solver = fresh_solver(self.compiled)
        tuples = 0
        for flow, kind, pattern in self.queries:
            start = time.perf_counter()
            table, _ = self.analyzer.under_pattern(pattern, name=f"T_{kind}", flow=flow)
            elapsed = time.perf_counter() - start
            if latencies is not None:
                latencies.append(elapsed)
            tuples += len(table)
            if sink is not None:
                sink(flow, kind, pattern, table)
        return tuples


def setup_pattern_rib(seed: int, index: int, tracer=None) -> Tuple[PatternRib, float]:
    """Set up RIB ``index``: R and one warm-up pass; returns it and the seconds taken."""
    if tracer is not None:
        tracer.begin_op(scope="setup")
    start = time.perf_counter()
    rib = PatternRib(seed, index)
    rib.run_pass()  # warm-up: fills the process-level caches in solver.atoms
    elapsed = time.perf_counter() - start
    common.settle()
    return rib, elapsed


def check_patterns(seed: int, index: int, rib: PatternRib, digest: common.Digest) -> List[str]:
    """Digest one pass over the RIB and check sampled flows against the worlds."""
    errors = []
    checked = set(sample_flows(rib.routes, random.Random(seed * 7919 + index)))

    def sink(flow, kind, pattern, table):
        digest.add(index, flow, kind, common.table_lines(table))
        if flow in checked:
            problem = check_flow(rib.compiled, flow, table, pattern)
            if problem:
                errors.append(f"rib-patterns RIB {index} {kind}: {problem}")

    rib.run_pass(sink=sink)
    return errors


def run_passes(rib: PatternRib, passes: int, tracer=None, deadline: float = float("inf")):
    fails = Failures()
    out = {"latency": [], "tuples": 0, "busy": 0.0, "attempted": 0}
    for p in range(passes):
        if time.perf_counter() > deadline:
            break
        if tracer is not None:
            tracer.begin_op(scope="op")
        before = len(out["latency"])
        out["attempted"] += len(rib.queries)
        start = time.perf_counter()
        try:
            out["tuples"] += rib.run_pass(out["latency"])
        except Exception:
            fails.record(f"pattern pass {p}")
            done = len(out["latency"]) - before
            fails.failed += len(rib.queries) - done - 1
        out["busy"] += time.perf_counter() - start
    out["failed"] = fails.failed
    return out


def rib_patterns(seed: int, seconds: int, trace: bool):
    passes = max(PATTERN_RIBS, round(PASSES_PER_SECOND * seconds))
    if trace:
        return _traced_patterns(seed)
    probes = [common.drift_probe()]
    deadline = time.perf_counter() + 3 * seconds + 30
    res = {"latency": [], "tuples": 0, "busy": 0.0, "attempted": 0, "failed": 0}
    setups, errors, digest = [], [], common.Digest()
    for index in range(PATTERN_RIBS):
        if setups and time.perf_counter() > deadline:
            break
        rib, elapsed = setup_pattern_rib(seed, index)
        setups.append(elapsed)
        share = passes // PATTERN_RIBS + (index < passes % PATTERN_RIBS)
        for key, value in run_passes(rib, share, deadline=deadline).items():
            res[key] += value
        errors += check_patterns(seed, index, rib, digest)
    probes.append(common.drift_probe())
    lat_ms = [s * 1000 for s in res["latency"]]
    metrics = common.end_to_end(
        common.median(setups), lat_ms, res["tuples"] / res["busy"],
        len(lat_ms) / res["busy"], common.self_peak_rss_mb(),
    )
    lines = [
        f"rib-patterns: {len(lat_ms)} q6/q8 pattern queries over {len(setups)} "
        f"{PREFIXES}-prefix RIBs ({passes} passes)",
        common.summarize("pattern query", lat_ms),
        f"  host drift probe: {common.median(probes):.2f} ms",
        f"  digest rib-patterns {digest.hexdigest()}",
    ]
    summary = {"attempted": res["attempted"], "failed": res["failed"], "errors": errors}
    return summary, metrics, lines + errors


def _traced_patterns(seed: int):
    import tracer as tracing

    rib, _ = setup_pattern_rib(seed, 0)
    plain = run_passes(rib, 2)
    plain_digest = common.Digest()
    errors = check_patterns(seed, 0, rib, plain_digest)
    t = tracing.Tracer()
    tracing.install_library(t)
    t.enabled = True
    try:
        rib, _ = setup_pattern_rib(seed, 0, tracer=t)
        traced = run_passes(rib, 2, tracer=t)
        t.enabled = False
        traced_digest = common.Digest()
        errors += check_patterns(seed, 0, rib, traced_digest)
    finally:
        t.uninstall()
    same = plain_digest.hexdigest() == traced_digest.hexdigest()
    return traced_result("rib-patterns", seed, t, plain, traced, same, errors)

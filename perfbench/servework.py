"""The serve-mixed workload: a real ``repro serve`` daemon under a 1:3 write/read loop.

One driver thread holds one ingest connection and one query connection
to a daemon started from the command line, exactly as an operator would
run it (default flush policy: fsync before every apply; threshold
compaction with ``--compact-every``).  Writes are removable route
announcements that extend a flow (every third carries a link-state
condition) and withdrawals of the oldest live announcement.  Reads ask
for R filtered by a ``$``-c-variable condition, with a ``limit``.

Withdrawn rows stay resident and every query re-substitutes the guard
assignments into every resident row, so read cost grows with the whole
write history.  The run keeps that churn on purpose and reports the
resident R rows at its start and end.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.ctable import io as ctable_io
from repro.ctable.condition import TRUE
from repro.ctable.parse import parse_condition
from repro.ctable.terms import Constant
from repro.network import forwarding
from repro.serve.client import ServeClient
from repro.workloads import ribgen

import common

PROGRAM = "R(f, n1, n2) :- F(f, n1, n2).\nR(f, n1, n2) :- F(f, n1, n3), R(f, n3, n2).\n"
SERVE_PREFIXES = 40
AS_COUNT = 60
SEED_RIB = 20210610
COMPACT_EVERY = 10
#: 1 write + 3 reads per cycle; cycles per second of --seconds.
CYCLES_PER_SECOND = 2.5
READS_PER_CYCLE = 3
QUERY_LIMIT = 20
#: Launches per run, half before the loop (the last of those serves it)
#: and half after it, so the samples span the run; set-up time is their
#: median.
SETUP_LAUNCHES = 6
#: Flows that receive announcements (the world check samples one).
ANNOUNCED_FLOWS = 6
#: Cycles of each phase of a traced run.
TRACED_CYCLES = 30
READY_TIMEOUT = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Plan:
    """The seeded inputs: seed database, write and read streams."""

    def __init__(self, seed: int):
        self.seed = seed
        # One fixed seed RIB (the repo's route-views date): the workload
        # seed drives the write and read streams, so launch work and the
        # starting state are the same in every run.
        self.routes = ribgen.generate_rib(
            ribgen.RibConfig(prefixes=SERVE_PREFIXES, as_count=AS_COUNT, seed=SEED_RIB)
        )
        self.compiled = forwarding.compile_forwarding(self.routes)
        self.db_text = ctable_io.dump_database(self.compiled.database(), self.compiled.domains)
        self.index = {route.prefix: i for i, route in enumerate(self.routes)}
        rng = random.Random(seed)
        self.flows = rng.sample([r.prefix for r in self.routes], ANNOUNCED_FLOWS)
        self.rng = random.Random(seed * 13 + 1)
        # Every read names a filter no earlier read used: a repeated
        # filter is answered from the solver memo, which would split the
        # read latency into two modes with the median between them.
        self.filters = [
            f"$u{i}_{k} == {v}"
            for i, route in enumerate(self.routes)
            for k in range(len(route.paths))
            for v in (0, 1)
        ]
        rng.shuffle(self.filters)
        self.reads = 0

    def announcement(self, k: int) -> Tuple[str, List[str], Optional[str]]:
        flow = self.flows[self.rng.randrange(len(self.flows))]
        i = self.index[flow]
        origin = self.routes[i].paths[0][-1]
        condition = f"$u{i}_0 == 1" if k % 3 == 0 else None
        return flow, [flow, origin, f"X{k}"], condition

    def read_filter(self) -> str:
        where = self.filters[self.reads % len(self.filters)]
        self.reads += 1
        return where


class Daemon:
    """One daemon process: launch to ready line, signals, shutdown."""

    def __init__(self, argv: List[str], log_path: str, fleet: List["Daemon"]):
        self.argv = argv
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        fleet.append(self)  # the run kills every daemon it started, whatever happens

    def start(self) -> float:
        """Launch and wait for the ready line; returns seconds to ready."""
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        log = open(self.log_path, "ab")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log
            )
        finally:
            log.close()
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
        if not line:
            self.kill()
            raise RuntimeError(f"daemon did not print its ready line: {self.argv}")
        serving = json.loads(line)["serving"]
        self.address = (serving["host"], int(serving["port"]))
        return elapsed

    @property
    def pid(self) -> int:
        return self.proc.pid

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """Graceful stop (SIGTERM), escalating to SIGKILL."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        """SIGKILL (if still running) and reap; safe to call twice."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def kill_all(fleet: List[Daemon]) -> None:
    for daemon in fleet:
        daemon.kill()


def plain_argv(db: str, program: str, wal: str) -> List[str]:
    return [sys.executable, "-m", "repro", "serve", "--db", db, "--program-file", program,
            "--wal", wal, "--compact-every", str(COMPACT_EVERY)]


def traced_argv(db: str, program: str, wal: str, trace_out: str, scope: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, "serve_launcher.py"), "--trace-out", trace_out,
            "--scope", scope, "--"] + plain_argv(db, program, wal)[3:]


class Loop:
    """The closed loop: one ingest and one query connection, one thread."""

    def __init__(self, plan: Plan, address: Tuple[str, int]):
        self.plan = plan
        self.address = address
        self.ingest = ServeClient(*address).connect()
        self.reader = ServeClient(*address).connect()
        self.ingest.features()  # negotiate before the first timed write
        self.update_lat: List[float] = []
        self.query_lat: List[float] = []
        self.derived = 0
        self.attempted = 0
        self.failed = 0
        self.live: List[Tuple[str, str]] = []  # (guard, flow) of live announcements
        self.acked: Dict[str, dict] = {}  # guard -> announcement
        self.writes = 0

    def close(self) -> None:
        self.ingest.close()
        self.reader.close()

    def _request(self, client_name: str, call) -> Optional[dict]:
        self.attempted += 1
        try:
            return call(getattr(self, client_name))
        except (ConnectionError, OSError, ValueError) as exc:
            self.failed += 1
            print(f"request failed ({exc}); reconnecting", file=sys.stderr)
            getattr(self, client_name).close()
            setattr(self, client_name, ServeClient(*self.address))
            return None

    def write(self) -> None:
        k = self.writes
        self.writes += 1
        if k % 3 == 2 and self.live:
            guard, _ = self.live[0]
            start = time.perf_counter()
            resp = self._request("ingest", lambda c: c.withdraw(guard, txid=f"w{k}"))
            elapsed = time.perf_counter() - start
            if resp is None:
                return
            if not resp.get("ok"):
                self.failed += 1
                return
            self.update_lat.append(elapsed)
            self.live.pop(0)
            self.acked[guard]["withdrawn"] = True
            return
        flow, values, condition = self.plan.announcement(k)
        start = time.perf_counter()
        resp = self._request(
            "ingest",
            lambda c: c.update("F", values, condition=condition, removable=True, txid=f"a{k}"),
        )
        elapsed = time.perf_counter() - start
        if resp is None:
            return
        if not resp.get("ok") or "guard" not in resp:
            self.failed += 1
            return
        self.update_lat.append(elapsed)
        self.derived += int(resp.get("derived") or 0)
        guard = resp["guard"]
        self.live.append((guard, flow))
        self.acked[guard] = {"flow": flow, "values": values, "condition": condition,
                             "withdrawn": False}

    def read(self) -> None:
        where = self.plan.read_filter()
        start = time.perf_counter()
        resp = self._request("reader", lambda c: c.query("R", where=where, limit=QUERY_LIMIT))
        elapsed = time.perf_counter() - start
        if resp is None:
            return
        # INCONCLUSIVE without budgets, a typed error, or an over-long
        # answer all count as failures
        if (not resp.get("ok") or resp.get("status") != "OK"
                or len(resp.get("rows", ())) > QUERY_LIMIT):
            self.failed += 1
            return
        self.query_lat.append(elapsed)

    def run(self, cycles: int, deadline: float = float("inf")) -> float:
        start = time.perf_counter()
        for _ in range(cycles):
            if time.perf_counter() > deadline:
                break
            self.write()
            for _ in range(READS_PER_CYCLE):
                self.read()
        return time.perf_counter() - start


def rows_only(resp: dict) -> str:
    keep = ("relation", "schema", "status", "rows", "total")
    return json.dumps({k: resp.get(k) for k in keep}, sort_keys=True)


def projection(address: Tuple[str, int]) -> dict:
    with ServeClient(*address) as client:
        return client.request({"op": "query", "relation": "R"}, bulk=True)


def resident_rows(address: Tuple[str, int]) -> int:
    with ServeClient(*address) as client:
        return int(client.health()["relations"]["R"])


def check_worlds(plan: Plan, loop: Loop, answer: dict) -> Optional[str]:
    """The final state of one announced flow against world enumeration.

    Expected: in every world over the flow's path variables, the plain
    transitive closure of (seed F rows + acked, not withdrawn
    announcements whose condition holds) equals the daemon's R rows for
    that flow, with live guards set to 1.
    """
    rng = random.Random(plan.seed * 7 + 3)
    touched = sorted({info["flow"] for info in loop.acked.values()})
    if not touched:
        return "no announcement was acked"
    flow = rng.choice(touched)
    announced = [
        (info["values"][1], info["values"][2],
         parse_condition(info["condition"]) if info["condition"] else TRUE)
        for info in loop.acked.values()
        if info["flow"] == flow and not info["withdrawn"]
    ]
    got_rows = []
    for row in answer["rows"]:
        values = [ctable_io.term_from_obj(v) for v in row["values"]]
        if values[0] != Constant(flow):
            continue
        cond = ctable_io.condition_from_obj(row["condition"]) if "condition" in row else TRUE
        got_rows.append((values[1].value, values[2].value, cond))
    guards = {v: Constant(1) for _, _, c in got_rows for v in c.cvariables()
              if v.name.startswith("__g")}

    def got_pairs(assignment):
        full = dict(assignment)
        full.update(guards)
        return {(a, b) for a, b, cond in got_rows if cond.evaluate(full)}

    return common.check_worlds(plan.compiled, flow, got_pairs, extra_edges=announced)


class Workdir:
    """A scratch directory inside the checkout (disk, not tmpfs)."""

    def __init__(self, tag: str):
        self.path = os.path.join(HERE, "out", f"work-{os.getpid()}-{tag}")

    def __enter__(self) -> "Workdir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)


def _write_inputs(plan: Plan, work: Workdir) -> Tuple[str, str]:
    db, program = work.file("seed.json"), work.file("program.fl")
    with open(db, "w", encoding="utf-8") as handle:
        handle.write(plan.db_text)
    with open(program, "w", encoding="utf-8") as handle:
        handle.write(PROGRAM)
    return db, program


def _finish(plan, loop, daemon, make_restart, errors, before_stop=None) -> Dict[str, float]:
    """Live projection, SIGKILL, restart on the same WAL, compare.

    ``before_stop(restarted)`` runs just before the restarted daemon is
    stopped (the traced run collects its trace there).
    """
    end_rows = resident_rows(daemon.address)
    live = rows_only(projection(daemon.address))
    rss = common.pid_peak_rss_mb(daemon.pid)
    if rss is None:
        errors.append("serve-mixed: could not read the daemon's peak RSS (VmHWM)")
    loop.close()
    daemon.kill()
    restarted = make_restart()
    recover_s = restarted.start()
    try:
        answer = projection(restarted.address)
        if rows_only(answer) != live:
            errors.append("serve-mixed: restarted daemon's R differs from the live daemon's")
        problem = check_worlds(plan, loop, answer)
        if problem:
            errors.append(f"serve-mixed world check: {problem}")
    finally:
        try:
            if before_stop is not None:
                before_stop(restarted)
        finally:
            restarted.stop()
    return {"end_rows": end_rows, "recover_s": recover_s, "rss_mb": rss, "live": live}


def _launch_only(db: str, program: str, work: Workdir, fleet: List[Daemon], tag: str) -> float:
    """One set-up sample: launch a daemon on a fresh WAL, time it to ready, stop it."""
    daemon = Daemon(plain_argv(db, program, work.file(f"launch-{tag}.wal")),
                    work.file("daemon.log"), fleet)
    elapsed = daemon.start()
    daemon.stop()
    return elapsed


def serve_mixed(seed: int, seconds: int, trace: bool):
    plan = Plan(seed)
    if trace:
        return _traced(plan)
    errors: List[str] = []
    probes = [common.drift_probe()]
    cycles = max(10, round(CYCLES_PER_SECOND * seconds))
    fleet: List[Daemon] = []
    with Workdir("run") as work:
        db, program = _write_inputs(plan, work)
        try:
            setups = [_launch_only(db, program, work, fleet, f"pre{i}")
                      for i in range(SETUP_LAUNCHES // 2 - 1)]
            wal = work.file("run.wal")
            daemon = Daemon(plain_argv(db, program, wal), work.file("daemon.log"), fleet)
            setups.append(daemon.start())
            start_rows = resident_rows(daemon.address)
            loop = Loop(plan, daemon.address)
            busy = loop.run(cycles, deadline=time.perf_counter() + 3 * seconds + 30)
            probes.append(common.drift_probe())
            end = _finish(plan, loop, daemon,
                          lambda: Daemon(plain_argv(db, program, wal), work.file("daemon.log"),
                                         fleet),
                          errors)
            setups += [_launch_only(db, program, work, fleet, f"post{i}")
                       for i in range(SETUP_LAUNCHES - len(setups))]
        finally:
            kill_all(fleet)
    upd_ms = [s * 1000 for s in loop.update_lat]
    qry_ms = [s * 1000 for s in loop.query_lat]
    digest = common.Digest()
    digest.add(end["live"])
    metrics = common.end_to_end(
        common.median(setups), qry_ms, loop.derived / sum(loop.update_lat),
        len(qry_ms) / busy, end["rss_mb"],
    )
    lines = [
        f"serve-mixed: {loop.writes} writes + {len(qry_ms)} filtered reads "
        f"(1:{READS_PER_CYCLE} cycle), compact every {COMPACT_EVERY}",
        common.summarize("update ack (update_p50/p90_ms)", upd_ms),
        common.summarize("filtered read (query_p50/p90_ms)", qry_ms),
        f"  recover_s: {end['recover_s']:.3f} s (SIGKILL, restart on the same WAL to ready)",
        f"  resident R rows: start {start_rows}, end {end['end_rows']}",
        f"  error_rate: {loop.failed}/{loop.attempted}",
        f"  host drift probe: {common.median(probes):.2f} ms",
        f"  digest serve-mixed {digest.hexdigest()}",
    ]
    summary = {"attempted": loop.attempted, "failed": loop.failed, "errors": errors}
    return summary, metrics, lines + errors


def _await_file(path: str, timeout: float = 60.0) -> dict:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        time.sleep(0.02)
    raise RuntimeError(f"traced daemon did not write {path}")


def _traced(plan: Plan):
    import layers
    import tracer as tracing

    errors: List[str] = []
    fleet: List[Daemon] = []
    dumps = {}
    with Workdir("trace") as work:
        db, program = _write_inputs(plan, work)
        log = work.file("daemon.log")
        try:
            # untraced phase: the same cycles against a plain daemon
            plain = Daemon(plain_argv(db, program, work.file("plain.wal")), log, fleet)
            plain.start()
            plain_loop = Loop(plan, plain.address)
            plain_loop.run(TRACED_CYCLES)
            plain_live = rows_only(projection(plain.address))
            plain_loop.close()
            plain.stop()
            plan = Plan(plan.seed)  # the traced phase replays the same streams
            wal = work.file("traced.wal")
            live_out, restart_out = work.file("live-trace.json"), work.file("restart-trace.json")
            daemon = Daemon(traced_argv(db, program, wal, live_out, "launch"), log, fleet)
            daemon.start()
            loop = Loop(plan, daemon.address)
            loop.run(TRACED_CYCLES)
            daemon.signal(signal.SIGUSR1)
            live_dump = _await_file(live_out)

            def restart() -> Daemon:
                return Daemon(traced_argv(db, program, wal, restart_out, "restart"), log, fleet)

            def collect(restarted: Daemon) -> None:
                restarted.signal(signal.SIGUSR1)
                dumps["restart"] = _await_file(restart_out)

            end = _finish(plan, loop, daemon, restart, errors, before_stop=collect)
            if end["live"] != plain_live:
                errors.append("serve-mixed: traced daemon's R differs from the untraced daemon's")
        finally:
            kill_all(fleet)
    merged, replay = tracing.Tracer(), tracing.Tracer()
    merged.absorb(live_dump)
    # only the restart's replay: its requests are the end-of-run checks
    replay.absorb(dumps["restart"])
    values = layers.library_metrics(merged, "read", len(loop.query_lat), "launch")
    values.update(layers.serve_metrics(merged, replay, end["end_rows"]))
    bad = merged.nesting_violations() + replay.nesting_violations()
    if bad:
        errors.append(f"serve-mixed: {bad} child spans outside their parents")
    events = []
    for dump in (live_dump, dumps["restart"]):
        label = f"serve daemon ({dump['label']})"
        events += tracing.chrome_events(dump["spans"], dump["pid"], label)
    common.write_trace("serve-mixed", plan.seed, events)
    q_over = 100 * (common.median(loop.query_lat) / common.median(plain_loop.query_lat) - 1)
    u_over = 100 * (common.median(loop.update_lat) / common.median(plain_loop.update_lat) - 1)
    lines = [
        f"serve-mixed traced: {TRACED_CYCLES} cycles per phase; tracing overhead "
        f"read {q_over:+.1f}%, write {u_over:+.1f}%",
        f"  {len(merged.spans) + len(replay.spans)} kept spans, nesting violations: {bad}",
        f"  resident R rows at end: {end['end_rows']}",
    ]
    summary = {
        "attempted": plain_loop.attempted + loop.attempted,
        "failed": plain_loop.failed + loop.failed,
        "errors": errors,
    }
    return summary, layers.report(values, merged, q_over), lines + errors

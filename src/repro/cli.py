"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``rib generate``
    Synthesize a route-views-like RIB dump (the §6 workload).
``rib analyze``
    Compile a RIB dump into the forwarding c-table and run the q4/q5
    all-pairs reachability analysis, reporting the Table 4 row.
``query``
    Run a fauré-log program (file or inline) against a c-table database
    stored in the JSON interchange format of :mod:`repro.ctable.io`.
``verify``
    Run the relative-complete verification ladder on constraint files,
    optionally with an update (``+Pred(a,b)`` / ``-Pred(a,b)`` specs)
    and/or a state database.
``lint``
    Static analysis of fauré-log files: typed ``F0xx`` diagnostics with
    source spans, ``--select``/``--ignore`` code filters, text or JSON
    output, and in-file ``% edb:`` / ``% outputs:`` pragmas.  Exit code
    1 when any error-severity finding survives filtering.
``examples``
    List the bundled example scripts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .ctable.io import dump_database, load_database
from .ctable.parse import ParseError, TokenStream, parse_term, tokenize
from .ctable.terms import Constant
from .engine.stats import EvalStats
from .faurelog.evaluation import evaluate
from .faurelog.parser import parse_program
from .faurelog.rewrite import Deletion, Insertion
from .network.forwarding import compile_forwarding
from .network.reachability import ReachabilityAnalyzer
from .robustness.checkpoint import CheckpointJournal, fingerprint_of
from .robustness.errors import (
    BudgetExceeded,
    CheckpointError,
    ConditionTooLarge,
    FaureError,
    SolverFailure,
)
from .robustness.governor import Governor, ON_BUDGET_MODES
from .solver.interface import SHARED_MEMO, ConditionSolver
from .verify.constraints import Constraint
from .verify.verifier import RelativeCompleteVerifier
from .workloads.ribgen import RibConfig, dump_rib, generate_rib, parse_rib

__all__ = ["main", "parse_update_spec", "parse_lint_pragmas"]

# Distinct exit codes so scripts can tell failure classes apart:
#   2 — parse/usage errors (bad program text, malformed specs, missing files,
#       checkpoint fingerprint mismatches)
#   3 — a resource budget or deadline ran out (``--on-budget fail``)
#   4 — a solver routine failed outright
#   6 — the serve daemon failed: could not bind its endpoint, or the ingest
#       thread hit an infrastructure failure it could not recover from
#       (the WAL remains authoritative for the next start)
EXIT_PARSE_ERROR = 2
EXIT_BUDGET = 3
EXIT_SOLVER_FAILURE = 4
EXIT_SERVE_FAILURE = 6


def _add_governor_args(parser: argparse.ArgumentParser) -> None:
    """Resource-governance knobs shared by the query-running commands."""
    group = parser.add_argument_group("resource governance")
    group.add_argument(
        "--deadline",
        type=float,
        help="per-query wall-clock deadline in seconds",
    )
    group.add_argument(
        "--solver-budget",
        type=int,
        help="maximum number of solver calls per query",
    )
    group.add_argument(
        "--solver-steps",
        type=int,
        help="cooperative step budget per solver call",
    )
    group.add_argument(
        "--max-condition-atoms",
        type=int,
        help="refuse conditions with more atoms than this",
    )
    group.add_argument(
        "--on-budget",
        choices=ON_BUDGET_MODES,
        default="degrade",
        help="on budget exhaustion: degrade soundly (default) or fail",
    )
    parser.add_argument(
        "--no-memo",
        action="store_true",
        help="disable the shared canonical-form verdict memoization",
    )
    parser.add_argument(
        "--no-fast-path",
        action="store_true",
        help="disable the interval/atom semi-decision fast path (every "
        "solver decision routes to enumeration/DPLL; verdicts identical)",
    )


def _memo_from_args(args):
    """``memo=`` argument for ConditionSolver honoring ``--no-memo``."""
    return None if getattr(args, "no_memo", False) else SHARED_MEMO


def _fast_path_from_args(args) -> bool:
    """``fast_path=`` argument honoring ``--no-fast-path``."""
    return not getattr(args, "no_fast_path", False)


def _governor_from_args(args) -> Optional[Governor]:
    """Build (and arm) a governor when any knob was supplied."""
    knobs = (
        getattr(args, "deadline", None),
        getattr(args, "solver_budget", None),
        getattr(args, "solver_steps", None),
        getattr(args, "max_condition_atoms", None),
    )
    if all(k is None for k in knobs):
        return None
    governor = Governor(
        deadline_seconds=args.deadline,
        solver_call_budget=args.solver_budget,
        steps_per_call=args.solver_steps,
        max_condition_atoms=args.max_condition_atoms,
        on_budget=args.on_budget,
    )
    governor.start()
    return governor


def _open_checkpoint(args, *fingerprint_parts: Optional[str]):
    """Open ``--checkpoint`` (when given) against the inputs' fingerprint."""
    path = getattr(args, "checkpoint", None)
    if not path:
        return None
    return CheckpointJournal.open(path, fingerprint_of(*fingerprint_parts))


def _close_checkpoint(checkpoint) -> None:
    """Summarize (to stderr — stdout stays byte-identical on resume)."""
    if checkpoint is None:
        return
    print(
        f"-- checkpoint: {checkpoint.replayed} unit(s) replayed, "
        f"{checkpoint.recorded} recorded -> {checkpoint.path}",
        file=sys.stderr,
    )
    checkpoint.close()


def _report_governor(governor: Optional[Governor]) -> None:
    if governor is None:
        return
    events = governor.events
    if events.budget_hits or events.unknown_verdicts or events.condition_rejections:
        print(
            f"-- governor: {events.unknown_verdicts} unknown verdict(s), "
            f"{events.budget_hits} budget hit(s), "
            f"{events.fallbacks} fallback(s), "
            f"{events.condition_rejections} oversized condition(s)"
        )


def parse_update_spec(spec: str):
    """Parse ``+Pred(v1, v2)`` / ``-Pred(v1, _, v3)`` into an operation."""
    spec = spec.strip()
    if not spec or spec[0] not in "+-":
        raise ValueError(f"update spec must start with + or -: {spec!r}")
    insert = spec[0] == "+"
    body = spec[1:].strip()
    open_paren = body.find("(")
    if open_paren < 0 or not body.endswith(")"):
        raise ValueError(f"malformed update spec {spec!r}")
    predicate = body[:open_paren].strip()
    inner = body[open_paren + 1:-1]
    values = []
    for cell in inner.split(","):
        cell = cell.strip()
        if cell == "_":
            if insert:
                raise ValueError("wildcards are only allowed in deletions")
            values.append(None)
            continue
        stream = TokenStream(tokenize(cell), cell)
        term = parse_term(stream, resolve_ident=lambda n: Constant(n))
        values.append(term)
    if insert:
        return Insertion(predicate, tuple(values))
    return Deletion(predicate, tuple(values))


def _cmd_rib_generate(args) -> int:
    config = RibConfig(
        prefixes=args.prefixes,
        paths_per_prefix=args.paths,
        as_count=args.ases,
        seed=args.seed,
    )
    routes = generate_rib(config)
    text = dump_rib(routes)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {len(routes)} prefixes to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_rib_analyze(args) -> int:
    rib_text = Path(args.rib).read_text()
    routes = parse_rib(rib_text)
    compiled = compile_forwarding(routes)
    governor = _governor_from_args(args)
    memo = _memo_from_args(args)
    solver = ConditionSolver(
        compiled.domains,
        governor=governor,
        memo=memo,
        fast_path=_fast_path_from_args(args),
    )
    checkpoint = _open_checkpoint(
        args, "rib-analyze", rib_text, "patterns" if args.patterns else None
    )
    if checkpoint is not None and solver.memo is not None:
        # Replay journaled definite verdicts, then stream new ones.
        checkpoint.attach(solver.memo, compiled.domains)
    analyzer = ReachabilityAnalyzer(
        compiled.database(), solver, per_flow=True, checkpoint=checkpoint
    )
    try:
        reach = analyzer.compute()
        print(f"prefixes:       {len(routes)}")
        print(f"F entries:      {len(compiled.table)}")
        print(f"R tuples:       {len(reach)}")
        if args.patterns:
            from .workloads.failures import at_least_k_failures

            for route in routes:
                variables = list(compiled.variables_of(route.prefix))
                if len(variables) < 2:
                    continue
                table, _stats = analyzer.under_pattern(
                    at_least_k_failures(variables, 1), name="T3", flow=route.prefix
                )
                print(f"pattern {route.prefix}: {len(table)} tuple(s)")
        stats = analyzer.stats
        print(f"sql seconds:    {stats.sql_seconds:.3f}")
        print(f"solver seconds: {stats.solver_seconds:.3f}")
        _report_governor(governor)
    finally:
        _close_checkpoint(checkpoint)
    return 0


def _cmd_query(args) -> int:
    db, domains = load_database(Path(args.db).read_text())
    if args.program_file:
        text = Path(args.program_file).read_text()
    else:
        text = args.program
    program = parse_program(text)
    governor = _governor_from_args(args)
    solver = ConditionSolver(
        domains,
        governor=governor,
        memo=_memo_from_args(args),
        fast_path=_fast_path_from_args(args),
    )
    stats = EvalStats()
    result = evaluate(program, db, solver=solver, stats=stats)
    names = [args.output] if args.output else sorted(result.names())
    for name in names:
        print(result.table(name).pretty(max_rows=args.limit))
        print()
    status = " [PARTIAL: budget exhausted]" if stats.partial_results else ""
    print(
        f"-- {stats.tuples_generated} tuples derived "
        f"(sql {stats.sql_seconds:.3f}s, solver {stats.solver_seconds:.3f}s, "
        f"{stats.unknown_kept} kept-unknown){status}"
    )
    _report_governor(governor)
    return 0


def _cmd_verify(args) -> int:
    targets = [
        Constraint(Path(p).stem, parse_program(Path(p).read_text()))
        for p in args.target
    ]
    known = [
        Constraint(Path(p).stem, parse_program(Path(p).read_text()))
        for p in args.known
    ]
    update = [parse_update_spec(s) for s in args.update] if args.update else None
    state = None
    domains = None
    if args.db:
        state, domains = load_database(Path(args.db).read_text())
    from .solver.domains import DomainMap, Unbounded

    governor = _governor_from_args(args)
    memo = _memo_from_args(args)
    effective_domains = (
        domains if domains is not None else DomainMap(default=Unbounded("any"))
    )
    solver = ConditionSolver(
        effective_domains,
        governor=governor,
        memo=memo,
        fast_path=_fast_path_from_args(args),
    )
    checkpoint = _open_checkpoint(
        args,
        "verify",
        *[Path(p).read_text() for p in args.target],
        *[Path(p).read_text() for p in args.known],
        *(args.update or []),
        Path(args.db).read_text() if args.db else None,
    )
    if checkpoint is not None and solver.memo is not None:
        checkpoint.attach(solver.memo, effective_domains)
    verifier = RelativeCompleteVerifier(known, solver)
    try:
        verdicts = verifier.verify_many(
            targets, update=update, state=state, checkpoint=checkpoint
        )
        for target, verdict in zip(targets, verdicts):
            print(f"{target.name}: {verdict}")
            for step in verdict.trail:
                print(f"  {step}")
        _report_governor(governor)
    finally:
        _close_checkpoint(checkpoint)
    return 0 if all(v.ok for v in verdicts) else 1


def _cmd_sql(args) -> int:
    from .engine.sql import SqlEngine
    from .solver.domains import DomainMap, Unbounded

    if args.db:
        db, domains = load_database(Path(args.db).read_text())
    else:
        from .ctable.table import Database

        db, domains = Database(), DomainMap(default=Unbounded("any"))
    governor = _governor_from_args(args)
    memo = _memo_from_args(args)
    statements = (
        Path(args.script).read_text() if args.script else " ".join(args.statement)
    )
    checkpoint = _open_checkpoint(
        args,
        "sql",
        statements,
        Path(args.db).read_text() if args.db else None,
    )
    solver = ConditionSolver(
        domains,
        governor=governor,
        memo=memo,
        fast_path=_fast_path_from_args(args),
    )
    if checkpoint is not None and solver.memo is not None:
        # The SQL path checkpoints at memo granularity: every definite
        # verdict the pruner computes is durable, so a resumed
        # script replays them instead of re-solving.
        checkpoint.attach(solver.memo, domains)
    engine = SqlEngine(db, solver=solver)
    try:
        result = engine.script(statements)
        if result is not None:
            print(result.pretty(max_rows=args.limit))
        if args.save:
            Path(args.save).write_text(dump_database(db, domains))
            print(f"saved database to {args.save}")
    finally:
        _close_checkpoint(checkpoint)
    return 0


#: ``% key: values`` pragma lines recognised at the top of lint inputs.
_LINT_PRAGMAS = ("edb", "outputs", "size", "lint-ignore")


def parse_lint_pragmas(text: str) -> dict:
    """Extract lint directives from ``%`` comment lines.

    Recognised forms (anywhere in the file, one per line)::

        % edb: R Fw Lb          declared stored relations
        % outputs: panic        output predicates for reachability
        % size: R 5000          row-count hint for cost estimates
        % lint-ignore: F007     per-file ignored diagnostic codes

    Returns ``{"edb": [...], "outputs": [...], "sizes": {...},
    "ignore": [...]}`` with empty defaults.
    """
    import re

    out = {"edb": [], "outputs": [], "sizes": {}, "ignore": []}
    pattern = re.compile(
        r"^\s*%\s*(" + "|".join(_LINT_PRAGMAS) + r")\s*:\s*(.*?)\s*$"
    )
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        key, rest = match.group(1), match.group(2).split()
        if key == "edb":
            out["edb"].extend(rest)
        elif key == "outputs":
            out["outputs"].extend(rest)
        elif key == "lint-ignore":
            out["ignore"].extend(rest)
        elif key == "size":
            if len(rest) != 2:
                raise ValueError(
                    f"malformed size pragma (want '% size: Pred N'): {line.strip()!r}"
                )
            out["sizes"][rest[0]] = int(rest[1])
    return out


def _cmd_lint(args) -> int:
    from .analysis import (
        Severity,
        analyze_text,
        render_json,
        render_sarif,
        render_text,
    )

    findings = []
    parse_failed = False
    for path in args.programs:
        text = Path(path).read_text()
        pragmas = parse_lint_pragmas(text)
        ignore = list(args.ignore or []) + pragmas["ignore"]
        try:
            findings.extend(
                analyze_text(
                    text,
                    edb=list(args.edb or []) + pragmas["edb"],
                    outputs=list(args.outputs or []) + pragmas["outputs"],
                    file=path,
                    sizes=pragmas["sizes"],
                    select=args.select,
                    ignore=ignore or None,
                )
            )
            findings.extend(
                _whole_program_findings(
                    text,
                    path,
                    outputs=list(args.outputs or []) + pragmas["outputs"],
                    select=args.select,
                    ignore=ignore or None,
                )
            )
        except ParseError as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            parse_failed = True
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        print(render_text(findings))
    if parse_failed:
        return EXIT_PARSE_ERROR
    errors = sum(1 for d in findings if d.severity is Severity.ERROR)
    return 1 if errors else 0


def _whole_program_findings(text, path, outputs=None, select=None, ignore=None):
    """F016–F020 findings of the whole-program dataflow analysis.

    The analysis seeds from a database; linting has none, so it runs
    with an empty database and the *declared* (unbounded-by-default)
    domains — exactly the subset of its reasoning that depends on the
    program text alone.  Programs the evaluator would reject get none.
    """
    import dataclasses

    from .analysis import filter_diagnostics, whole_program_findings
    from .ctable.table import Database
    from .faurelog.ast import ProgramError
    from .solver.domains import DomainMap, Unbounded

    try:
        diagnostics = whole_program_findings(
            parse_program(text),
            Database(),
            DomainMap(default=Unbounded("any")),
            outputs=outputs or None,
        )
    except (ParseError, ProgramError):
        return []
    findings = [dataclasses.replace(d, file=path) for d in diagnostics]
    return filter_diagnostics(findings, select=select, ignore=ignore)


def _cmd_serve(args) -> int:
    """Run the crash-safe incremental verification daemon."""
    import json
    import os
    import signal

    from .serve.server import FaureServer
    from .serve.state import ServeBudgets, ServeState

    budgets = ServeBudgets(
        deadline_seconds=args.deadline,
        solver_call_budget=args.solver_budget,
        steps_per_call=args.solver_steps,
        max_condition_atoms=args.max_condition_atoms,
    )
    state_kwargs = dict(
        budgets=budgets,
        compact_every=args.compact_every,
        compact_bytes=args.compact_bytes,
    )
    tailer = None
    primary_addr = None
    if args.replica_of:
        # Replica: the workload (program + seed database) comes from the
        # primary's snapshot, not from local flags.
        from .serve.client import parse_hostport
        from .serve.replica import ReplicaTailer, bootstrap_replica

        if args.db or args.program or args.program_file:
            print(
                "serve failure: --replica-of takes its workload from the "
                "primary's snapshot; drop --db/--program/--program-file",
                file=sys.stderr,
            )
            return EXIT_PARSE_ERROR
        primary_addr = parse_hostport(args.replica_of, args.host)
        try:
            state = bootstrap_replica(primary_addr, args.wal, **state_kwargs)
        except (ConnectionError, OSError) as exc:
            print(f"serve failure: cannot bootstrap replica: {exc}", file=sys.stderr)
            return EXIT_SERVE_FAILURE
        tailer = ReplicaTailer(
            state, primary_addr, poll_interval=args.poll_interval
        )
    else:
        if not args.db or not (args.program or args.program_file):
            print(
                "serve failure: a primary needs --db and --program/--program-file "
                "(or start as a replica with --replica-of HOST:PORT)",
                file=sys.stderr,
            )
            return EXIT_PARSE_ERROR
        program_text = (
            Path(args.program_file).read_text() if args.program_file else args.program
        )
        database_text = Path(args.db).read_text()
        state = ServeState(program_text, database_text, args.wal, **state_kwargs)
    try:
        server = FaureServer(
            state,
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            shed_retry_after=args.retry_after,
            role="replica" if args.replica_of else "primary",
            primary_addr=primary_addr,
        )
    except OSError as exc:
        print(f"serve failure: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        state.close()
        return EXIT_SERVE_FAILURE
    if tailer is not None:
        server.tailer = tailer
        tailer.start()
    host, port = server.address
    snapshot = state.epochs.current()
    # The ready line: tests and scripts parse this to find the ephemeral
    # port; everything after it speaks the wire protocol, not stdout.
    print(
        json.dumps(
            {
                "serving": {
                    "host": host,
                    "port": port,
                    "pid": os.getpid(),
                    "epoch": snapshot.epoch,
                    "seq": snapshot.seq,
                    "replayed": len(state.wal),
                    "wal": args.wal,
                    "role": server.role,
                }
            },
            sort_keys=True,
            separators=(",", ":"),
        ),
        flush=True,
    )

    def _graceful(_signum, _frame):  # type: ignore[no-untyped-def]
        server.stop()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    code = server.serve_forever()
    if code != 0:
        print(f"serve failure: {server.fatal}", file=sys.stderr)
        return EXIT_SERVE_FAILURE
    print(
        f"-- serve: {state.counters['updates_applied']} update(s) applied, "
        f"{state.counters['updates_rejected']} rejected, "
        f"{server.counters['shed']} shed, "
        f"{state.counters['recoveries']} recover(ies), "
        f"{state.counters['compactions']} compaction(s); "
        f"wal={state.wal.path} seq={state.wal.last_seq}",
        file=sys.stderr,
    )
    return 0


def _cmd_serve_admin(args) -> int:
    """Administer a running serve daemon (status / compact / snapshot)."""
    import json

    from .serve.client import ServeClient
    from .serve.protocol import ServeRequestError

    try:
        if args.wait:
            client = ServeClient.wait_until_up(args.host, args.port)
            client.timeout = args.timeout
        else:
            client = ServeClient(args.host, args.port, timeout=args.timeout)
        with client:
            if args.action == "compact":
                response = client.admin("compact", force=args.force)
            elif args.action == "snapshot":
                response = client.admin("snapshot")
            else:
                response = client.admin("status")
    except ServeRequestError as exc:
        # Old peer (no admin surface): typed refusal, errno-class exit.
        response = exc.response()
        print(json.dumps(response, sort_keys=True, separators=(",", ":")))
        return int(response["errno"])
    except (ConnectionError, OSError) as exc:
        print(f"serve-admin failure: {exc}", file=sys.stderr)
        return EXIT_SERVE_FAILURE
    print(json.dumps(response, sort_keys=True, separators=(",", ":")))
    if response.get("ok"):
        return 0
    return int(response.get("errno", EXIT_SERVE_FAILURE))


def _cmd_examples(_args) -> int:
    examples = [
        ("quickstart.py", "c-tables + fauré-log on the paper's Table 2"),
        ("fast_reroute.py", "§4 loss-less reachability under failures"),
        ("multi_team_verification.py", "§5 relative-complete verification"),
        ("rib_reachability.py", "§6 RIB pipeline with Table 4 reporting"),
        ("sql_session.py", "the mini-SQL face of the engine"),
        ("interdomain_visibility.py", "limited visibility across domains"),
        ("update_plan.py", "multi-step change-plan safety"),
        ("acl_audit.py", "auditing a partially visible ACL"),
        ("streaming_monitor.py", "incremental constraint monitoring"),
    ]
    for name, blurb in examples:
        print(f"  examples/{name:<28} {blurb}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="fauré: partial network analysis"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rib = sub.add_parser("rib", help="synthetic RIB workloads")
    rib_sub = rib.add_subparsers(dest="rib_command", required=True)
    gen = rib_sub.add_parser("generate", help="generate a RIB dump")
    gen.add_argument("--prefixes", type=int, default=100)
    gen.add_argument("--paths", type=int, default=5)
    gen.add_argument("--ases", type=int, default=120)
    gen.add_argument("--seed", type=int, default=20210610)
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_rib_generate)
    ana = rib_sub.add_parser("analyze", help="reachability analysis of a dump")
    ana.add_argument("rib")
    ana.add_argument(
        "--patterns",
        action="store_true",
        help="additionally run a per-prefix at-least-one-failure pattern "
        "query (q8 shape) for every multi-path prefix",
    )
    ana.add_argument(
        "--checkpoint",
        help="journal completed units to this file and resume from it "
        "(killed runs re-run zero completed units)",
    )
    _add_governor_args(ana)
    ana.set_defaults(func=_cmd_rib_analyze)

    query = sub.add_parser("query", help="run a fauré-log program")
    query.add_argument("--db", required=True, help="database JSON file")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--program", help="inline program text")
    group.add_argument("--program-file", help="program file")
    query.add_argument("--output", help="only print this predicate")
    query.add_argument("--limit", type=int, default=30, help="max rows shown")
    _add_governor_args(query)
    query.set_defaults(func=_cmd_query)

    verify = sub.add_parser("verify", help="relative-complete verification")
    verify.add_argument(
        "--target",
        required=True,
        nargs="+",
        help="target constraint file(s), verified in order",
    )
    verify.add_argument("--known", nargs="*", default=[], help="known constraint files")
    verify.add_argument(
        "--update", nargs="*", help="update specs like '+Lb(R&D, GS)' '-Lb(Mkt, CS)'"
    )
    verify.add_argument("--db", help="state database JSON (enables level 3)")
    verify.add_argument(
        "--checkpoint",
        help="journal per-target verdicts (and memo entries) to this file; "
        "a resumed run re-verifies nothing already decided",
    )
    _add_governor_args(verify)
    verify.set_defaults(func=_cmd_verify)

    sql = sub.add_parser("sql", help="run mini-SQL statements on c-tables")
    sql.add_argument("statement", nargs="*", help="inline ;-separated statements")
    sql.add_argument("--db", help="database JSON to load first")
    sql.add_argument("--script", help="file of statements instead of inline")
    sql.add_argument("--save", help="write the resulting database JSON here")
    sql.add_argument("--limit", type=int, default=30)
    sql.add_argument(
        "--checkpoint",
        help="journal definite solver verdicts to this file; a resumed "
        "script replays them instead of re-solving",
    )
    _add_governor_args(sql)
    sql.set_defaults(func=_cmd_sql)

    serve = sub.add_parser(
        "serve",
        help="crash-safe incremental verification daemon "
        "(WAL-backed updates, snapshot-isolated queries)",
    )
    serve.add_argument(
        "--db",
        help="seed database JSON file (primaries; replicas take the "
        "workload from the primary's snapshot)",
    )
    serve_group = serve.add_mutually_exclusive_group()
    serve_group.add_argument("--program", help="inline program text")
    serve_group.add_argument("--program-file", help="program file")
    serve.add_argument(
        "--wal",
        required=True,
        help="write-ahead log path; replayed on start, fsync'd before "
        "every apply (fingerprint-guarded against foreign workloads)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = ephemeral; the bound port is printed "
        "in the ready line)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="bounded ingest queue size; a full queue sheds updates with "
        "an explicit OVERLOADED/retry-after response (default: 64)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=0.1,
        help="retry hint (seconds) carried by shed responses",
    )
    serve_budgets = serve.add_argument_group(
        "per-request budgets (degrade to INCONCLUSIVE, never stall)"
    )
    serve_budgets.add_argument(
        "--deadline", type=float, help="per-request wall-clock deadline in seconds"
    )
    serve_budgets.add_argument(
        "--solver-budget", type=int, help="solver calls per request"
    )
    serve_budgets.add_argument(
        "--solver-steps", type=int, help="cooperative step budget per solver call"
    )
    serve_budgets.add_argument(
        "--max-condition-atoms",
        type=int,
        help="refuse conditions with more atoms than this",
    )
    serve_lifecycle = serve.add_argument_group(
        "log lifecycle (WAL compaction into seed snapshots)"
    )
    serve_lifecycle.add_argument(
        "--compact-every",
        type=int,
        help="fold the log into a snapshot whenever it holds this many "
        "entries (keeps steady-state log size and open time bounded)",
    )
    serve_lifecycle.add_argument(
        "--compact-bytes",
        type=int,
        help="fold the log into a snapshot whenever it exceeds this many "
        "bytes on disk",
    )
    serve_replica = serve.add_argument_group("replication")
    serve_replica.add_argument(
        "--replica-of",
        metavar="HOST:PORT",
        help="start as a read replica of this primary: bootstrap from its "
        "snapshot, tail its WAL, answer queries (ingest is redirected)",
    )
    serve_replica.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="replica tail poll interval in seconds when caught up "
        "(default: 0.2)",
    )
    serve.set_defaults(func=_cmd_serve)

    serve_admin = sub.add_parser(
        "serve-admin",
        help="administer a running serve daemon "
        "(status, compact the WAL, write a snapshot)",
    )
    serve_admin.add_argument("--host", default="127.0.0.1")
    serve_admin.add_argument("--port", type=int, required=True)
    serve_admin.add_argument("--timeout", type=float, default=30.0)
    serve_admin.add_argument(
        "--wait", action="store_true", help="poll until the daemon is up first"
    )
    serve_admin.add_argument(
        "action",
        choices=["status", "compact", "snapshot"],
        help="status: health + log/snapshot lifecycle; compact: fold the "
        "WAL into a seed snapshot and retire folded segments; snapshot: "
        "write a snapshot without retiring anything",
    )
    serve_admin.add_argument(
        "--force",
        action="store_true",
        help="compact even when the log suffix is empty",
    )
    serve_admin.set_defaults(func=_cmd_serve_admin)

    lint = sub.add_parser("lint", help="static checks on fauré-log files")
    lint.add_argument("programs", nargs="+", help="program file(s)")
    lint.add_argument("--edb", nargs="*", help="declared stored relations")
    lint.add_argument("--outputs", nargs="*", help="output predicates")
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text); sarif emits a SARIF 2.1.0 "
        "log for CI annotation surfaces",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only report these comma-separated codes (e.g. F011,F008)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="drop these comma-separated codes",
    )
    lint.set_defaults(func=_cmd_lint)

    examples = sub.add_parser("examples", help="list bundled examples")
    examples.set_defaults(func=_cmd_examples)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, ConditionTooLarge) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except FaureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (ParseError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

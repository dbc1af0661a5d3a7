"""The shared verdict store under process-level chaos.

The store's crash-tolerance contract (repro.parallel.shared_memo):
concurrent ``O_APPEND`` writers interleave at record granularity, a
reader racing a writer sees every *complete* record and nothing else,
a SIGKILLed writer costs at most its own unfinished tail, and a
corrupt region is skipped — a lost cache hit, never a wrong answer or
a crash.  On top: the byte-identity bar with the store active, and
checkpoint/resume coexisting with the store on one memo's observers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.engine.stats import EvalStats
from repro.network.enterprise import (
    SCHEMAS,
    EnterpriseModel,
    column_domains,
    constraint_T1,
    constraint_T2,
    listing4_update,
    policy_C_lb,
    policy_C_s,
)
from repro.parallel.batch import prune_batched
from repro.parallel.shared_memo import RECORD_SIZE, SharedVerdictStore
from repro.robustness.checkpoint import CheckpointJournal, fingerprint_of
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable
from repro.verify.constraints import Constraint
from repro.verify.verifier import RelativeCompleteVerifier

from .test_chaos_invariance import (
    JOBS,
    chaotic_executor,
    pattern_queries,
    q8_table,  # noqa: F401  (module-scoped fixture re-export)
    rendered,
)

_CTX = multiprocessing.get_context("fork")


def _key(writer: int, i: int) -> bytes:
    return f"w{writer:04d}r{i:08d}".encode().ljust(16, b"\0")


_FP = b"chaosfp1"


def _writer_proc(path: str, writer: int, count: int, delay: float) -> None:
    store = SharedVerdictStore.attach(path)
    try:
        for i in range(count):
            store.append(_key(writer, i), _FP, i % 2 == 0)
            if delay:
                time.sleep(delay)
    finally:
        store.close()


def _kill_proc(path: str, writer: int, count: int) -> None:
    """Append ``count`` records, then die without warning."""
    store = SharedVerdictStore.attach(path)
    for i in range(count):
        store.append(_key(writer, i), _FP, True)
    os.kill(os.getpid(), signal.SIGKILL)


class TestStoreUnderProcessChaos:
    def test_concurrent_writers_interleave_cleanly(self, tmp_path):
        """Many writers, one log: every record lands intact."""
        store = SharedVerdictStore.create(dir=tmp_path)
        writers, per_writer = 4, 200
        procs = [
            _CTX.Process(target=_writer_proc, args=(store.path, w, per_writer, 0))
            for w in range(writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        try:
            store.poll()
            assert store.skipped_records == 0
            for w in range(writers):
                for i in range(per_writer):
                    assert store.lookup(_key(w, i), _FP) is (i % 2 == 0)
            size = os.path.getsize(store.path)
            assert size == RECORD_SIZE * (1 + writers * per_writer)
        finally:
            store.close(unlink=True)

    def test_reader_races_a_live_writer(self, tmp_path):
        """Polling mid-write never surfaces a torn or phantom record."""
        store = SharedVerdictStore.create(dir=tmp_path)
        proc = _CTX.Process(
            target=_writer_proc, args=(store.path, 0, 150, 0.0005)
        )
        proc.start()
        try:
            seen, deadline = 0, time.monotonic() + 30
            while seen < 150 and time.monotonic() < deadline:
                seen += store.poll()
                assert store.skipped_records == 0
            assert seen == 150
            assert store.lookup(_key(0, 149), _FP) is False
        finally:
            proc.join(timeout=30)
            store.close(unlink=True)

    def test_sigkill_mid_append_leaves_log_readable(self, tmp_path):
        """A writer dying unannounced costs nothing already durable."""
        store = SharedVerdictStore.create(dir=tmp_path)
        proc = _CTX.Process(target=_kill_proc, args=(store.path, 7, 25))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL
        try:
            assert store.poll() == 25
            assert store.skipped_records == 0
            assert store.lookup(_key(7, 24), _FP) is True
            # The survivors keep appending and reading as if nothing
            # happened — the log has no writer registry to corrupt.
            store.append(_key(8, 0), _FP, False)
            reader = SharedVerdictStore.attach(store.path)
            try:
                assert reader.lookup(_key(8, 0), _FP) is False
                assert reader.lookup(_key(7, 0), _FP) is True
            finally:
                reader.close()
        finally:
            store.close(unlink=True)

    def test_corrupt_region_is_skipped_not_fatal(self, tmp_path):
        """Scribbled bytes (torn page, bad disk) cost hits, not answers."""
        store = SharedVerdictStore.create(dir=tmp_path)
        try:
            store.append(_key(0, 0), _FP, True)
            with open(store.path, "r+b") as fh:
                fh.seek(0, os.SEEK_END)
                fh.write(b"\xff" * (RECORD_SIZE * 3))
            store.append(_key(0, 1), _FP, False)
            reader = SharedVerdictStore.attach(store.path)
            try:
                reader.poll()
                assert reader.skipped_records == 3
                assert reader.lookup(_key(0, 0), _FP) is True
                assert reader.lookup(_key(0, 1), _FP) is False
            finally:
                reader.close()
        finally:
            store.close(unlink=True)


# -- byte-identity with the store actually in play ---------------------------


class TestChaosWithStoreActive:
    """The invariance bar again, now with store reads *enabled*.

    The other chaos suites run governed solvers, which stand the read
    side down by design.  Ungoverned runs are where sharing is live —
    a SIGKILLed worker's retry may now be answered from the log, and
    the output must still match ``jobs=1`` exactly (exactness of the
    decision procedures is what makes served verdicts invisible).
    """

    def run_prune(self, q8_table, jobs=1, executor=None):
        table, domains = q8_table
        # fast_path=False: raw-rung verdicts never reach the memo, so
        # without it no verdict would be written to the store.
        solver = ConditionSolver(domains, memo=MemoTable(), fast_path=False)
        stats = EvalStats()
        out = prune_batched(table, solver, stats, jobs=jobs, executor=executor)
        return out, stats, solver

    def test_prune_sigkill_with_shared_reads(self, q8_table, chaos_env):
        s_out, s_stats, _ = self.run_prune(q8_table)
        chaos_env("kill:1:{s}")
        executor = chaotic_executor()
        assert executor.shared_memo
        p_out, p_stats, p_solver = self.run_prune(
            q8_table, jobs=JOBS, executor=executor
        )
        assert rendered(s_out) == rendered(p_out)
        assert s_stats.tuples_pruned == p_stats.tuples_pruned
        assert executor.last_failures.worker_crashes == 1
        session = getattr(p_solver.memo, "_store_session", None)
        assert session is not None and session.store.writes > 0

    def test_patterns_sigkill_with_shared_reads(self, rib, chaos_env):
        from repro.network.reachability import ReachabilityAnalyzer

        def run(jobs=1, executor=None):
            routes, compiled = rib
            # fast_path=False: raw-rung verdicts never reach the memo,
            # so without it the store would be neither written nor read.
            solver = ConditionSolver(
                compiled.domains, memo=MemoTable(), fast_path=False
            )
            analyzer = ReachabilityAnalyzer(
                compiled.database(), solver, per_flow=True
            )
            results = analyzer.under_patterns(
                pattern_queries(rib), jobs=jobs, executor=executor
            )
            return "\n".join(rendered(t) for t, _ in results), analyzer

        serial, _ = run()
        chaos_env("kill:0:{s}")
        executor = chaotic_executor()
        chaotic, analyzer = run(jobs=JOBS, executor=executor)
        assert serial == chaotic
        assert executor.last_failures.worker_crashes == 1
        assert "shared_memo_hits" in analyzer.stats.extra
        session = getattr(analyzer.solver.memo, "_store_session", None)
        assert session is not None and session.store.writes > 0


# -- checkpoint/resume with the store on the same memo ------------------------


class TestCheckpointWithStore:
    def test_resume_replays_with_store_active(self, tmp_path):
        """Journal and store both observe one memo; resume replays all."""
        model = EnterpriseModel.paper_state()
        known = [
            Constraint("C_lb", policy_C_lb()),
            Constraint("C_s", policy_C_s()),
        ]
        targets = [
            Constraint("T1", constraint_T1()),
            Constraint("T2", constraint_T2()),
        ]
        path = str(tmp_path / "ck.jsonl")
        fp = fingerprint_of("store+checkpoint")

        def run(journal):
            solver = ConditionSolver(model.domain_map(), memo=MemoTable())
            verifier = RelativeCompleteVerifier(
                known,
                solver,
                schemas=SCHEMAS,
                column_domains=column_domains(),
            )
            verdicts = verifier.verify_many(
                targets,
                update=listing4_update(),
                state=model.database(),
                jobs=2,
                checkpoint=journal,
            )
            return [str(v) for v in verdicts], solver

        first = CheckpointJournal.open(path, fp)
        fresh, solver = run(first)
        first.close()
        # The store session and the journal coexisted on the memo.
        session = getattr(solver.memo, "_store_session", None)
        assert session is not None and not session.closed

        resumed_journal = CheckpointJournal.open(path, fp)
        assert resumed_journal.replayed >= len(targets)
        resumed, _ = run(resumed_journal)
        assert resumed_journal.recorded == 0  # nothing re-verified
        resumed_journal.close()
        assert resumed == fresh

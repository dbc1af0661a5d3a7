"""The cross-worker shared verdict store, from record bytes up to jobs=N.

Bottom-up: record pack/unpack and corruption handling, the store's
append/poll/lookup protocol between two attached processes' views, the
memo observer-list and read-through wiring the store plugs into, the
parent-side session lifecycle, and finally the headline property —
``jobs ∈ {1, 2, 4}`` × shared-memo on/off × heavy fault injection all
render byte-identical answers.
"""

import dataclasses
import os

import pytest

from repro.engine.stats import EvalStats
from repro.network.reachability import ReachabilityAnalyzer
from repro.parallel.batch import prune_batched
from repro.parallel.shared_memo import (
    RECORD_SIZE,
    SharedMemoSession,
    SharedVerdictStore,
    StoreHandle,
    encode_memo_key,
    pack_record,
    reads_allowed,
    session_for,
    unpack_record,
)
from repro.parallel.supervisor import SupervisedExecutor
from repro.robustness.faultinject import FaultInjector, FaultPlan
from repro.robustness.governor import Governor
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable

from .conftest import repeated_condition_table, rendered

JOBS = 4


@pytest.fixture
def store(tmp_path):
    s = SharedVerdictStore.create(dir=tmp_path)
    yield s
    s.close(unlink=True)


class TestRecordFormat:
    def test_round_trip(self):
        record = pack_record(b"k" * 16, b"d" * 8, True)
        assert len(record) == RECORD_SIZE
        assert unpack_record(record) == (b"k" * 16, b"d" * 8, True)
        record = pack_record(b"q" * 16, b"e" * 8, False)
        assert unpack_record(record) == (b"q" * 16, b"e" * 8, False)

    def test_corrupt_checksum_rejected(self):
        record = bytearray(pack_record(b"k" * 16, b"d" * 8, True))
        record[3] ^= 0xFF
        assert unpack_record(bytes(record)) is None

    def test_zero_fill_rejected(self):
        # A zero-filled page CRCs "correctly" only if the stored CRC is
        # also zero — and even then the verdict byte 0 is invalid.
        assert unpack_record(b"\0" * RECORD_SIZE) is None

    def test_encode_covers_sat_and_implies(self):
        table, domains = repeated_condition_table()
        memo = MemoTable()
        conds = [t.condition for t in table][:2]
        a, b = (memo.canonical(c) for c in conds)
        sat = memo.sat_key(a, domains)
        implies = memo.implies_key(a, b, domains)
        for key in (sat, implies):
            encoded = encode_memo_key(key)
            assert encoded is not None
            assert len(encoded[0]) == 16 and len(encoded[1]) == 8
            # Deterministic: same key, same bytes.
            assert encode_memo_key(key) == encoded
        assert encode_memo_key(sat) != encode_memo_key(implies)
        assert encode_memo_key(("future-op", a)) is None


class TestStoreProtocol:
    def test_append_then_lookup_across_attachments(self, store):
        key = (b"k" * 16, b"d" * 8)
        store.append(key[0], key[1], True)
        reader = SharedVerdictStore.attach(store.path)
        try:
            assert reader.lookup(key[0], key[1]) is True
            assert reader.hits == 1
        finally:
            reader.close()

    def test_lookup_polls_for_new_records(self, store):
        reader = SharedVerdictStore.attach(store.path)
        try:
            assert reader.lookup(b"a" * 16, b"d" * 8) is None
            store.append(b"a" * 16, b"d" * 8, False)
            # The reader's next lookup polls the grown log.
            assert reader.lookup(b"a" * 16, b"d" * 8) is False
        finally:
            reader.close()

    def test_domain_fingerprint_mismatch_rejected(self, store):
        store.append(b"k" * 16, b"d" * 8, True)
        reader = SharedVerdictStore.attach(store.path)
        try:
            assert reader.lookup(b"k" * 16, b"X" * 8) is None
            assert reader.fingerprint_rejections == 1
            assert reader.hits == 0
        finally:
            reader.close()

    def test_reads_flag_disables_lookup(self, store):
        store.append(b"k" * 16, b"d" * 8, True)
        store.reads = False
        assert store.lookup(b"k" * 16, b"d" * 8) is None

    def test_append_deduplicates(self, store):
        for _ in range(3):
            store.append(b"k" * 16, b"d" * 8, True)
        assert store.writes == 1
        assert os.path.getsize(store.path) == RECORD_SIZE * 2  # header + 1

    def test_torn_record_skipped_then_valid_read(self, store):
        store.append(b"k" * 16, b"d" * 8, True)
        # A writer died mid-append: a full-size but garbage record.
        with open(store.path, "ab") as fh:
            fh.write(b"\xde\xad" * (RECORD_SIZE // 2))
        store.append(b"q" * 16, b"d" * 8, False)
        reader = SharedVerdictStore.attach(store.path)
        try:
            reader.poll()
            assert reader.skipped_records == 1
            assert reader.lookup(b"k" * 16, b"d" * 8) is True
            assert reader.lookup(b"q" * 16, b"d" * 8) is False
        finally:
            reader.close()

    def test_trailing_partial_record_left_for_next_poll(self, store):
        store.append(b"k" * 16, b"d" * 8, True)
        half = pack_record(b"q" * 16, b"d" * 8, False)[: RECORD_SIZE // 2]
        with open(store.path, "ab") as fh:
            fh.write(half)
        reader = SharedVerdictStore.attach(store.path)
        try:
            assert reader.poll() == 1  # the complete record only
            assert reader.skipped_records == 0
            # The "writer" finishes its append; the tail completes.
            with open(store.path, "ab") as fh:
                fh.write(pack_record(b"q" * 16, b"d" * 8, False)[RECORD_SIZE // 2 :])
            reader.poll()
            assert reader.lookup(b"q" * 16, b"d" * 8) is False
        finally:
            reader.close()

    def test_handle_attach_degrades_on_missing_log(self, store):
        handle = StoreHandle(store.path + ".gone", reads=True)
        assert handle.open() is None

    def test_only_creator_unlinks(self, store):
        attached = SharedVerdictStore.attach(store.path)
        attached.close(unlink=True)
        assert os.path.exists(store.path)


class TestMemoWiring:
    def test_observers_add_remove_idempotent(self):
        memo = MemoTable()
        seen = []
        cb = seen.append
        memo.add_observer(cb)
        memo.add_observer(cb)
        assert memo.observers == [cb]
        memo.remove_observer(cb)
        memo.remove_observer(cb)  # absent: ignored
        assert memo.observers == []

    def test_single_observer_property_back_compat(self):
        memo = MemoTable()
        a, b = (lambda k, v: None), (lambda k, v: None)
        assert memo.observer is None
        memo.add_observer(a)
        memo.add_observer(b)
        assert memo.observer is a
        memo.observer = b  # historical single-slot semantics
        assert memo.observers == [b]
        memo.observer = None
        assert memo.observers == []

    def test_multiple_observers_all_fire(self):
        memo = MemoTable()
        first, second = [], []
        memo.add_observer(lambda k, v: first.append((k, v)))
        memo.add_observer(lambda k, v: second.append((k, v)))
        memo.put(("sat", "c", ()), True)
        assert first == second == [(("sat", "c", ()), True)]

    def test_backing_hit_is_folded_and_observed(self):
        memo = MemoTable()
        observed = []
        memo.backing = lambda key: True
        memo.add_observer(lambda k, v: observed.append((k, v)))
        key = ("sat", "c", ())
        assert memo.get(key) is True
        assert memo.hits == 1 and memo.misses == 0
        assert observed == [(key, True)]
        # Now local: backing not needed again.
        memo.backing = lambda key: pytest.fail("should not be consulted")
        assert memo.get(key) is True

    def test_store_backing_through_memo(self, store):
        table, domains = repeated_condition_table()
        cond = next(iter(table)).condition
        writer_memo = MemoTable()
        writer_memo.add_observer(store.append_key)
        key = writer_memo.sat_key(writer_memo.canonical(cond), domains)
        writer_memo.put(key, True)
        assert store.writes == 1

        reader_memo = MemoTable()
        reader = SharedVerdictStore.attach(store.path)
        try:
            reader_memo.backing = reader.lookup_key
            # The reader canonicalizes independently; structural key
            # equality plus the repr-based encoding line the two up.
            rkey = reader_memo.sat_key(reader_memo.canonical(cond), domains)
            assert reader_memo.get(rkey) is True
            assert reader.hits == 1
        finally:
            reader.close()


class TestSession:
    def test_session_seeds_store_from_memo(self, tmp_path):
        table, domains = repeated_condition_table()
        memo = MemoTable()
        # fast_path=False: raw-rung verdicts are never memoized, and
        # this test needs memo entries to seed the store from.
        solver = ConditionSolver(domains, memo=memo, fast_path=False)
        for tup in table:
            solver.is_satisfiable(tup.condition)
        assert len(memo._entries) > 0
        session = SharedMemoSession(memo)
        try:
            assert session.store.writes == len(
                [k for k in memo._entries if encode_memo_key(k) is not None]
            )
            # A fresh attachment can answer every seeded key.
            handle = session.handle(reads=True)
            attached = handle.open()
            try:
                for key, value in memo._entries.items():
                    assert attached.lookup_key(key) is value
            finally:
                attached.close()
        finally:
            session.close()

    def test_session_cached_per_memo_and_closed_by_clear(self):
        memo = MemoTable()
        executor = SupervisedExecutor(2)
        session = session_for(memo, executor)
        assert session is not None
        assert session_for(memo, executor) is session
        path = session.store.path
        memo.clear()
        assert session.closed
        assert not os.path.exists(path)
        assert getattr(memo, "_store_session", None) is None

    def test_no_session_without_memo_or_with_sharing_off(self):
        executor_on = SupervisedExecutor(2)
        executor_off = SupervisedExecutor(2, shared_memo=False)
        assert session_for(None, executor_on) is None
        memo = MemoTable()
        assert session_for(memo, executor_off) is None
        assert getattr(memo, "_store_session", None) is None

    def test_reads_allowed_only_ungoverned(self):
        assert reads_allowed(None)
        governor = Governor().start()
        assert not reads_allowed(governor)

    def test_log_not_leaked_on_plain_process_exit(self, tmp_path):
        """A run that never clears its memo must not litter the temp dir.

        The common CLI path ends with ``sys.exit``, not ``memo.clear()``
        — the creator's atexit hook owns the unlink there.
        """
        import subprocess
        import sys

        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.solver.memo import MemoTable\n"
                "from repro.parallel.shared_memo import SharedMemoSession\n"
                "session = SharedMemoSession(MemoTable())\n"
                "print(session.store.path)\n",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        path = out.stdout.strip()
        assert path and not os.path.exists(path)


# -- the headline equivalence matrix -----------------------------------------


def run_prune(table, domains, jobs, shared, plan=None, **governor_kwargs):
    governor = None
    if plan is not None or governor_kwargs:
        injector = FaultInjector(plan) if plan is not None else None
        governor = Governor(injector=injector, **governor_kwargs).start()
    solver = ConditionSolver(domains, governor=governor, memo=MemoTable())
    stats = EvalStats()
    executor = SupervisedExecutor(jobs, shared_memo=shared) if jobs > 1 else None
    out = prune_batched(table, solver, stats, jobs=jobs, executor=executor)
    return out, stats, solver


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("jobs", [2, JOBS])
    @pytest.mark.parametrize("shared", [True, False])
    def test_prune_identical_under_heavy_faults(self, jobs, shared):
        """jobs ∈ {1,2,4} × shared on/off × ≥30% injected faults."""
        table, domains = repeated_condition_table(tuples=60)
        plan = FaultPlan(timeout_every=3)  # every 3rd call: ≥30%
        s_out, s_stats, s_solver = run_prune(
            table, domains, 1, shared, plan=plan, on_budget="degrade"
        )
        p_out, p_stats, p_solver = run_prune(
            table, domains, jobs, shared, plan=plan, on_budget="degrade"
        )
        assert rendered(s_out) == rendered(p_out)
        assert s_stats.tuples_pruned == p_stats.tuples_pruned
        assert s_stats.unknown_kept == p_stats.unknown_kept > 0
        assert dataclasses.asdict(s_solver.governor.events) == dataclasses.asdict(
            p_solver.governor.events
        )
        assert (
            s_solver.governor.injector.calls == p_solver.governor.injector.calls
        )

    @pytest.mark.parametrize("jobs", [2, JOBS])
    @pytest.mark.parametrize("shared", [True, False])
    def test_prune_identical_ungoverned(self, jobs, shared):
        table, domains = repeated_condition_table(tuples=60)
        s_out, s_stats, _ = run_prune(table, domains, 1, shared)
        p_out, p_stats, _ = run_prune(table, domains, jobs, shared)
        assert rendered(s_out) == rendered(p_out)
        assert s_stats.tuples_pruned == p_stats.tuples_pruned

    @pytest.mark.parametrize("shared", [True, False])
    def test_patterns_identical_with_and_without_store(self, rib, shared):
        from .test_fanout import analyzer_for, pattern_queries

        serial = analyzer_for(rib)
        s_tables = [
            t.pretty(max_rows=None)
            for t, _ in serial.under_patterns(pattern_queries(rib), jobs=1)
        ]
        parallel = analyzer_for(rib)
        executor = SupervisedExecutor(JOBS, shared_memo=shared)
        p_tables = [
            t.pretty(max_rows=None)
            for t, _ in parallel.under_patterns(
                pattern_queries(rib), jobs=JOBS, executor=executor
            )
        ]
        assert s_tables == p_tables
        extra = parallel.stats.extra
        assert "shared_memo_hits" in extra
        if not shared:
            # Workers report zero deltas when no store is wired in.
            assert extra["shared_memo_hits"] == 0
            assert extra.get("shared_memo_writes", 0) == 0

    def test_store_accounting_surfaces_in_stats(self, rib):
        """A memo warmed by compute() then fanned out accounts writes."""
        from .test_fanout import pattern_queries

        routes, compiled = rib
        solver = ConditionSolver(compiled.domains, memo=MemoTable())
        analyzer = ReachabilityAnalyzer(compiled.database(), solver, per_flow=True)
        analyzer.compute()
        list(analyzer.under_patterns(pattern_queries(rib), jobs=2))
        extra = analyzer.stats.extra
        assert extra["parallel_tasks"] > 0
        assert extra["ipc_bytes"] > 0
        assert "shared_memo_hits" in extra and "shared_memo_writes" in extra
        session = solver.memo._store_session
        assert session is not None and not session.closed
        solver.memo.clear()
        assert session.closed

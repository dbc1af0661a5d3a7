"""Oracle regime for the shared verdict store: served ≡ computed.

The store's soundness claim (repro.parallel.shared_memo) is that a
verdict read from another process's log is indistinguishable from one
computed locally.  Here the claim meets ground truth: a "worker" memo
whose *only* warm source is a store seeded by a previous run must
produce answers byte-identical to every other regime and correct in
every possible world.
"""

import pytest

from repro.parallel.shared_memo import SharedMemoSession, reads_allowed
from repro.robustness.faultinject import FaultInjector, FaultPlan
from repro.robustness.governor import Governor
from repro.solver.memo import MemoTable

from .oracle import CASES, assert_matches_worlds, render_result, run_faure


@pytest.fixture(params=CASES, ids=[c.name for c in CASES])
def case(request):
    return request.param


def test_store_served_run_matches_every_world(case):
    """Round 1 computes and seeds the log; round 2 answers from it."""
    # fast_path=False in both rounds: raw-rung verdicts are never
    # memoized, so with it on the log would be neither seeded nor read.
    warm = MemoTable()
    baseline = run_faure(case, memo=warm, fast_path=False)
    session = SharedMemoSession(warm)
    try:
        assert session.store.writes > 0
        served_memo = MemoTable()
        served_memo.backing = session.store.lookup_key
        served = run_faure(case, memo=served_memo, fast_path=False)
        assert session.store.hits > 0, "round 2 never consulted the log"
        assert render_result(served, case.outputs) == render_result(
            baseline, case.outputs
        )
        assert_matches_worlds(case, served)
        # The served run is also byte-identical to the no-memo regime
        # (chaining with test_memo_on_off_byte_identical's guarantee).
        plain = run_faure(case, memo=None)
        assert render_result(served, case.outputs) == render_result(
            plain, case.outputs
        )
    finally:
        session.close()


def test_governed_run_writes_but_never_reads(case):
    """≥30% faults with a store attached: write-only, world-correct.

    An armed governor stands the read side down (reads_allowed) so the
    fault-injection schedule stays jobs-invariant; definite verdicts
    still flow *into* the log for ungoverned consumers.
    """
    memo = MemoTable()
    session = SharedMemoSession(memo)
    try:
        injector = FaultInjector(FaultPlan(timeout_every=2))
        governor = Governor(on_budget="degrade", injector=injector).start()
        assert not reads_allowed(governor)
        session.store.reads = False  # what the parallel plumbing does
        # fast_path=False: raw-rung verdicts never reach the log.
        result = run_faure(case, memo=memo, governor=governor, fast_path=False)
        assert_matches_worlds(case, result)
        assert session.store.hits == 0
        assert session.store.writes > 0, "no definite verdict reached the log"
    finally:
        session.close()

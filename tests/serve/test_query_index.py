"""The read path against a naive reference: byte-identical answers.

``ServeState.query`` answers from a per-epoch read index, carried
forward from the newest index built, and decides a row that shares no
c-variable with the filter without conjoining the two.  The reference
here is the direct reading of the semantics: substitute the guard
assignments into every row, conjoin each with the filter, decide with a
fresh solver, encode every row, then truncate.
Under seeded churn (removable inserts, withdrawals, a compaction and a
restart from the snapshot) both must produce the same JSON bytes.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctable.condition import FALSE, Comparison, conjoin, disjoin, eq
from repro.ctable.io import dump_database
from repro.ctable.table import Database
from repro.ctable.terms import Constant, CVariable
from repro.robustness.verdict import Verdict
from repro.serve import epochs
from repro.serve.protocol import ServeRequestError, parse_where
from repro.serve.state import ServeBudgets, row_to_obj
from repro.serve.wal import UpdateEntry
from repro.solver.domains import BOOL_DOMAIN, DomainMap, IntRange, Unbounded
from repro.solver.interface import ConditionSolver

LINKS = [CVariable(f"u{k}") for k in range(4)]


def churn_database_text() -> str:
    """A forwarding EDB whose edges hang on boolean link c-variables."""
    db = Database()
    f = db.create_table("F", ["flow", "src", "dst"])
    f.add(["p1", "A", "B"])
    f.add(["p1", "B", "C"], eq(LINKS[0], 1))
    f.add(["p1", "C", "D"], eq(LINKS[1], 1))
    f.add(["p2", "A", "C"], eq(LINKS[2], 0))
    f.add(["p2", "C", "E"])
    domains = DomainMap({v: BOOL_DOMAIN for v in LINKS}, default=Unbounded("any"))
    return dump_database(db, domains)


def reference_query(state, relation, where=None, limit=None):
    """The semantics read literally: every row substituted and decided."""
    snapshot = state.epochs.current()
    view = snapshot.relation(relation)
    condition = parse_where(where)
    assignments = snapshot.assignments
    if condition is not None and assignments:
        condition = condition.substitute(assignments)
    solver = ConditionSolver(state.domains, memo=None)
    rows = []
    status = "OK"
    for tup in view.tuples:
        effective = (
            tup.condition.substitute(assignments) if assignments else tup.condition
        )
        if effective is FALSE:
            continue
        unknown = False
        if condition is not None:
            verdict = solver.sat_verdict(conjoin([effective, condition]))
            if verdict is Verdict.UNSAT:
                continue
            unknown = verdict is Verdict.UNKNOWN
            if unknown:
                status = "INCONCLUSIVE"
        rows.append(row_to_obj(tup, unknown=unknown, condition=effective))
    total = len(rows)
    response = {
        "ok": True,
        "epoch": snapshot.epoch,
        "seq": snapshot.seq,
        "relation": relation,
        "schema": list(view.schema),
        "status": status,
        "rows": rows[:limit] if limit is not None else rows,
        "total": total,
    }
    if limit is not None and total > limit:
        response["truncated"] = True
    return response


def filters_for(state):
    """Every filter shape the index distinguishes, for the current guards."""
    out = [
        None,
        "$u1 == 1",  # shares a variable with some rows
        "$w == 2",  # shares none
        "$u1 == 1 AND $u1 == 0",  # contradictory
        "$u0 == 0 OR $w == 3",  # shares with some rows, disjunctive
    ]
    for name in sorted(state.guards)[:3]:  # live and withdrawn guards alike
        out.append(f"${name} == 1")
    return out


def assert_matches_reference(state):
    for relation in ("F", "R"):
        for where in filters_for(state):
            for limit in (None, 0, 1):
                got = state.query(relation, where=where, limit=limit)
                want = reference_query(state, relation, where=where, limit=limit)
                assert json.dumps(got, sort_keys=True) == json.dumps(
                    want, sort_keys=True
                ), (relation, where, limit)


def removable(values, condition=None):
    return UpdateEntry(
        kind="insert",
        relation="F",
        values=tuple(values),
        condition=condition,
        guard="",
    )


def withdraw(guard):
    return UpdateEntry(kind="withdraw", relation="", values=(), guard=guard)


def churn(state, rng, steps, live):
    nodes = ["A", "B", "C", "D", "E", "G"]
    for _ in range(steps):
        if live and rng.random() < 0.3:
            state.submit(withdraw(live.pop(rng.randrange(len(live)))))
            continue
        src, dst = rng.sample(nodes, 2)
        flow = rng.choice(["p1", "p2"])
        condition = None
        if rng.random() < 0.5:
            condition = f"$u{rng.randrange(len(LINKS))} == {rng.randrange(2)}"
        if rng.random() < 0.8:
            live.append(state.submit(removable((flow, src, dst), condition))["guard"])
        else:
            state.submit(
                UpdateEntry(
                    kind="insert",
                    relation="F",
                    values=(flow, src, dst),
                    condition=condition,
                )
            )


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_query_matches_reference_under_churn(make_state, seed):
    rng = random.Random(seed)
    db_text = churn_database_text()
    state = make_state(database_text=db_text)
    live = []
    assert_matches_reference(state)
    churn(state, rng, 8, live)
    assert_matches_reference(state)
    assert state.compact()["compacted"]
    churn(state, rng, 6, live)
    assert_matches_reference(state)
    state.close()

    restarted = make_state(database_text=db_text)
    assert restarted.snapshot_path is not None  # recovered from the snapshot
    assert_matches_reference(restarted)
    churn(restarted, rng, 4, live)
    assert_matches_reference(restarted)


def test_bare_column_filter_is_malformed_before_any_scan(make_state, monkeypatch):
    state = make_state()
    monkeypatch.setattr(
        epochs.RelationIndex,
        "build",
        classmethod(lambda cls, *a, **k: pytest.fail("a malformed read scanned rows")),
    )
    with pytest.raises(ServeRequestError) as exc:
        state.query("R", where="f == 1")
    assert exc.value.code == "MALFORMED"
    assert state.counters["queries"] == 0


def test_submit_and_publish_do_no_read_work(make_state, monkeypatch):
    """Writes build no read index and make no extra solver calls."""
    entries = [
        removable(("p1", "D", "E"), "$u1 == 1"),
        removable(("p2", "E", "G")),
        UpdateEntry(kind="insert", relation="F", values=("p1", "E", "A")),
    ]

    def write_calls(read_first):
        state = make_state(
            wal_name=f"w{int(read_first)}.wal", database_text=churn_database_text()
        )
        if read_first:
            state.query("R", where="$u1 == 1")  # warm an index on epoch 1
        calls = {"sat": 0, "build": 0}
        sat, build = ConditionSolver.sat_verdict, epochs.RelationIndex.build.__func__

        def counting_sat(self, condition):
            calls["sat"] += 1
            return sat(self, condition)

        def counting_build(cls, *args, **kwargs):
            calls["build"] += 1
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(ConditionSolver, "sat_verdict", counting_sat)
        monkeypatch.setattr(epochs.RelationIndex, "build", classmethod(counting_build))
        for entry in entries:
            state.submit(entry)
        state.submit(withdraw("__g1"))
        monkeypatch.undo()
        return calls

    cold, warm = write_calls(False), write_calls(True)
    assert cold["build"] == warm["build"] == 0
    assert cold["sat"] == warm["sat"]


def test_superseded_epoch_index_is_released(make_state):
    state = make_state(database_text=churn_database_text())
    state.query("R", where="$u0 == 1")
    old = weakref.ref(state.epochs.current())
    assert old()._indexes  # the read built an index on that epoch
    state.submit(removable(("p1", "D", "E")))
    gc.collect()
    assert old() is None
    # the new epoch answers without the old snapshot
    assert state.query("R", where="$u0 == 1")["ok"]


def test_concurrent_first_reads_of_an_epoch_agree(make_state):
    """Readers racing on a cold index answer exactly as one reader does."""
    state = make_state(database_text=churn_database_text())
    churn(state, random.Random(3), 6, [])
    requests = [
        (relation, where)
        for relation in ("F", "R")
        for where in filters_for(state)
    ]
    want = {
        request: json.dumps(reference_query(state, *request), sort_keys=True)
        for request in requests
    }
    state.submit(removable(("p2", "G", "A"), "$u3 == 1"))  # a fresh, cold epoch
    want_after = {
        request: json.dumps(reference_query(state, *request), sort_keys=True)
        for request in requests
    }
    mismatches = []

    def reader(offset):
        for k in range(3 * len(requests)):
            request = requests[(offset + k) % len(requests)]
            got = json.dumps(state.query(*request), sort_keys=True)
            if got != want_after[request]:
                mismatches.append(request)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches
    assert want != want_after  # the write changed what the readers saw


def test_reader_keeps_its_epoch_and_index(make_state):
    state = make_state(database_text=churn_database_text())
    held = state.epochs.current()
    before = held.read_index("R")
    state.submit(removable(("p1", "D", "E")))
    assert held.read_index("R") is before
    assert len(state.epochs.current().read_index("R")) > len(before)


# -- the carried-forward index -------------------------------------------------


def index_state(index):
    """Everything an index answers from, with its verdicts settled."""
    solver = ConditionSolver(index_state.domains, memo=None)
    sat, pending = index.settle(solver)
    return {
        "tuples": index.tuples,
        "effective": index.effective,
        "cvars": index.cvars,
        "positions": index.positions,
        "live": len(index),
        "sat": sat,
        "pending": pending,
    }


def assert_carried_equals_built(state):
    snapshot = state.epochs.current()
    index_state.domains = state.domains
    for relation in ("F", "R"):
        state.query(relation, where="$u1 == 1", limit=1)
        carried = snapshot.read_index(relation)
        built = epochs.RelationIndex.build(
            snapshot.relation(relation), snapshot.assignments
        )
        assert index_state(carried) == index_state(built), relation
        assert not index_state(built)["pending"]


def test_carried_index_equals_a_fresh_build_under_churn(make_state, monkeypatch):
    bases = []
    build = epochs.RelationIndex.build.__func__

    def recording_build(cls, view, assignments, base=None, *args):
        bases.append(base)
        return build(cls, view, assignments, base, *args)

    monkeypatch.setattr(epochs.RelationIndex, "build", classmethod(recording_build))
    rng = random.Random(7)
    db_text = churn_database_text()
    state = make_state(database_text=db_text)
    live = []
    assert_carried_equals_built(state)
    for step in range(24):
        # several epochs go unread in a row: the next index is carried
        # forward across all of them at once
        churn(state, rng, 1 + step % 3, live)
        if step == 12:
            assert state.compact()["compacted"]
        assert_carried_equals_built(state)
    state.close()
    restarted = make_state(database_text=db_text)
    assert restarted.snapshot_path is not None
    for step in range(6):
        churn(restarted, rng, 2, live)
        assert_carried_equals_built(restarted)
    carried = [base for base in bases if base is not None]
    # every read after the first of a generation carried its index forward
    assert len(carried) >= 2 * (24 + 6) - 2
    assert state.counters["withdrawals"] > 3


def test_warm_read_decides_only_rows_sharing_a_filter_variable(make_state, monkeypatch):
    state = make_state(database_text=churn_database_text())
    churn(state, random.Random(4), 10, [])
    state.query("R", where="$u0 == 1")  # settles every row's own verdict
    index = state.epochs.current().read_index("R")
    calls = {"sat": 0}
    sat = ConditionSolver.sat_verdict

    def counting_sat(self, condition):
        calls["sat"] += 1
        return sat(self, condition)

    for where in ("$u1 == 1", "$u3 == 0", "$w == 2", "$u0 == 0 OR $w == 3"):
        shared = index.sharing(parse_where(where).cvariables())
        assert len(shared) < len(index)
        calls["sat"] = 0
        monkeypatch.setattr(ConditionSolver, "sat_verdict", counting_sat)
        got = state.query("R", where=where, limit=2)
        monkeypatch.undo()
        assert calls["sat"] <= 1 + len(shared), where
        want = reference_query(state, "R", where=where, limit=2)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_held_epoch_answers_unchanged_after_its_index_is_carried_forward(
    make_state, monkeypatch
):
    state = make_state(database_text=churn_database_text())
    churn(state, random.Random(9), 6, [])
    guards = [
        state.submit(removable(("p1", "D", "G"), "$u1 == 1"))["guard"],
        state.submit(removable(("p2", "E", "A")))["guard"],
    ]
    held = state.epochs.current()
    requests = [
        (relation, where, limit)
        for relation in ("F", "R")
        for where in filters_for(state)
        for limit in (None, 1)
    ]
    before = [json.dumps(state.query(*r), sort_keys=True) for r in requests]
    held_index = held.read_index("R")
    frozen = (held_index.effective, dict(held_index.positions), held_index.verdicts)
    # epoch N+1 withdraws guards whose rows the held index lists, and adds rows
    for guard in guards:
        state.submit(withdraw(guard))
    state.submit(removable(("p1", "G", "A"), "$u1 == 1"))
    after_write = [json.dumps(state.query(*r), sort_keys=True) for r in requests]
    assert state.epochs.current().read_index("R") is not held_index
    assert after_write != before
    assert frozen == (held_index.effective, held_index.positions, held_index.verdicts)
    monkeypatch.setattr(state.epochs, "current", lambda: held)
    again = [json.dumps(state.query(*r), sort_keys=True) for r in requests]
    assert again == before


def test_budgeted_reads_store_no_unknown_verdict(make_state):
    state = make_state(database_text=churn_database_text())
    rng = random.Random(11)
    live = []
    inconclusive = 0
    for _ in range(4):
        churn(state, rng, 3, live)
        for budget in (0, 3):
            state.budgets = ServeBudgets(solver_call_budget=budget)
            for relation in ("F", "R"):
                for where in filters_for(state):
                    answer = state.query(relation, where=where)
                    inconclusive += answer["status"] == "INCONCLUSIVE"
        state.budgets = ServeBudgets()
        assert_matches_reference(state)
    assert inconclusive  # the budgets did leave rows undecided


# -- the split verdict ---------------------------------------------------------

_DOMAINS = DomainMap(
    {
        CVariable("a0"): BOOL_DOMAIN,
        CVariable("b0"): BOOL_DOMAIN,
        CVariable("a1"): IntRange(0, 3),
        CVariable("b1"): IntRange(0, 3),
    },
    default=Unbounded("any"),
)
_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _conditions(prefix):
    names = [CVariable(f"{prefix}{k}") for k in range(3)]
    atoms = st.builds(
        lambda var, op, rhs: Comparison(var, op, rhs).constant_fold(),
        st.sampled_from(names),
        st.sampled_from(_OPS),
        st.one_of(
            st.integers(-1, 4).map(Constant),
            st.sampled_from(names),
        ),
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(conjoin),
            st.lists(inner, min_size=1, max_size=3).map(disjoin),
            inner.map(lambda c: c.negate()),
        ),
        max_leaves=6,
    )


def conjoin_verdicts(left, right):
    """The read path's rule for a row sharing no c-variable with the filter."""
    if left is Verdict.UNSAT or right is Verdict.UNSAT:
        return Verdict.UNSAT
    if left is Verdict.UNKNOWN or right is Verdict.UNKNOWN:
        return Verdict.UNKNOWN
    return Verdict.SAT


@settings(max_examples=200, deadline=None)
@given(_conditions("a"), _conditions("b"))
def test_split_verdict_equals_conjunction(left, right):
    solver = ConditionSolver(_DOMAINS, memo=None)
    split = conjoin_verdicts(solver.sat_verdict(left), solver.sat_verdict(right))
    assert split is ConditionSolver(_DOMAINS, memo=None).sat_verdict(
        conjoin([left, right])
    )

"""ServeState: durability ordering, recovery equivalence, degradation."""

from __future__ import annotations

import json

import pytest

from repro.ctable.condition import TRUE
from repro.ctable.io import load_database
from repro.faurelog.incremental import IncrementalEvaluator
from repro.faurelog.parser import parse_program
from repro.serve.protocol import ServeRequestError, parse_values, parse_where
from repro.serve.state import ServeBudgets, row_to_obj
from repro.serve.wal import UpdateEntry
from repro.solver.interface import ConditionSolver

from .conftest import PROGRAM_TEXT, NEGATION_PROGRAM_TEXT


def insert(relation, values, condition=None, txid=None, weaken=False):
    return UpdateEntry(
        kind="weaken" if weaken else "insert",
        relation=relation,
        values=tuple(values),
        condition=condition,
        txid=txid,
    )


#: A stream with unconditional, conditional, and weakening updates.
STREAM = [
    insert("F", ("p1", "C", "D")),
    insert("F", ("p2", "E", "G"), condition="$up == 1"),
    insert("F", ("p1", "D", "A")),
    insert("F", ("p2", "A", "E"), condition="$up == 0", weaken=True),
]


def rows_of(state, relation="R"):
    answer = state.query(relation)
    return json.dumps(answer["rows"], sort_keys=True)


def test_submit_applies_and_advances_epoch(make_state):
    state = make_state()
    before = state.epochs.current()
    result = state.submit(insert("F", ("p1", "C", "D")))
    assert result["ok"] and result["seq"] == 1
    assert result["derived"] >= 1  # at least C->D itself reaches R
    after = state.epochs.current()
    assert after.epoch == before.epoch + 1
    assert after.seq == 1
    # the pre-update snapshot object is untouched
    assert len(before.relation("R")) < len(after.relation("R"))


def test_rejected_updates_never_reach_the_wal(make_state):
    state = make_state()
    for entry, code in [
        (insert("R", ("p1", "A", "B")), "IDB_INSERT"),
        (insert("Nope", ("p1",)), "UNKNOWN_RELATION"),
        (insert("F", ("p1", "A")), "ARITY"),
    ]:
        with pytest.raises(ServeRequestError) as exc:
            state.submit(entry)
        assert exc.value.code == code
    assert len(state.wal) == 0
    assert state.counters["updates_rejected"] == 3
    # the resident state is not poisoned: a good update still lands
    assert state.submit(insert("F", ("p1", "C", "D")))["ok"]


def test_non_monotone_update_rejected_without_poisoning(make_state, db_text):
    db_obj = json.loads(db_text)
    db_obj["tables"].append({"name": "Acl", "schema": ["src", "dst"], "rows": []})
    state = make_state(
        wal_name="neg.wal",
        program_text=NEGATION_PROGRAM_TEXT,
        database_text=json.dumps(db_obj),
    )
    with pytest.raises(ServeRequestError) as exc:
        state.submit(insert("Acl", ("A", "B")))
    assert exc.value.code == "NON_MONOTONE"
    assert len(state.wal) == 0
    # F does not flow through negation, so it still grows fine
    assert state.submit(insert("F", ("p1", "C", "D")))["ok"]


def test_duplicate_txid_answers_original_sequence(make_state):
    state = make_state()
    first = state.submit(insert("F", ("p1", "C", "D"), txid="k1"))
    replayed = state.submit(insert("F", ("p1", "C", "D"), txid="k1"))
    assert replayed["duplicate"] and replayed["seq"] == first["seq"]
    assert len(state.wal) == 1
    assert state.counters["updates_duplicate"] == 1


def test_restart_recovers_byte_identical_answers(make_state):
    state = make_state(wal_name="shared.wal")
    for entry in STREAM:
        state.submit(entry)
    expected_r = rows_of(state, "R")
    expected_f = rows_of(state, "F")

    recovered = make_state(wal_name="shared.wal")  # same WAL: a restart
    assert rows_of(recovered, "R") == expected_r
    assert rows_of(recovered, "F") == expected_f
    assert recovered.wal.last_seq == state.wal.last_seq
    # ... and the recovered daemon keeps ingesting past the replayed log
    assert recovered.submit(insert("F", ("p1", "D", "C")))["seq"] == len(STREAM) + 1


def test_recovery_matches_from_scratch_evaluation(make_state, db_text):
    """The WAL replay invariant, checked against a hand-rolled rerun."""
    state = make_state()
    for entry in STREAM:
        state.submit(entry)

    database, domains = load_database(db_text)
    evaluator = IncrementalEvaluator(
        parse_program(PROGRAM_TEXT), database, solver=ConditionSolver(domains)
    )
    for entry in STREAM:
        condition = parse_where(entry.condition)
        evaluator.apply(
            entry.kind,
            entry.relation,
            parse_values(list(entry.values)),
            condition if condition is not None else TRUE,
        )
    expected = json.dumps(
        [row_to_obj(tup) for tup in evaluator.table("R")], sort_keys=True
    )
    assert rows_of(state, "R") == expected


def test_apply_blowup_recovers_via_rebuild(make_state, monkeypatch):
    state = make_state()
    state.submit(STREAM[0])
    calls = {"n": 0}

    def exploding_apply(*args, **kwargs):
        calls["n"] += 1
        raise RuntimeError("injected apply failure")

    monkeypatch.setattr(state.evaluator, "apply", exploding_apply)
    result = state.submit(STREAM[1])
    assert result["ok"] and result.get("recovered") is True
    assert calls["n"] == 1  # the rebuild used a fresh evaluator, not the mock
    assert state.counters["recoveries"] == 1
    # the update that blew up mid-apply is durable and applied
    assert state.wal.last_seq == 2
    snapshot = state.epochs.current()
    assert snapshot.seq == 2

    # recovered state equals a clean run over the same two updates
    clean = make_state(wal_name="clean.wal")
    clean.submit(STREAM[0])
    clean.submit(STREAM[1])
    assert rows_of(state, "R") == rows_of(clean, "R")


def test_mid_apply_queries_see_the_previous_epoch(make_state, monkeypatch):
    state = make_state()
    seen = {}

    original_insert = state.evaluator.insert

    def observing_insert(predicate, values, condition=TRUE):
        # a "concurrent" query while the update applies
        snapshot = state.epochs.current()
        seen["epoch"] = snapshot.epoch
        seen["rows"] = len(snapshot.relation("R"))
        return original_insert(predicate, values, condition)

    monkeypatch.setattr(state.evaluator, "insert", observing_insert)
    before = state.epochs.current()
    state.submit(insert("F", ("p1", "C", "D")))
    assert seen["epoch"] == before.epoch
    assert seen["rows"] == len(before.relation("R"))
    assert state.epochs.current().epoch == before.epoch + 1


def test_query_where_filter_prunes_unsat_rows(make_state):
    state = make_state()
    answer = state.query("F", where="$up == 1")
    flows = {row["values"][0]["const"] for row in answer["rows"]}
    assert answer["status"] == "OK"
    assert flows == {"p1", "p2"}  # p2's guard ($up == 1) is consistent
    answer = state.query("F", where="$up == 1 AND $up == 0")
    flows = {row["values"][0]["const"] for row in answer["rows"]}
    # contradictory filter: only unconditional rows survive... none do,
    # because conjoining with the filter is itself unsatisfiable
    assert flows == set()


def test_query_budget_exhaustion_degrades_to_inconclusive(make_state):
    state = make_state(budgets=ServeBudgets(solver_call_budget=0))
    answer = state.query("F", where="$up == 1")
    assert answer["status"] == "INCONCLUSIVE"
    undecided = [row for row in answer["rows"] if row.get("unknown")]
    assert undecided  # the rows it could not decide are flagged, not dropped
    assert state.counters["queries_inconclusive"] == 1


def test_update_budget_exhaustion_degrades_without_poisoning_the_wal(make_state):
    """A spent update budget keeps UNKNOWN tuples instead of failing apply.

    Were the apply to raise, its entry would already be durable: the
    in-process rebuild and every restart would replay it into the same
    failure.
    """
    budgets = ServeBudgets(solver_call_budget=0)
    state = make_state(wal_name="budget.wal", budgets=budgets)
    result = state.submit(insert("F", ("p2", "E", "G"), condition="$up == 1"))
    assert result["ok"]
    assert "recovered" not in result
    assert state.counters["recoveries"] == 0
    expected = rows_of(state, "R")

    restarted = make_state(wal_name="budget.wal", budgets=budgets)
    assert rows_of(restarted, "R") == expected


def test_program_variable_condition_never_reaches_the_wal(make_state):
    """``n1 == 1`` names a program variable: refused before durability.

    Logged, it would fail ``apply``, fail the in-process rebuild, and
    then fail every restart on the same WAL.
    """
    state = make_state()
    state.submit(insert("F", ("p1", "C", "D")))
    for bad in ("n1 == 1", "$up == 1 AND n1 == 2", "NOT (x != 0)"):
        with pytest.raises(ServeRequestError) as exc:
            state.submit(insert("F", ("p1", "D", "E"), condition=bad))
        assert exc.value.code == "MALFORMED"
    with pytest.raises(ServeRequestError) as exc:
        state.submit(insert("F", ("((", "D", "E")))
    assert exc.value.code == "MALFORMED"
    assert len(state.wal) == 1
    assert state.counters["updates_rejected"] == 4
    assert state.counters["recoveries"] == 0
    before = rows_of(state)
    state.close()
    restarted = make_state()  # the same WAL comes back up
    assert restarted.wal.last_seq == 1
    assert rows_of(restarted) == before


def test_query_bare_column_filter_is_malformed(make_state):
    state = make_state()
    with pytest.raises(ServeRequestError) as exc:
        state.query("R", where="f == 1")
    assert exc.value.code == "MALFORMED"


@pytest.mark.parametrize("limit", [-1, 1.5, "2"])
def test_query_rejects_a_bad_limit_in_process(make_state, limit):
    state = make_state()
    with pytest.raises(ServeRequestError) as exc:
        state.query("R", limit=limit)
    assert exc.value.code == "MALFORMED"
    assert state.counters["queries"] == 0


def test_query_limit_truncates_deterministically(make_state):
    state = make_state()
    full = state.query("F")
    limited = state.query("F", limit=1)
    assert limited["truncated"] is True
    assert limited["total"] == full["total"]
    assert limited["rows"] == full["rows"][:1]


def test_wal_fingerprint_guards_against_foreign_workloads(make_state, db_text):
    from repro.robustness.errors import CheckpointError

    make_state(wal_name="guarded.wal")
    other_db = db_text.replace("p1", "q9")
    with pytest.raises(CheckpointError, match="different workload"):
        make_state(wal_name="guarded.wal", database_text=other_db)

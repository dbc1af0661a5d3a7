"""``benchmarks/report.py``: every gate is evaluated before the exit.

A failing gate must not end ``main`` early and hide the gates after it.
These tests feed ``main`` synthetic reports and read what it prints.
"""

import pytest

from benchmarks import report


def _reports(incremental_ok, restart_ok, wal_ok):
    rows = [
        {"query": q, "prefixes": 10, "wall_s": 1.0, "tuples": 5}
        for q in report.QUERIES
    ]
    return {
        "BENCH_table4.json": {"cpu_count": 2, "rows": rows},
    }, {
        "rows": [],
        "final_tuples_agree": incremental_ok,
        "events": 4,
        "update_latency_p50_s": 0.01,
        "speedup_vs_recompute": 3.0,
    }, {
        "rows": [],
        "restart_rows_agree": restart_ok,
        "wal_bounded": wal_ok,
        "wal_entries": 99,
        "clients": 2,
        "query_p50_s": 0.01,
        "query_p99_s": 0.02,
        "ingest_per_s": 100.0,
        "shed_rate": 0.0,
        "compactions": 1,
    }


def _run(monkeypatch, tmp_path, capsys, **gates):
    table4, incremental, serve = _reports(**gates)
    monkeypatch.setattr(report, "build_reports", lambda sizes: dict(table4))
    monkeypatch.setattr(report, "build_incremental_report", lambda *a: incremental)
    monkeypatch.setattr(report, "build_serve_report", lambda *a: serve)
    code = report.main(["--smoke", "--out-dir", str(tmp_path)])
    return code, capsys.readouterr().err


def test_all_gates_pass(monkeypatch, tmp_path, capsys):
    code, err = _run(
        monkeypatch, tmp_path, capsys, incremental_ok=True, restart_ok=True, wal_ok=True
    )
    assert code == 0 and err == ""


def test_every_failing_gate_is_reported(monkeypatch, tmp_path, capsys):
    code, err = _run(
        monkeypatch, tmp_path, capsys,
        incremental_ok=False, restart_ok=False, wal_ok=False,
    )
    assert code == 1
    assert "MISMATCH: incremental maintenance" in err
    assert "MISMATCH: serve daemon cold restart" in err
    assert "FAIL: serve WAL unbounded" in err


@pytest.mark.parametrize("gate", ["incremental_ok", "restart_ok", "wal_ok"])
def test_each_correctness_gate_alone_fails_the_run(monkeypatch, tmp_path, capsys, gate):
    gates = dict(incremental_ok=True, restart_ok=True, wal_ok=True)
    gates[gate] = False
    code, err = _run(monkeypatch, tmp_path, capsys, **gates)
    assert code == 1 and err.count("\n") == 1

"""``benchmarks/report.py``: every gate is evaluated before the exit.

A failing ``--jobs`` gate used to end ``main`` early, so the incremental
and serve correctness gates were never checked on a host where the jobs
gates fail.  These tests feed ``main`` synthetic reports and read what
it prints.
"""

import pytest

from benchmarks import report


def _row(query, jobs, wall, solver=0.1):
    return {
        "query": query,
        "prefixes": 10,
        "jobs": jobs,
        "wall_s": wall,
        "cpu_s": wall,
        "solver_s": solver,
        "tuples": 5,
        "speedup_vs_serial": 1.0 if jobs == 1 else 1.0 / wall,
    }


def _reports(jobs_ok, incremental_ok, restart_ok, wal_ok):
    slow = 1.0 if jobs_ok else 9.0
    rows = [_row(q, 1, 1.0) for q in report.QUERIES]
    rows += [_row(q, 2, slow / 2 if jobs_ok else slow) for q in report.QUERIES]
    meta = {"cpu_count": 2, "tuple_counts_agree": True, "tuple_mismatches": []}
    return {
        "BENCH_table4.json": {**meta, "rows": rows[:3]},
        "BENCH_parallel.json": {**meta, "rows": rows},
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
    parallel, incremental, serve = _reports(**gates)
    monkeypatch.setattr(report, "build_reports", lambda sizes, jobs: dict(parallel))
    monkeypatch.setattr(report, "build_incremental_report", lambda *a: incremental)
    monkeypatch.setattr(report, "build_serve_report", lambda *a: serve)
    code = report.main(["--smoke", "--out-dir", str(tmp_path)])
    return code, capsys.readouterr().err


def test_all_gates_pass(monkeypatch, tmp_path, capsys):
    code, err = _run(
        monkeypatch, tmp_path, capsys,
        jobs_ok=True, incremental_ok=True, restart_ok=True, wal_ok=True,
    )
    assert code == 0 and err == ""


def test_failing_jobs_gates_do_not_hide_correctness_gates(monkeypatch, tmp_path, capsys):
    code, err = _run(
        monkeypatch, tmp_path, capsys,
        jobs_ok=False, incremental_ok=False, restart_ok=False, wal_ok=False,
    )
    assert code == 1
    assert "FAIL: jobs=2 q6-q8" in err
    assert "FAIL: best q6-q8 speedup" in err
    assert "MISMATCH: incremental maintenance" in err
    assert "MISMATCH: serve daemon cold restart" in err
    assert "FAIL: serve WAL unbounded" in err


@pytest.mark.parametrize("gate", ["incremental_ok", "restart_ok", "wal_ok"])
def test_each_correctness_gate_alone_fails_the_run(monkeypatch, tmp_path, capsys, gate):
    gates = dict(jobs_ok=True, incremental_ok=True, restart_ok=True, wal_ok=True)
    gates[gate] = False
    code, err = _run(monkeypatch, tmp_path, capsys, **gates)
    assert code == 1 and err.count("\n") == 1

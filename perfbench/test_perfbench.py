"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The repeatability tests run the traced benchmark twice per workload
(about two minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _bench(workload: str, seed: int, trace: int, seconds: int = 3, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Counts a later change may cite as evidence: they must repeat exactly.
EXACT = {
    "rib-fixpoint": ("solver.decisions", "faurelog.tuples_generated", "engine.probes"),
    "rib-patterns": ("solver.decisions", "faurelog.tuples_generated", "engine.probes"),
    "serve-mixed": ("serve.fsyncs_per_update", "serve.wal_bytes_per_update",
                    "serve.compactions", "solver.decisions"),
}


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_traced_counts_repeat_exactly(workload):
    first = _result(_bench(workload, seed=5, trace=1))
    second = _result(_bench(workload, seed=5, trace=1))
    assert first["correct"] and second["correct"]
    names = {name for name, _ in layers.PER_LAYER}
    assert set(first["metrics"]) == names
    for name in EXACT[workload]:
        value = first["metrics"][name]["value"]
        assert value is not None and value > 0, name
        assert value == second["metrics"][name]["value"], name


def test_untraced_run_reports_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    result = _result(_bench("rib-fixpoint", seed=2, trace=0))
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_same_seed_same_digest():
    digests = []
    for _ in range(2):
        proc = _bench("rib-patterns", seed=3, trace=0, seconds=1)
        _result(proc)
        digests.append([line for line in proc.stdout.splitlines() if "digest" in line])
    assert digests[0] and digests[0] == digests[1]


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("rib-fixpoint", seed=1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_world_check_catches_a_lost_row():
    import ribwork

    routes, compiled = ribwork.make_rib(9, 0)
    table = ribwork.fixpoint_op(compiled)
    flow = routes[0].prefix
    assert ribwork.check_flow(compiled, flow, table) is None
    doomed = next(t for t in table if t.values[0].value == flow)
    broken = type(table)(table.name, table.schema)
    for tup in table:
        if tup is not doomed:
            broken.add(tup)
    assert ribwork.check_flow(compiled, flow, broken) is not None


def test_failed_check_makes_the_command_fail(monkeypatch, capsys):
    import ribwork

    def broken(seed, seconds, trace):
        metrics = {"setup_s": {"value": 1.0, "unit": "s"}}
        return {"attempted": 1, "failed": 0, "errors": ["mismatch"]}, metrics, []

    monkeypatch.setattr(ribwork, "rib_fixpoint", broken)
    monkeypatch.setenv("PYTHONHASHSEED", run.hash_seed(4))
    code = run.main(["--workload", "rib-fixpoint", "--seed", "4", "--seconds", "1"])
    assert code != 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_traced_serve_output_must_match_untraced(monkeypatch):
    import servework

    real, calls = servework.rows_only, []

    def tampered(resp):
        # the first projection taken is the untraced phase's final R
        calls.append(resp)
        return real(resp) + (" " if len(calls) == 1 else "")

    monkeypatch.setattr(servework, "rows_only", tampered)
    summary, _, _ = servework.serve_mixed(5, 3, trace=True)
    assert any("differs from the untraced" in e for e in summary["errors"]), summary["errors"]


def test_unreadable_daemon_rss_is_an_error_not_zero(monkeypatch):
    import common
    import servework

    monkeypatch.setattr(common, "pid_peak_rss_mb", lambda pid: None)
    summary, metrics, _ = servework.serve_mixed(6, 3, trace=False)
    assert any("peak RSS" in e for e in summary["errors"])
    assert metrics["peak_rss_mb"]["value"] is None


def test_self_time_and_nesting():
    t = tracing.Tracer()
    t.enabled = True
    t.begin_op(scope="op")
    outer = t.enter("network.fixpoint")
    time.sleep(0.01)
    inner = t.enter("faurelog.evaluate")
    time.sleep(0.02)
    t.exit(inner)
    t.exit(outer)
    total = t.total("op", "network.fixpoint")
    child = t.total("op", "faurelog.evaluate")
    assert t.self_time("op", "network.fixpoint") == pytest.approx(total - child)
    assert t.nesting_violations() == 0
    parent = next(s for s in t.spans if s[1] == "network.fixpoint")
    kid = next(s for s in t.spans if s[1] == "faurelog.evaluate")
    assert kid[4] == parent[0] and parent[2] <= kid[2] and kid[3] <= parent[3]


def test_renamed_source_reports_null():
    # stand-ins for a later version where a method and a field were renamed
    class IncrementalEvaluator:
        pass

    class EvalStats:
        iterations = 3

    t = tracing.Tracer()
    t.patch(IncrementalEvaluator, "apply", t.timed("faurelog.inc_apply"))
    t.fields(EvalStats(), ("iterations", "tuples_generated"))
    report = layers.report({}, t, 1.0)
    assert report["faurelog.inc_apply_ms"]["value"] is None
    assert report["faurelog.tuples_generated"]["value"] is None
    assert report["faurelog.iterations"]["value"] == 0.0

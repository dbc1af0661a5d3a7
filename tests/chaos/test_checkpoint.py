"""Checkpoint/resume: a killed run must resume byte-for-byte.

The journal's contracts under test, bottom-up: durable-or-absent
appends (torn tails discarded), idempotent records, fingerprint-guarded
resume, the memo observer bridge — and the acceptance bar: a ``rib
analyze`` run hard-killed mid-checkpoint resumes to stdout identical to
an uninterrupted run, re-running zero completed units.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ctable.condition import Comparison
from repro.ctable.terms import Constant, CVariable
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
from repro.robustness.checkpoint import CheckpointJournal, fingerprint_of
from repro.robustness.errors import CheckpointError
from repro.solver import BOOL_DOMAIN, DomainMap
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable
from repro.verify.constraints import Constraint
from repro.verify.verifier import RelativeCompleteVerifier
from repro.workloads.ribgen import dump_rib

FP = fingerprint_of("workload-under-test")
SRC = Path(__file__).resolve().parents[2] / "src"


def stable_lines(output: str) -> str:
    """Everything but wall-clock timings (the only permitted variance)."""
    return "\n".join(
        line for line in output.splitlines() if "seconds" not in line
    )


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("FAURE_CHAOS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )


class TestJournalUnits:
    def test_record_get_roundtrip(self, tmp_path):
        journal = CheckpointJournal.open(str(tmp_path / "ck.jsonl"), FP)
        journal.record("table", {"unit": "reach"}, {"rows": 3})
        assert journal.get("table", {"unit": "reach"}) == {"rows": 3}
        assert journal.get("table", {"unit": "other"}) is None
        assert journal.recorded == 1

    def test_record_is_idempotent_per_key(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.open(str(path), FP)
        journal.record("pattern", {"q": 1}, {"n": 1})
        journal.record("pattern", {"q": 1}, {"n": 1})
        journal.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one record, not two

    def test_reopen_replays_durable_records(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        journal = CheckpointJournal.open(path, FP)
        journal.record("verify", {"i": 0}, {"status": "SATISFIED"})
        journal.record("verify", {"i": 1}, {"status": "VIOLATED"})
        journal.close()
        resumed = CheckpointJournal.open(path, FP)
        assert resumed.replayed == 2
        assert resumed.recorded == 0
        assert resumed.get("verify", {"i": 1}) == {"status": "VIOLATED"}

    def test_fingerprint_mismatch_is_a_hard_error(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        CheckpointJournal.open(path, FP).close()
        with pytest.raises(CheckpointError, match="different workload"):
            CheckpointJournal.open(path, fingerprint_of("something else"))

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("not a journal\n")
        with pytest.raises(CheckpointError, match="bad header"):
            CheckpointJournal.open(str(path), FP)

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        """A record is either durable or absent — never half-replayed."""
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.open(str(path), FP)
        journal.record("table", {"unit": "reach"}, {"rows": 3})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "pattern", "key": "abc", "pay')  # died here
        resumed = CheckpointJournal.open(str(path), FP)
        assert resumed.replayed == 1
        resumed.record("pattern", {"q": 9}, {"n": 2})
        resumed.close()
        # The torn line is gone; every surviving line parses.
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)


class TestMemoBridge:
    def test_attach_streams_and_replays_definite_verdicts(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        x = CVariable("x")
        domains = DomainMap({x: BOOL_DOMAIN})
        condition = Comparison(x, "=", Constant(1))

        journal = CheckpointJournal.open(path, FP)
        memo = MemoTable()
        assert journal.attach(memo, domains) == 0
        memo.put(memo.sat_key(condition, domains), True)
        assert journal.recorded == 1
        journal.close()

        resumed = CheckpointJournal.open(path, FP)
        fresh = MemoTable()
        assert resumed.attach(fresh, domains) == 1
        assert fresh.peek(fresh.sat_key(condition, domains)) is True
        # Replayed entries are not re-journaled (resume stays minimal).
        assert resumed.recorded == 0
        resumed.close()


class TestVerifyResume:
    def scenario(self):
        model = EnterpriseModel.paper_state()
        solver = ConditionSolver(model.domain_map(), memo=MemoTable())
        verifier = RelativeCompleteVerifier(
            [Constraint("C_lb", policy_C_lb()), Constraint("C_s", policy_C_s())],
            solver,
            schemas=SCHEMAS,
            column_domains=column_domains(),
        )
        targets = [Constraint("T1", constraint_T1()), Constraint("T2", constraint_T2())]
        return model, verifier, targets

    def test_resumed_run_reverifies_nothing(self, tmp_path):
        path = str(tmp_path / "verify.jsonl")
        model, verifier, targets = self.scenario()
        journal = CheckpointJournal.open(path, FP)
        first = verifier.verify_many(
            targets,
            update=listing4_update(),
            state=model.database(),
            checkpoint=journal,
        )
        assert journal.recorded == len(targets)
        journal.close()

        resumed = CheckpointJournal.open(path, FP)
        model2, verifier2, targets2 = self.scenario()
        second = verifier2.verify_many(
            targets2,
            update=listing4_update(),
            state=model2.database(),
            checkpoint=resumed,
        )
        assert resumed.recorded == 0  # zero re-verified units
        for a, b in zip(first, second):
            assert a.status == b.status
            assert a.decided_by == b.decided_by
            assert a.trail == b.trail


class TestCliKillResume:
    """Kill mid-checkpoint, resume, identical stdout."""

    def test_analyze_killed_then_resumed_matches_uninterrupted(self, rib, tmp_path):
        routes, _ = rib
        rib_file = tmp_path / "rib.txt"
        rib_file.write_text(dump_rib(routes))
        base = ["rib", "analyze", str(rib_file), "--patterns"]

        uninterrupted = run_cli(base + ["--checkpoint", str(tmp_path / "ck0.jsonl")])
        assert uninterrupted.returncode == 0, uninterrupted.stderr

        checkpoint = tmp_path / "ck.jsonl"
        killed = run_cli(
            base + ["--checkpoint", str(checkpoint)],
            env_extra={
                "FAURE_CHAOS": f"die-after-records:2:{tmp_path / 'die-sentinel'}"
            },
        )
        assert killed.returncode == 1  # hard-exited mid-run
        assert checkpoint.exists() and checkpoint.stat().st_size > 0

        resumed = run_cli(base + ["--checkpoint", str(checkpoint)])
        assert resumed.returncode == 0, resumed.stderr
        assert stable_lines(resumed.stdout) == stable_lines(uninterrupted.stdout)
        # The resume replayed the killed run's durable units…
        assert "-- checkpoint:" in resumed.stderr
        replayed = int(resumed.stderr.split("-- checkpoint: ")[1].split()[0])
        assert replayed >= 2
        # …and a third run replays everything, recording nothing new.
        again = run_cli(base + ["--checkpoint", str(checkpoint)])
        assert again.returncode == 0
        assert stable_lines(again.stdout) == stable_lines(uninterrupted.stdout)
        assert "0 recorded" in again.stderr

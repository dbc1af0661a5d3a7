"""The benchmark tracer's hooks still find what they wrap.

``perfbench/tracer.py`` wraps library calls by name (``evaluation.derive``,
``IndexedTable.candidates``, the solver entry points, the serve request
path).  A hook whose target was renamed is skipped and recorded in
``Tracer.missing``, and every per-layer metric built on it then reads
null.  These tests load the tracer file as it is and fail when a hook
no longer resolves, or when the fixpoint no longer goes through the
hooked ``derive`` and ``candidates``.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.ctable.table import CTuple, Database
from repro.faurelog import evaluation
from repro.faurelog.parser import parse_program
from repro.solver.domains import DomainMap
from repro.solver.interface import ConditionSolver

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("install", ["install_library", "install_serve"])
def test_every_hook_resolves(tracing, install):
    tracer = tracing.Tracer()
    getattr(tracing, install)(tracer)
    try:
        assert tracer.missing == set()
        assert tracer._patched
    finally:
        tracer.uninstall()
    assert not tracer._patched


def test_fixpoint_runs_through_the_hooked_calls(tracing):
    original = evaluation.derive
    db = Database()
    edges = db.create_table("E", ["a", "b"])
    for a, b in [(1, 2), (2, 3), (3, 1)]:
        edges.add(CTuple([a, b]))
    program = parse_program("P(x, y) :- E(x, y).\nP(x, z) :- E(x, y), P(y, z).")
    tracer = tracing.Tracer()
    tracing.install_library(tracer)
    tracer.enabled = True
    try:
        tracer.begin_op(scope="op")
        evaluator = evaluation.FaureEvaluator(db, solver=ConditionSolver(DomainMap()))
        result = evaluator.evaluate(program)
    finally:
        tracer.uninstall()
    assert evaluation.derive is original
    assert len(result.table("P")) == 9
    assert tracer.calls("op", "faurelog.evaluate") == 1
    assert tracer.calls("op", "faurelog.derive") > 0
    assert tracer.calls("op", "engine.probe") > 0
    assert tracer.calls("op", "solver.sat") > 0
    assert tracer.counter("op", "eval.tuples_generated") == 9

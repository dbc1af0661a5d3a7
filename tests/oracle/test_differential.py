"""Differential tests: fauré answers vs. the world-enumeration oracle.

Three regimes per representative program:

* **memo on** (a fresh shared table) — the default pipeline setup;
* **memo off** (``memo=None``) — the ``--no-memo`` escape hatch; the
  rendered answers must be *byte-identical* to the memoized run;
* **fault injection** — ≥30% of governed solver calls raise, the
  governor degrades them to UNKNOWN, and the (less simplified) answer
  must still match ground truth in every world, with memoization both
  on and off;
* **lint rewrite** — dropping the F016 rules and evaluating over the
  narrowed domains (F018) renders the plain run's bytes, also under
  fault injection (narrowing only: rule removal would shift the
  call-indexed fault schedule).
"""

import pytest

from repro.robustness.faultinject import FaultInjector, FaultPlan
from repro.robustness.governor import Governor
from repro.solver.memo import MemoTable

from .oracle import CASES, assert_matches_worlds, render_result, run_faure


@pytest.fixture(params=CASES, ids=[c.name for c in CASES])
def case(request):
    return request.param


def test_memo_on_matches_every_world(case):
    result = run_faure(case, memo=MemoTable())
    worlds = assert_matches_worlds(case, result)
    assert worlds > 1  # the database really is uncertain


def test_memo_off_matches_every_world(case):
    result = run_faure(case, memo=None)
    assert_matches_worlds(case, result)


def test_memo_on_off_byte_identical(case):
    with_memo = run_faure(case, memo=MemoTable())
    without = run_faure(case, memo=None)
    assert render_result(with_memo, case.outputs) == render_result(
        without, case.outputs
    )


@pytest.mark.parametrize("memo_factory", [MemoTable, lambda: None], ids=["memo", "no-memo"])
def test_fault_injection_matches_every_world(case, memo_factory):
    """≥30% injected faults: degraded answers keep per-world semantics."""
    injector = FaultInjector(FaultPlan(timeout_every=2))
    governor = Governor(on_budget="degrade", injector=injector)
    governor.start()
    result = run_faure(case, memo=memo_factory(), governor=governor)
    assert_matches_worlds(case, result)
    assert injector.calls > 0, "fault plan never exercised"
    ratio = injector.total_injected / injector.calls
    assert ratio >= 0.3, f"injected only {ratio:.0%} of solver calls"


def _run_rewritten(case, governor=None, drop_dead=True):
    """Evaluate over the narrowed domains, without the F016 rules when
    ``drop_dead``; a head left without rules renders as an empty table."""
    from repro.analysis.dataflow import narrow_domains
    from repro.analysis.optimize import whole_program_findings
    from repro.ctable.table import CTable
    from repro.faurelog.ast import Program
    from repro.faurelog.evaluation import FaureEvaluator
    from repro.solver.interface import ConditionSolver

    program = case.program
    if drop_dead:
        findings = whole_program_findings(program, case.database, case.domains)
        dead = {d.span for d in findings if d.code == "F016"}
        program = Program([r for r in program if r.span not in dead])
    narrowed = narrow_domains(case.program, case.database, case.domains).domains
    solver = ConditionSolver(narrowed, governor=governor, memo=None)
    evaluator = FaureEvaluator(case.database, solver=solver, governor=governor)
    result = evaluator.evaluate(program)
    for name in case.outputs:
        if name not in result:
            arity = case.program.arity_of(name)
            result.add_table(CTable(name, [f"c{i}" for i in range(arity)]))
    return result


def test_optimizer_on_off_byte_identical(case):
    baseline = run_faure(case, memo=None)
    rewritten = _run_rewritten(case)
    assert render_result(rewritten, case.outputs) == render_result(
        baseline, case.outputs
    )


def test_optimizer_fault_injection_byte_identical(case):
    """Under ≥30% injected faults the narrowed-domain run keeps the plain
    faulted run's bytes."""

    def faulted():
        injector = FaultInjector(FaultPlan(timeout_every=2))
        governor = Governor(on_budget="degrade", injector=injector)
        governor.start()
        return governor, injector

    gov_plain, _ = faulted()
    baseline = run_faure(case, memo=None, governor=gov_plain)
    gov_narrow, injector = faulted()
    narrow = _run_rewritten(case, governor=gov_narrow, drop_dead=False)
    assert render_result(narrow, case.outputs) == render_result(
        baseline, case.outputs
    )
    assert injector.calls > 0, "fault plan never exercised"
    ratio = injector.total_injected / injector.calls
    assert ratio >= 0.3, f"injected only {ratio:.0%} of solver calls"

"""Zero-false-positive oracle for the whole-program lint findings.

F016, F017 and F019 each make a checkable claim about evaluation; each
claim is validated on seeded random programs against the plain evaluator
or against world enumeration:

* **F016** (rule can never contribute): evaluating the program with every
  flagged rule removed renders the same bytes, the removed heads as empty
  tables;
* **F017 family** (static-true / static-false conjuncts): the conjunct's
  verdict is checked under *all* assignments over the declared domains;
* **F019** (rule cannot reach the requested output): evaluating the
  program with the flagged rules removed renders the same bytes for that
  output;
* **F016 + F018 together** (the program rewrite the findings license):
  evaluating the program with the F016 rules removed, over the narrowed
  domains, renders the same bytes as the plain run on ≥300 programs;
* **fault injection**: with ≥30% of governed solver calls raising, the
  narrowed-domain run still renders the plain faulted run's bytes (rule
  removal is left out here: it would shift the call-indexed schedule);
* the dataflow facts behind them over-approximate every possible world.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

import pytest

from repro.analysis.dataflow import analyze, narrow_domains
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.optimize import classify_rule, whole_program_findings
from repro.ctable.condition import TRUE, eq, ne
from repro.ctable.parse import Span
from repro.ctable.table import CTable, Database
from repro.ctable.terms import CVariable
from repro.ctable.worlds import iter_assignments
from repro.faurelog.ast import Program
from repro.faurelog.evaluation import evaluate
from repro.faurelog.parser import parse_program
from repro.robustness.faultinject import FaultInjector, FaultPlan
from repro.robustness.governor import Governor
from repro.solver.domains import DomainMap, FiniteDomain
from repro.solver.interface import ConditionSolver

from tests.oracle.oracle import render_result

SEED_COUNT = 300

#: Head predicates are distinct per template so any subset composes into
#: an arity-consistent program.  ``{k}`` draws from 0..3 while the
#: condition variables range over {0,1,2} — k=3 manufactures statically
#: false conjuncts (the F016/F017 raw material).
_TEMPLATES = [
    "O1(x, y) :- E(x, y).",
    "O2(x, z) :- E(x, y), E(y, z).",
    "O3(x, y) :- E(x, y), x != y.",
    "O4(x, y) :- E(x, y), $u = {k}.",
    "O5(x, y) :- E(x, y), $u != {k}.",
    "O6(x, y) :- E(x, y), $v = {k2}, $v != {k2}.",
    "P(x, y) :- E(x, y).\nP(x, z) :- P(x, y), E(y, z).",
    "Dead(x, y) :- E(x, y), $u = 9.",
    "N(x) :- E(x, y).\nM(x) :- E(x, x).\nO8(x) :- N(x), not M(x).",
]


def _random_case(seed: int) -> Tuple[Program, Database, DomainMap, List[str]]:
    rng = random.Random(seed)
    u, v = CVariable("u"), CVariable("v")
    domains = DomainMap({u: FiniteDomain([0, 1, 2]), v: FiniteDomain([0, 1, 2])})

    db = Database()
    table = db.create_table("E", ["a", "b"])
    conditions = [
        lambda: TRUE,
        lambda: eq(u, rng.randint(0, 2)),
        lambda: ne(u, rng.randint(0, 2)),
        lambda: eq(v, rng.randint(0, 2)),
        lambda: ne(v, rng.randint(0, 2)),
    ]
    for _ in range(rng.randint(2, 5)):
        row = [rng.randint(0, 2), rng.randint(0, 2)]
        table.add(row, rng.choice(conditions)())

    chosen = rng.sample(_TEMPLATES, rng.randint(1, 3))
    text = "\n".join(
        t.format(k=rng.randint(0, 3), k2=rng.randint(0, 3)) for t in chosen
    )
    program = parse_program(text)
    outputs = sorted(program.idb_predicates())
    return program, db, domains, outputs


def _run_plain(
    program: Program,
    db: Database,
    domains: DomainMap,
    governor: Optional[Governor] = None,
) -> Database:
    solver = ConditionSolver(domains, governor=governor, memo=None)
    return evaluate(program, db, solver=solver, governor=governor)


def _flagged(findings: List[Diagnostic], code: str) -> Set[Span]:
    """Source spans of the rules a finding code names."""
    return {d.span for d in findings if d.code == code}


def _without(program: Program, spans: Set[Span]) -> Program:
    """``program`` with the rules at ``spans`` removed."""
    return Program([r for r in program if r.span not in spans])


def _with_empty_heads(result: Database, program: Program, outputs: List[str]) -> Database:
    """Add an empty table for each output left without rules, as the
    full run derives one for it."""
    for name in outputs:
        if name not in result:
            arity = program.arity_of(name)
            result.add_table(CTable(name, [f"c{i}" for i in range(arity)]))
    return result


# -- the rewrite the findings license, over random programs ------------------


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_optimizer_on_off_byte_identical(seed):
    """Dropping the F016 rules and evaluating over the narrowed domains
    (the F018 claim) renders exactly the plain run's bytes."""
    program, db, domains, outputs = _random_case(seed)
    dead = _flagged(whole_program_findings(program, db, domains), "F016")
    narrowed = narrow_domains(program, db, domains).domains
    baseline = render_result(_run_plain(program, db, domains), outputs)
    rewritten = _with_empty_heads(
        _run_plain(_without(program, dead), db, narrowed), program, outputs
    )
    assert render_result(rewritten, outputs) == baseline, f"seed {seed} diverged"


# -- fault injection ---------------------------------------------------------


def _faulted_governor() -> Tuple[Governor, FaultInjector]:
    injector = FaultInjector(FaultPlan(timeout_every=2))
    governor = Governor(on_budget="degrade", injector=injector)
    governor.start()
    return governor, injector


@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 5))
def test_fault_injection_byte_identical(seed):
    """Under injected faults the narrowed-domain run keeps the plain
    faulted run's bytes: narrowing shifts no solver call."""
    program, db, domains, outputs = _random_case(seed)
    narrowed = narrow_domains(program, db, domains).domains

    gov_plain, _ = _faulted_governor()
    baseline = render_result(
        _run_plain(program, db, domains, governor=gov_plain), outputs
    )
    gov_narrow, injector = _faulted_governor()
    narrow = render_result(
        _run_plain(program, db, narrowed, governor=gov_narrow), outputs
    )
    assert narrow == baseline, f"seed {seed} diverged under fault injection"
    if injector.calls >= 2:  # the every-2nd-call plan needs 2 calls to fire
        ratio = injector.total_injected / injector.calls
        assert ratio >= 0.3, f"injected only {ratio:.0%} of solver calls"


def test_fault_injection_exercised():
    """Across the sweep the fault plan actually fires (≥30% of calls)."""
    calls = injected = 0
    for seed in range(0, SEED_COUNT, 5):
        program, db, domains, _ = _random_case(seed)
        narrowed = narrow_domains(program, db, domains).domains
        governor, injector = _faulted_governor()
        _run_plain(program, db, narrowed, governor=governor)
        calls += injector.calls
        injected += injector.total_injected
    assert calls > 0, "fault plan never exercised"
    assert injected / calls >= 0.3


# -- zero false positives ----------------------------------------------------


def _f016_seeds() -> List[int]:
    hits = []
    for seed in range(SEED_COUNT):
        program, db, domains, _ = _random_case(seed)
        if _flagged(whole_program_findings(program, db, domains), "F016"):
            hits.append(seed)
        if len(hits) >= 25:
            break
    return hits


@pytest.mark.parametrize("seed", _f016_seeds())
def test_f016_rules_truly_contribute_nothing(seed):
    """Removing every F016-flagged rule from the program must not change
    a single output byte — the enumeration oracle for 'this rule can
    never contribute'.  A head left without rules renders as the empty
    table the full run derives for it."""
    program, db, domains, outputs = _random_case(seed)
    dead = _flagged(whole_program_findings(program, db, domains), "F016")
    assert dead
    with_rules = render_result(_run_plain(program, db, domains), outputs)
    without = _with_empty_heads(
        _run_plain(_without(program, dead), db, domains), program, outputs
    )
    assert render_result(without, outputs) == with_rules


@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 7))
def test_query_slicing_preserves_requested_output(seed):
    """Removing every rule F019 reports as unable to reach the requested
    output leaves that output's bytes unchanged."""
    program, db, domains, outputs = _random_case(seed)
    target = outputs[seed % len(outputs)]
    findings = whole_program_findings(program, db, domains, outputs=[target])
    sliced = _without(program, _flagged(findings, "F019"))
    baseline = render_result(_run_plain(program, db, domains), [target])
    assert render_result(_run_plain(sliced, db, domains), [target]) == baseline


def test_f017_conjuncts_hold_in_every_world():
    """Every static-true conjunct holds, and every static-false conjunct
    fails, under *all* assignments over the declared domains."""
    checked = 0
    for seed in range(SEED_COUNT):
        program, db, domains, _ = _random_case(seed)
        narrowed = narrow_domains(program, db, domains).domains
        for rule in program:
            for conjunct in classify_rule(rule, narrowed).conjuncts:
                if conjunct.tag not in ("static-true", "static-false"):
                    continue
                cvars = sorted(conjunct.condition.cvariables(), key=lambda c: c.name)
                verdicts = {
                    conjunct.condition.evaluate(assignment)
                    for assignment in iter_assignments(cvars, domains)
                }
                if conjunct.tag == "static-true":
                    assert verdicts == {True}, (seed, str(conjunct.condition))
                else:
                    assert verdicts == {False}, (seed, str(conjunct.condition))
                checked += 1
        if checked >= 60:
            break
    assert checked > 0, "fuzz corpus produced no statically classified conjuncts"


# -- dataflow facts are sound over-approximations ----------------------------


@pytest.mark.parametrize("seed", range(0, SEED_COUNT, 11))
def test_dataflow_facts_over_approximate_every_world(seed):
    """Any value a predicate argument takes in any possible world must be
    contained in the abstract fact the fixpoint computed for that slot."""
    program, db, domains, outputs = _random_case(seed)
    flow = analyze(program, db, domains)
    result = _run_plain(program, db, domains)
    # Both declared variables, not just the database's: rule conjuncts can
    # mention $u/$v even when no stored row does.
    cvars = [CVariable("u"), CVariable("v")]
    for assignment in iter_assignments(cvars, domains):
        for name in outputs:
            if name not in result:
                continue
            for tup in result.table(name):
                if not tup.condition.evaluate(assignment):
                    continue
                for index, term in enumerate(tup.values):
                    if isinstance(term, CVariable):
                        value = assignment[term].value
                    else:
                        value = term.value
                    fact = flow.fact(name, index)
                    assert fact.contains(value), (
                        f"seed {seed}: {name}[{index}] = {value!r} "
                        f"outside abstract value {fact.describe()}"
                    )

"""The solver's raw rung: decide before canonicalizing.

``ConditionSolver.sat_verdict`` first tries :func:`repro.solver.atoms.raw_sat`
— sat(A) = not (A ⊨ ⊥) over the atomized candidate space of the raw
condition — and interns a canonical form only when that misses.  This
suite pins three things:

* raw-rung verdicts never contradict world enumeration, and
  contradictory pins (an empty candidate class) are definite UNSAT;
* one governed call is charged per decision whichever rung decides, so
  the fault-injection call count and the verdict stream are the same
  with the memo on or off and the fast path on or off;
* a cold q4-q5 fixpoint on a generated RIB interns nothing.
"""

import random

import pytest

from repro.ctable.condition import And, Comparison, LinearAtom, Or, eq, ne
from repro.ctable.terms import Constant
from repro.network.forwarding import compile_forwarding
from repro.network.reachability import ReachabilityAnalyzer
from repro.robustness.faultinject import FaultInjector, FaultPlan
from repro.robustness.governor import Governor
from repro.robustness.verdict import Verdict
from repro.solver import atoms
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable
from repro.workloads import failures
from repro.workloads.ribgen import RibConfig, generate_rib

from .test_fastpath_fuzz import (
    CONDITIONS,
    DOMAINS,
    NUM_VARS,
    STR_VAR,
    _ground_sat,
)

W0, W1, W2 = NUM_VARS


def _contradictory_pins() -> list:
    """``u = 1 ∧ u = 0 ∧ …`` shapes: some class is left with no value."""
    rng = random.Random(20261018)
    shapes = [
        And([eq(W0, 1), eq(W0, 0)]),
        And([eq(W0, 1), eq(W0, 0), eq(W1, 2)]),
        And([eq(W1, 2), eq(W0, 1), eq(W2, 0), eq(W0, 0)]),
        And([eq(STR_VAR, "a"), eq(STR_VAR, "b")]),
        # Pinned outside the declared domain {0, 1, 2}.
        And([eq(W0, 3), eq(W1, 1)]),
        # Two pins meeting through an equality chain.
        And([Comparison(W0, "=", W1), eq(W0, 1), eq(W1, 0)]),
        # Pins that exclude every value through interval literals.
        And([Comparison(W0, ">", Constant(1)), Comparison(W0, "<", Constant(2))]),
        And([eq(W0, 2), ne(W0, 2), eq(W1, 0)]),
    ]
    for _ in range(40):
        # The contradiction plus noise the atomizer does not consume.
        var = rng.choice(NUM_VARS)
        a, b = rng.sample([0, 1, 2], 2)
        noise = [
            Or([eq(rng.choice(NUM_VARS), rng.choice([0, 1, 2])),
                eq(rng.choice(NUM_VARS), rng.choice([0, 1, 2]))]),
            LinearAtom(NUM_VARS, rng.choice(["<=", ">=", "="]), rng.randrange(0, 7)),
            Comparison(rng.choice(NUM_VARS), rng.choice(["<", "!="]), rng.choice(NUM_VARS)),
        ]
        children = [eq(var, a), eq(var, b)] + rng.sample(noise, rng.randrange(0, 4))
        rng.shuffle(children)
        shapes.append(And(children))
    return shapes


CONTRADICTIONS = _contradictory_pins()


def test_raw_sat_never_contradicts_oracle():
    decided = 0
    for cond in CONDITIONS:
        raw = atoms.raw_sat(cond, DOMAINS)
        if raw is None:
            continue
        decided += 1
        assert raw == _ground_sat(cond), f"raw_sat lied on {cond!r}"
    assert decided > 50, "raw rung decided almost nothing — fuzzer off target"


@pytest.mark.parametrize("cond", CONTRADICTIONS)
def test_contradictory_pins_are_definite_unsat(cond):
    assert not _ground_sat(cond)
    assert atoms.raw_sat(cond, DOMAINS) is False
    assert atoms.fast_implies(cond, eq(W2, 1), DOMAINS) is True
    memo = MemoTable()
    solver = ConditionSolver(DOMAINS, memo=memo)
    assert solver.sat_verdict(cond) is Verdict.UNSAT
    assert solver.stats.fast_path_hits == 1
    assert solver.stats.canonical_collapses == 0
    assert len(memo.interner) == 0 and len(memo) == 0


def _governed_stream(memo, fast_path: bool):
    injector = FaultInjector(FaultPlan(timeout_every=2))
    governor = Governor(on_budget="degrade", injector=injector).start()
    solver = ConditionSolver(
        DOMAINS, governor=governor, memo=memo, fast_path=fast_path
    )
    stream = [solver.sat_verdict(c) for c in CONDITIONS + CONTRADICTIONS]
    return stream, injector.calls


def test_one_charge_per_decision_whatever_the_rung():
    """Charged calls and verdicts do not depend on which rung decides."""
    runs = {
        (memo, fast): _governed_stream(MemoTable() if memo else None, fast)
        for memo in (True, False)
        for fast in (True, False)
    }
    streams = {key: stream for key, (stream, _) in runs.items()}
    calls = {key: n for key, (_, n) in runs.items()}
    reference_stream = streams[(True, True)]
    assert all(s == reference_stream for s in streams.values()), "verdicts differ"
    assert len(set(calls.values())) == 1, calls
    assert Verdict.UNKNOWN in reference_stream, "the fault plan never fired"
    # Faults only ever degrade: every definite verdict is the fault-free one.
    clean = ConditionSolver(DOMAINS, memo=MemoTable())
    for got, cond in zip(reference_stream, CONDITIONS + CONTRADICTIONS):
        assert got is Verdict.UNKNOWN or got is clean.sat_verdict(cond)


def test_rib_fixpoint_and_patterns_intern_nothing():
    """A cold q4-q5 fixpoint and its q6/q8 pattern queries on a
    150-prefix RIB are decided without one canonical form."""
    routes = generate_rib(RibConfig(prefixes=150, as_count=60, seed=1009))
    compiled = compile_forwarding(routes)
    memo = MemoTable()
    solver = ConditionSolver(compiled.domains, memo=memo)
    analyzer = ReachabilityAnalyzer(compiled.database(), solver, per_flow=True)
    analyzer.compute()
    assert analyzer.stats.tuples_generated > 0
    assert solver.stats.sat_calls > 0
    assert solver.stats.canonical_collapses == 0
    assert len(memo.interner) == 0
    queried = 0
    for route in routes:
        variables = list(compiled.variables_of(route.prefix))
        if len(variables) < 2:
            continue
        for pattern in (  # q6 and q8
            failures.exactly_k_failures(variables, len(variables) - 1),
            failures.at_least_k_failures(variables, 1),
        ):
            analyzer.under_pattern(pattern, name="T", flow=route.prefix)
            queried += 1
    assert queried > 20
    assert solver.stats.canonical_collapses == 0
    assert len(memo.interner) == 0

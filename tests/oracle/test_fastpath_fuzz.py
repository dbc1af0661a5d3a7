"""Differential fuzz: the solver fast path vs. the world oracle.

The interval/atom semi-decision procedure (:mod:`repro.solver.atoms`)
answers ``True``/``False`` only when it can *prove* the verdict, and
``None`` otherwise.  Over small finite domains every one of its claims
is checkable by brute force: enumerate all assignments and evaluate.
This suite throws ≥500 seeded random conditions at it and demands

* ``fast_sat`` / ``fast_implies`` never contradict world enumeration;
* the full solver produces **byte-identical** verdict streams with the
  fast path on and off (tier 0 is a pure accelerator);
* memoization on/off does not change a single verdict;
* under ≥30% fault injection every definite verdict still matches the
  fault-free stream (faults only ever degrade to UNKNOWN);
* re-asking one antecedent against a growing disjunction, the
  ``is_new`` dedup shape, stays sound;
* the bit rung (cubes of boolean pins with one cardinality bound, the
  RIB shape) matches world enumeration for sat and for chains
  ``A ⊨ B1 ∨ … ∨ Bn``, and its verdict streams are byte-identical with
  the fast path on and off.
"""

import random

import pytest

from repro.ctable.condition import (
    And,
    Comparison,
    Condition,
    LinearAtom,
    Or,
    conjoin,
    disjoin,
    eq,
)
from repro.ctable.terms import Constant, CVariable
from repro.ctable.worlds import iter_assignments
from repro.robustness.faultinject import FaultInjector, FaultPlan
from repro.robustness.governor import Governor
from repro.robustness.verdict import Trivalent, Verdict
from repro.solver import atoms
from repro.solver.domains import DomainMap, FiniteDomain
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable

SEED = 20260808
N_CONDITIONS = 500

NUM_VARS = [CVariable("w0"), CVariable("w1"), CVariable("w2")]
STR_VAR = CVariable("s0")
NUM_VALUES = [0, 1, 2]
STR_VALUES = ["a", "b", "c"]
ORDER_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _domains() -> DomainMap:
    mapping = {v: FiniteDomain(NUM_VALUES) for v in NUM_VARS}
    mapping[STR_VAR] = FiniteDomain(STR_VALUES)
    return DomainMap(mapping)


DOMAINS = _domains()
ALL_VARS = NUM_VARS + [STR_VAR]


def _gen_atom(rng: random.Random) -> Condition:
    kind = rng.randrange(5)
    if kind == 0:  # numeric var-const (sometimes outside the domain)
        var = rng.choice(NUM_VARS)
        value = rng.choice(NUM_VALUES + [3, -1])
        return Comparison(var, rng.choice(ORDER_OPS), Constant(value))
    if kind == 1:  # numeric var-var
        a, b = rng.sample(NUM_VARS, 2)
        return Comparison(a, rng.choice(ORDER_OPS), b)
    if kind == 2:  # string var-const, equality fragment
        value = rng.choice(STR_VALUES + ["z"])
        return Comparison(STR_VAR, rng.choice(["=", "!="]), Constant(value))
    if kind == 3:  # linear sum over a numeric subset
        k = rng.randrange(1, len(NUM_VARS) + 1)
        vs = rng.sample(NUM_VARS, k)
        return LinearAtom(vs, rng.choice(ORDER_OPS), rng.randrange(0, 5))
    # pinning equality — the §4 hot-path shape
    var = rng.choice(ALL_VARS)
    pool = STR_VALUES if var is STR_VAR else NUM_VALUES
    return eq(var, rng.choice(pool))


def _gen_condition(rng: random.Random, depth: int = 2) -> Condition:
    if depth == 0 or rng.random() < 0.4:
        return _gen_atom(rng)
    children = [_gen_condition(rng, depth - 1) for _ in range(rng.randrange(2, 4))]
    return conjoin(children) if rng.random() < 0.6 else disjoin(children)


def _conditions() -> list:
    rng = random.Random(SEED)
    return [_gen_condition(rng) for _ in range(N_CONDITIONS)]


CONDITIONS = _conditions()


def _worlds(*conds: Condition):
    cvars = set()
    for c in conds:
        cvars |= c.cvariables()
    return iter_assignments(sorted(cvars, key=lambda v: v.name), DOMAINS)


def _ground_sat(cond: Condition) -> bool:
    return any(cond.evaluate(w) for w in _worlds(cond))


def _ground_implies(antecedent: Condition, consequent: Condition) -> bool:
    return all(
        consequent.evaluate(w)
        for w in _worlds(antecedent, consequent)
        if antecedent.evaluate(w)
    )


def _pairs() -> list:
    rng = random.Random(SEED + 1)
    pool = CONDITIONS
    return [
        (pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))])
        for _ in range(N_CONDITIONS)
    ]


def test_fast_sat_never_contradicts_oracle():
    decided = 0
    for cond in CONDITIONS:
        fast = atoms.fast_sat(cond, DOMAINS)
        if fast is None:
            continue
        decided += 1
        assert fast == _ground_sat(cond), f"fast_sat lied on {cond!r}"
    assert decided > 50, "fast path decided almost nothing — fuzzer off target"


def test_fast_implies_never_contradicts_oracle():
    decided = 0
    for antecedent, consequent in _pairs():
        fast = atoms.fast_implies(antecedent, consequent, DOMAINS)
        if fast is None:
            continue
        decided += 1
        assert fast == _ground_implies(antecedent, consequent), (
            f"fast_implies lied on {antecedent!r} ⊨ {consequent!r}"
        )
    assert decided > 50, "fast path decided almost nothing — fuzzer off target"


def _solver(fast_path: bool = True, memo="fresh", governor=None) -> ConditionSolver:
    table = MemoTable() if memo == "fresh" else memo
    return ConditionSolver(
        domains=DOMAINS, memo=table, fast_path=fast_path, governor=governor
    )


def _sat_stream(solver: ConditionSolver) -> list:
    return [solver.sat_verdict(cond) for cond in CONDITIONS]


def _implies_stream(solver: ConditionSolver) -> list:
    return [solver.implies_verdict(a, b) for a, b in _pairs()]


def test_fast_path_on_off_byte_identical():
    on, off = _solver(fast_path=True), _solver(fast_path=False)
    assert _sat_stream(on) == _sat_stream(off)
    assert _implies_stream(on) == _implies_stream(off)
    assert on.stats.fast_path_hits > 0, "fast path never fired"
    assert off.stats.fast_path_hits == 0
    assert Verdict.UNKNOWN not in _sat_stream(off)


def test_memo_on_off_byte_identical():
    with_memo, without = _solver(memo="fresh"), _solver(memo=None)
    assert _sat_stream(with_memo) == _sat_stream(without)
    assert _implies_stream(with_memo) == _implies_stream(without)


def test_unknown_never_cached_under_faults():
    injector = FaultInjector(FaultPlan(timeout_every=2))
    governor = Governor(on_budget="degrade", injector=injector)
    governor.start()
    faulty = _solver(governor=governor)
    baseline_stream = _sat_stream(_solver())
    faulty_stream = _sat_stream(faulty)
    for got, expected in zip(faulty_stream, baseline_stream):
        assert got == expected or got is Verdict.UNKNOWN, (
            "an injected fault changed a definite verdict"
        )
    assert injector.calls > 0, "fault plan never exercised"
    ratio = injector.total_injected / injector.calls
    assert ratio >= 0.3, f"injected only {ratio:.0%} of solver calls"
    # Degraded verdicts must not stick: re-asking with the faults gone
    # (same solver, same memo) recovers every definite answer.
    governor.injector = None
    recovered = _sat_stream(faulty)
    assert recovered == baseline_stream


@pytest.mark.parametrize("memo", ["fresh", None], ids=["memo", "no-memo"])
def test_fault_injection_implies_parity(memo):
    injector = FaultInjector(FaultPlan(timeout_every=2))
    governor = Governor(on_budget="degrade", injector=injector)
    governor.start()
    faulty = _solver(memo=memo, governor=governor)
    baseline_stream = _implies_stream(_solver())
    for got, expected in zip(_implies_stream(faulty), baseline_stream):
        assert got == expected or got is Trivalent.UNKNOWN


def test_growing_disjunction_matches_oracle():
    """The ``is_new`` shape: one antecedent vs. an ever-growing Or.

    Each step re-asks the same antecedent against a consequent with one
    more disjunct, so a disjunct that newly covers the last countermodel
    must flip the answer.
    """
    rng = random.Random(SEED + 2)
    solver = _solver()
    checks = 0
    for _ in range(40):
        pins = [eq(v, rng.choice(NUM_VALUES)) for v in NUM_VARS]
        antecedent = conjoin(pins + [eq(STR_VAR, rng.choice(STR_VALUES))])
        stored: list = []
        for _ in range(6):
            stored.append(
                conjoin(
                    [eq(v, rng.choice(NUM_VALUES)) for v in rng.sample(NUM_VARS, 2)]
                )
            )
            consequent = disjoin(list(stored))
            got = solver.implies_verdict(antecedent, consequent)
            expected = _ground_implies(antecedent, consequent)
            assert got == (Trivalent.TRUE if expected else Trivalent.FALSE)
            checks += 1
    assert checks == 240


def test_bit_rung_rereads_redeclared_domains():
    """The bit rung's per-map domain check must not outlive a re-declare.

    A cube over a boolean variable is decided by bit operations; once
    the variable is re-declared over {0, 1, 2} the same question has a
    different answer (``v = 2`` falsifies both disjuncts), and a cached
    "all boolean" from before would report a wrong entailment.
    """
    v, w = CVariable("w0"), CVariable("w1")
    antecedent = eq(w, 1)
    consequent = disjoin([conjoin([eq(w, 1), eq(v, 0)]), conjoin([eq(w, 1), eq(v, 1)])])
    domains = DomainMap({v: FiniteDomain([0, 1]), w: FiniteDomain([0, 1])})
    assert atoms.fast_implies(antecedent, consequent, domains) is True
    domains.declare(v, FiniteDomain([0, 1, 2]))
    assert atoms.fast_implies(antecedent, consequent, domains) is not True
    assert ConditionSolver(domains, memo=None).implies(antecedent, consequent) is False


# -- the RIB shape: boolean pins with one cardinality bound --------------------

BOOL_VARS = [CVariable(f"b{i}") for i in range(10)]
BOOL_DOMAINS = DomainMap({v: FiniteDomain([0, 1]) for v in BOOL_VARS})
#: The same variables with two of them over {0, 1, 2}: the bit rung must
#: step aside (``None``) for any cube that reads those two.
MIXED_DOMAINS = DomainMap(
    {v: FiniteDomain([0, 1, 2] if i >= 8 else [0, 1]) for i, v in enumerate(BOOL_VARS)}
)
CARD_OPS = ["=", "<=", ">="]


def _gen_cube(rng: random.Random, pool: list, bound_p: float) -> Condition:
    """A literal conjunction over ``pool``, with one Σ bound at ``bound_p``.

    Pins include out-of-domain ones (``b = 2``) and self-conflicts
    (``b = 0 ∧ b = 1``), the two shapes the bit rung must refute.
    """
    parts = []
    for var in rng.sample(pool, rng.randrange(1, min(5, len(pool)) + 1)):
        roll = rng.random()
        if roll < 0.05:
            parts.append(eq(var, 2))
        elif roll < 0.12:
            parts += [eq(var, 0), eq(var, 1)]
        else:
            parts.append(eq(var, rng.randrange(2)))
    rng.shuffle(parts)
    if rng.random() < bound_p:
        over = rng.sample(pool, rng.randrange(2, len(pool) + 1))
        parts.append(LinearAtom(over, rng.choice(CARD_OPS), rng.randrange(0, len(over) + 1)))
    return conjoin(parts)


def _bool_chains() -> list:
    """(A, [B1, …, Bn]) chains over 6–10 boolean variables; the bound sits
    mostly on A, as the q6/q8 pattern does."""
    rng = random.Random(SEED + 3)
    chains = []
    for _ in range(100):
        pool = BOOL_VARS[: rng.randrange(6, 11)]
        antecedent = _gen_cube(rng, pool, 0.7)
        stored = [_gen_cube(rng, pool, 0.25) for _ in range(rng.randrange(1, 7))]
        chains.append((antecedent, stored))
    return chains


BOOL_CHAINS = _bool_chains()


def _bool_stream(solver: ConditionSolver) -> list:
    out = []
    for antecedent, stored in BOOL_CHAINS:
        out.append(solver.sat_verdict(antecedent))
        for i in range(1, len(stored) + 1):
            out.append(solver.implies_verdict(antecedent, disjoin(stored[:i])))
    return out


@pytest.mark.parametrize("domains", [BOOL_DOMAINS, MIXED_DOMAINS], ids=["boolean", "mixed"])
def test_bit_rung_matches_worlds(domains):
    def worlds(*conds):
        cvars = set().union(*(c.cvariables() for c in conds))
        return iter_assignments(sorted(cvars, key=lambda v: v.name), domains)

    def boolean(*conds):
        return all(domains.domain_of(v).size() == 2 for c in conds for v in c.cvariables())

    sat_decided = implies_decided = 0
    for antecedent, stored in BOOL_CHAINS:
        for cond in [antecedent] + stored:
            expected = any(cond.evaluate(w) for w in worlds(cond))
            cube = atoms.cube_of(cond)
            if cube is not None:
                verdict = atoms._cube_sat(cube, domains)
                assert verdict is not None or not boolean(cond), f"bit rung missed {cond}"
                if verdict is not None:
                    sat_decided += 1
                    assert verdict == expected, f"bit rung sat lied on {cond}"
            assert atoms.raw_sat(cond, domains) in (expected, None)
        for i in range(1, len(stored) + 1):
            consequent = disjoin(stored[:i])
            expected = all(
                consequent.evaluate(w)
                for w in worlds(antecedent, consequent)
                if antecedent.evaluate(w)
            )
            got = atoms.fast_implies(antecedent, consequent, domains)
            assert got in (expected, None), f"fast_implies lied on {antecedent} ⊨ {consequent}"
            cube = atoms.cube_of(antecedent)
            if cube is not None:
                bits = atoms._cube_implies(cube, consequent, domains)
                if bits is not None:
                    implies_decided += 1
                    assert bits == expected, f"bit rung lied on {antecedent} ⊨ {consequent}"
    assert sat_decided > 200 and implies_decided > 150, "fuzzer off the bit rung"


@pytest.mark.parametrize("domains", [BOOL_DOMAINS, MIXED_DOMAINS], ids=["boolean", "mixed"])
def test_bit_rung_on_off_byte_identical(domains):
    on = ConditionSolver(domains, memo=MemoTable())
    off = ConditionSolver(domains, memo=MemoTable(), fast_path=False)
    assert _bool_stream(on) == _bool_stream(off)
    assert on.stats.fast_path_hits > 0 and off.stats.fast_path_hits == 0

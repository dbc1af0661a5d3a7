"""Differential check: the compiled body plan vs. the interpreted search.

:func:`repro.faurelog.valuation.derive` compiles each rule body into a
plan of slot binds, slot checks and probe patterns.  The interpreted
depth-first search it replaced is kept below, verbatim, as the
reference.  On seeded random rules over small c-tables, and at every
semi-naive delta position, both must yield the same stream: the same
derivations in the same order, each with the same bindings (in the same
key order) and a condition whose conjuncts render identically.

The random rules cover c-variable entries (including rows that land in
a multi-column index's wildcard bucket), rule-level c-variables in atom
positions, negated literals, literal annotations, comparisons that fire
mid-body, comparisons that never become ready, and symbols bound before
the search starts (``initial_bindings``).  A hand-written
three-literal body checks the greedy order flipping on whether a bound
value is a constant or a c-variable.  Finally, three hand mutants of
the plan (a swapped tie-break, a dropped wildcard check, conjuncts out
of order) must each be caught by the same comparison.
"""

import random
import types
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.ctable.condition import (
    TRUE,
    Comparison,
    Condition,
    FalseCond,
    LinearAtom,
    conjoin,
)
from repro.ctable.table import CTable, CTuple, Database
from repro.ctable.terms import Constant, CVariable, Term, Variable
from repro.engine.storage import IndexedTable, Storage
from repro.faurelog import valuation
from repro.faurelog.ast import Atom, Literal, Rule
from repro.faurelog.valuation import Bindings, Derivation, negation_condition, unify_value

SEED = 20261019
N_RULES = 300

# -- the interpreted search, kept verbatim as the reference ------------------


def _match_tuple(
    atom: Atom,
    tup: CTuple,
    bindings: Bindings,
) -> Optional[Tuple[Bindings, List[Condition]]]:
    """Match one atom against one tuple under current bindings.

    Returns extended bindings and the equality conditions generated by
    implicit pattern matching, or ``None`` on mismatch.
    """
    new_bindings = dict(bindings)
    conditions: List[Condition] = []
    for term, entry in zip(atom.terms, tup.values):
        if isinstance(term, (Variable, CVariable)):
            bound = new_bindings.get(term)
            if bound is None:
                new_bindings[term] = entry
                continue
            cond = unify_value(bound, entry)
        else:
            cond = unify_value(term, entry)
        if cond is None:
            return None
        if cond is not TRUE:
            conditions.append(cond)
    return new_bindings, conditions


def _resolve(term: Term, bindings: Bindings) -> Term:
    if isinstance(term, (Variable, CVariable)):
        return bindings.get(term, term)
    return term


def _probe_pattern(atom: Atom, bindings: Bindings) -> List[Optional[Constant]]:
    """Constant positions usable for index probing."""
    pattern: List[Optional[Constant]] = []
    for term in atom.terms:
        resolved = _resolve(term, bindings)
        pattern.append(resolved if isinstance(resolved, Constant) else None)
    return pattern


def _comparison_ready(condition: Condition, bindings: Bindings, bindable) -> bool:
    """A comparison fires once its bindable symbols are all bound.

    Program variables always bind; a c-variable binds when it occurs in a
    positive atom position of the rule (``bindable``) — otherwise it is a
    global reference and never blocks firing.
    """
    from repro.ctable.condition import LinearAtom

    for atom in condition.atoms():
        if isinstance(atom, Comparison):
            sides = (atom.lhs, atom.rhs)
        elif isinstance(atom, LinearAtom):
            sides = tuple(v for v, _ in atom.coeffs)
        else:
            continue
        for t in sides:
            if isinstance(t, Variable) and t not in bindings:
                return False
            if isinstance(t, CVariable) and t in bindable and t not in bindings:
                return False
    return True


def _instantiation_score(literal: Literal, bindings: Bindings) -> int:
    score = 0
    for term in literal.atom.terms:
        resolved = _resolve(term, bindings)
        if isinstance(resolved, Constant):
            score += 2
        elif isinstance(resolved, CVariable):
            score += 1
    return score


class _BodySearch:
    """The depth-first body match behind one :func:`derive` call.

    An object rather than a recursive closure: a closure that calls
    itself references itself through its cell, and that cycle would keep
    the storage, its indexes and the delta tables alive after evaluation
    until a full garbage collection ran.
    """

    __slots__ = ("storage", "delta_override", "delta_position", "negatives", "bindable")

    def __init__(
        self,
        rule: Rule,
        storage: Storage,
        delta_override: Optional[Dict[str, IndexedTable]],
        delta_position: Optional[int],
    ):
        self.storage = storage
        self.delta_override = delta_override
        self.delta_position = delta_position
        self.negatives = list(rule.negative_literals())
        self.bindable = rule.bindable_cvariables()

    def table_for(self, index: int, literal: Literal) -> Optional[IndexedTable]:
        name = literal.predicate
        if index == self.delta_position:
            if self.delta_override is None or name not in self.delta_override:
                return None
            return self.delta_override[name]
        if name in self.storage:
            return self.storage.indexed(name)
        return None

    def search(
        self,
        remaining: List[Tuple[int, Literal]],
        bindings: Bindings,
        conds: List[Condition],
        pending_cmps: List[Condition],
    ) -> Iterator[Derivation]:
        # Fire any comparison whose variables are now bound.
        conds = list(conds)
        still_pending: List[Condition] = []
        for comparison in pending_cmps:
            if _comparison_ready(comparison, bindings, self.bindable):
                instantiated = comparison.substitute(bindings)
                if isinstance(instantiated, FalseCond):
                    return
                if instantiated is not TRUE:
                    conds.append(instantiated)
            else:
                still_pending.append(comparison)
        if not remaining:
            # Negations last (their variables are bound by safety).
            final_conds = list(conds)
            for comparison in still_pending:
                instantiated = comparison.substitute(bindings)
                if isinstance(instantiated, FalseCond):
                    return
                if instantiated is not TRUE:
                    final_conds.append(instantiated)
            storage = self.storage
            for negated in self.negatives:
                table = (
                    storage.indexed(negated.predicate)
                    if negated.predicate in storage
                    else None
                )
                neg_cond = negation_condition(negated, table, bindings)
                if isinstance(neg_cond, FalseCond):
                    return
                if neg_cond is not TRUE:
                    final_conds.append(neg_cond)
            yield dict(bindings), conjoin(final_conds)
            return
        # Greedy choice: most instantiated literal next; on a tie, the
        # one reading the semi-naive delta (the standard semi-naive
        # order: the delta drives, the full relations are probed).
        best_i = 0
        if len(remaining) > 1:
            best_key = None
            for i, (index, literal) in enumerate(remaining):
                key = (_instantiation_score(literal, bindings), index == self.delta_position)
                if best_key is None or key > best_key:
                    best_i, best_key = i, key
        index, literal = remaining[best_i]
        rest = remaining[:best_i] + remaining[best_i + 1:]
        table = self.table_for(index, literal)
        if table is None:
            return
        annotation = literal.annotation
        pattern = _probe_pattern(literal.atom, bindings)
        for tup in table.candidates(pattern):
            match = _match_tuple(literal.atom, tup, bindings)
            if match is None:
                continue
            new_bindings, eq_conds = match
            tuple_conds = eq_conds + [tup.condition]
            if annotation is not TRUE:
                instantiated = annotation.substitute(new_bindings)
                if isinstance(instantiated, FalseCond):
                    continue
                if instantiated is not TRUE:
                    tuple_conds.append(instantiated)
            yield from self.search(rest, new_bindings, conds + tuple_conds, still_pending)


def reference_derive(
    rule: Rule,
    storage: Storage,
    initial_bindings: Optional[Bindings] = None,
    delta_override: Optional[Dict[str, IndexedTable]] = None,
    delta_position: Optional[int] = None,
) -> Iterator[Derivation]:
    body = _BodySearch(rule, storage, delta_override, delta_position)
    yield from body.search(
        list(enumerate(rule.positive_literals())),
        dict(initial_bindings or {}),
        [],
        list(rule.comparisons()),
    )


# -- random inputs -------------------------------------------------------------

ARITIES = {"P": 2, "Q": 3, "S": 2, "N": 2}
CONSTS = [Constant(1), Constant(2), Constant(3)]
ENTRY_CVARS = [CVariable("e1"), CVariable("e2")]
PINS = [CVariable("u1"), CVariable("u2")]
VARS = [Variable("X"), Variable("Y"), Variable("Z"), Variable("W")]
RULE_CVARS = [CVariable("a"), CVariable("b")]


def _entry(rng: random.Random) -> Term:
    return rng.choice(ENTRY_CVARS) if rng.random() < 0.3 else rng.choice(CONSTS)


def _row_condition(rng: random.Random) -> Condition:
    roll = rng.random()
    if roll < 0.5:
        return TRUE
    if roll < 0.8:
        return Comparison(rng.choice(PINS), "=", rng.randint(0, 1))
    return Comparison(rng.choice(ENTRY_CVARS), "!=", rng.choice(CONSTS))


def random_database(rng: random.Random) -> Database:
    db = Database()
    for name, arity in ARITIES.items():
        table = db.create_table(name, [f"c{i}" for i in range(arity)])
        for _ in range(rng.randint(2, 7)):
            table.add(CTuple([_entry(rng) for _ in range(arity)], _row_condition(rng)))
    return db


def _term(rng: random.Random) -> Term:
    roll = rng.random()
    if roll < 0.6:
        return rng.choice(VARS)
    if roll < 0.8:
        return rng.choice(CONSTS)
    return rng.choice(RULE_CVARS)


def _comparison(rng: random.Random, symbols: List[Term]) -> Condition:
    roll = rng.random()
    if roll < 0.35 and len(symbols) >= 2:
        lhs, rhs = rng.sample(symbols, 2)
        return Comparison(lhs, rng.choice(["!=", "="]), rhs)
    if roll < 0.6:
        return Comparison(rng.choice(symbols), rng.choice(["!=", "<", "="]), rng.choice(CONSTS))
    if roll < 0.75:
        cvars = [s for s in symbols if isinstance(s, CVariable)] + PINS[:1]
        return LinearAtom(cvars, "<=", 2)
    if roll < 0.9:
        # never becomes ready: V occurs in no positive atom
        return Comparison(Variable("V"), "!=", rng.choice(CONSTS))
    return Comparison(rng.choice(PINS), "=", 1)  # global: ready at once


def random_rule(rng: random.Random) -> Rule:
    body: list = []
    symbols: List[Term] = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(["P", "Q", "S"])
        terms = [_term(rng) for _ in range(ARITIES[name])]
        symbols.extend(t for t in terms if not isinstance(t, Constant) and t not in symbols)
        annotation = TRUE
        if rng.random() < 0.3:
            target = rng.choice([t for t in terms if not isinstance(t, Constant)] or PINS)
            annotation = Comparison(target, "!=", rng.choice(CONSTS))
        body.append(Literal(Atom(name, terms), annotation=annotation))
    if symbols:
        for _ in range(rng.randint(0, 2)):
            body.insert(rng.randint(0, len(body)), _comparison(rng, symbols))
    if rng.random() < 0.3:
        pool = symbols + CONSTS + ([Variable("V")] if rng.random() < 0.2 else [])
        annotation = Comparison(rng.choice(PINS), "=", 0) if rng.random() < 0.5 else TRUE
        body.append(
            Literal(
                Atom("N", [rng.choice(pool) for _ in range(2)]),
                negated=True,
                annotation=annotation,
            )
        )
    head = [s for s in symbols if isinstance(s, Variable)][:2]
    return Rule(Atom("H", head), body, check_safety=False)


def random_delta(rng: random.Random, db: Database, name: str) -> IndexedTable:
    source = db.table(name)
    delta = CTable(name, source.schema)
    for tup in source:
        if rng.random() < 0.6:
            delta.add(tup)
    return IndexedTable(delta)


def _stream(derive_fn, rule, storage, **kwargs) -> list:
    """The whole derivation stream, rendered; an error ends it."""
    out = []
    try:
        for bindings, condition in derive_fn(rule, storage, **kwargs):
            out.append(([(repr(k), repr(v)) for k, v in bindings.items()], repr(condition)))
    except Exception as exc:  # both sides must fail alike
        out.append(("error", type(exc).__name__, str(exc)))
    return out


def _cases(seed: int, count: int):
    """(rule, database, kwargs) for every delta position of each random rule."""
    rng = random.Random(seed)
    for _ in range(count):
        db = random_database(rng)
        rule = random_rule(rng)
        yield rule, db, {}
        positives = list(rule.positive_literals())
        for position, literal in enumerate(positives):
            delta = {literal.predicate: random_delta(rng, db, literal.predicate)}
            yield rule, db, {"delta_override": delta, "delta_position": position}


def _mismatches(derive_fn, seed: int = SEED, count: int = N_RULES) -> int:
    bad = 0
    for rule, db, kwargs in _cases(seed, count):
        # one storage per side: each lazily builds its own indexes
        want = _stream(reference_derive, rule, Storage(db), **kwargs)
        got = _stream(derive_fn, rule, Storage(db), **kwargs)
        bad += want != got
    return bad


# -- the checks ---------------------------------------------------------------


def test_plan_matches_reference_on_random_rules():
    assert _mismatches(valuation.derive) == 0


def test_plan_matches_reference_with_initial_bindings():
    """Initially bound symbols (a constant or a c-variable for X) score,
    probe and unify from the start."""
    rng = random.Random(SEED + 1)
    bad = 0
    for rule, db, kwargs in _cases(SEED + 2, 100):
        kwargs = dict(kwargs, initial_bindings={VARS[0]: rng.choice(CONSTS + ENTRY_CVARS)})
        want = _stream(reference_derive, rule, Storage(db), **kwargs)
        bad += _stream(valuation.derive, rule, Storage(db), **kwargs) != want
    assert bad == 0


def _order_flips(rule, db, kwargs) -> bool:
    """Did some run-time choice of this plan pick more than one literal?"""
    plan = valuation._Plan(
        rule, Storage(db), {}, kwargs.get("delta_override"), kwargs.get("delta_position")
    )
    if None in plan.tables:
        return False
    try:
        list(plan.search(plan.root, []))
    except Exception:
        pass
    nodes, flips = [plan.root], False
    while nodes:
        node = nodes.pop()
        flips |= len(node.steps) > 1
        nodes += [step.child for step in ([node.step] if node.step else node.steps.values())]
    return flips


def test_random_rules_reach_every_feature(monkeypatch):
    """The random inputs really exercise what the module docstring lists."""
    seen = dict.fromkeys(
        ["derivations", "entry_cvar_bound", "wildcard_multi_probe", "negation", "annotation",
         "never_ready", "mid_body_comparison", "rule_cvar", "order_flip", "error"],
        0,
    )
    candidates = IndexedTable.candidates

    def watched(table, pattern):
        rows = list(candidates(table, pattern))
        probed = [col for col, want in enumerate(pattern) if want is not None]
        seen["wildcard_multi_probe"] += len(probed) >= 2 and any(
            not isinstance(row.values[col], Constant) for row in rows for col in probed
        )
        return iter(rows)

    monkeypatch.setattr(IndexedTable, "candidates", watched)
    for rule, db, kwargs in _cases(SEED, N_RULES):
        stream = _stream(valuation.derive, rule, Storage(db), **kwargs)
        if stream and stream[-1][0] == "error":
            seen["error"] += 1
        seen["derivations"] += sum(1 for item in stream if item[0] != "error")
        text = " ".join(item[1] for item in stream if item[0] != "error")
        seen["entry_cvar_bound"] += "e1" in text or "e2" in text
        seen["never_ready"] += "Variable('V')" in text
        seen["negation"] += any(lit.negated for lit in rule.literals())
        seen["annotation"] += any(lit.annotation is not TRUE for lit in rule.literals())
        seen["rule_cvar"] += bool(rule.bindable_cvariables())
        seen["mid_body_comparison"] += len(list(rule.positive_literals())) > 1 and any(
            isinstance(item, Condition) for item in rule.body
        )
        seen["order_flip"] += _order_flips(rule, db, kwargs)
    assert all(count > 0 for count in seen.values()), seen


def _flip_case():
    """P(X, Y), Q(Y, Z), S(X, W): after P, Q and S tie unless X is a
    constant and Y a c-variable, which hands the next step to S."""
    db = Database()
    P = db.create_table("P", ["a", "b"])
    P.add(CTuple([Constant(1), Constant(2)]))
    P.add(CTuple([Constant(1), CVariable("e1")], Comparison(CVariable("u1"), "=", 1)))
    P.add(CTuple([CVariable("e2"), Constant(2)]))
    Q = db.create_table("Q", ["a", "b"])
    Q.add(CTuple([Constant(2), Constant(3)]))
    Q.add(CTuple([CVariable("e2"), Constant(1)]))
    S = db.create_table("S", ["a", "b"])
    S.add(CTuple([Constant(1), Constant(3)], Comparison(CVariable("u2"), "=", 0)))
    S.add(CTuple([CVariable("e1"), Constant(2)]))
    X, Y, Z, W = VARS
    rule = Rule(
        Atom("H", [X, Z, W]),
        [
            Literal(Atom("P", [X, Y])),
            Literal(Atom("Q", [Y, Z])),
            Literal(Atom("S", [X, W])),
            Comparison(Z, "!=", W),
        ],
    )
    return rule, db


def test_greedy_order_flips_on_binding_kind():
    rule, db = _flip_case()
    want = _stream(reference_derive, rule, Storage(db))
    assert want and _stream(valuation.derive, rule, Storage(db)) == want
    plan = valuation._Plan(rule, Storage(db), {}, None, None)
    list(plan.search(plan.root, []))
    assert set(plan.root.steps) == {0}  # P first, scored at run time
    after_p = plan.root.steps[0].child
    assert set(after_p.steps) == {1, 2}  # both orders were taken


# -- mutants the comparison must catch ---------------------------------------

MUTANTS = {
    "swapped tie-break": ("i == self.delta", "i != self.delta"),
    "dropped wildcard check": (
        "                    step.probes.append((col, slot))\n"
        "                step.checks.append((col, slot))\n",
        "                    step.probes.append((col, slot))\n"
        "                else:\n"
        "                    step.checks.append((col, slot))\n",
    ),
    "conjuncts out of order": (
        "                conds.append(tup.condition)\n",
        "                conds.insert(mark, tup.condition)\n",
    ),
}


def _mutant(old: str, new: str) -> types.ModuleType:
    """A copy of the valuation module with one source edit, in memory."""
    with open(valuation.__file__, encoding="utf-8") as handle:
        source = handle.read()
    assert source.count(old) == 1, f"mutation anchor moved: {old!r}"
    module = types.ModuleType("repro.faurelog._valuation_mutant")
    module.__package__ = "repro.faurelog"
    exec(compile(source.replace(old, new), valuation.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name):
    old, new = MUTANTS[name]
    assert _mismatches(_mutant(old, new).derive, count=120) > 0

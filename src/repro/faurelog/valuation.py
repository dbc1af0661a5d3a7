"""The c-valuation ``v^C`` — matching rule bodies against c-tables.

Pure datalog valuation maps program variables to constants.  Fauré-log's
c-valuation (paper, §3) extends the target to the *c-domain*:

* a program variable (and a rule-level c-variable in an atom position)
  is assigned a constant **or a c-variable** by substitution;
* a constant matches itself, and also matches a c-variable entry ``ē``
  under the generated condition ``ē = c`` (implicit pattern matching) —
  provided that does not contradict the tuple's condition, which the
  solver-pruning step enforces.

This module produces, for one rule and one database, the stream of
*derivations*: (bindings, condition) pairs from which the head tuple is
built.  Negated literals contribute the c-table complement condition —
"no tuple of B matches u" — and comparison atoms contribute themselves,
with bindings substituted in.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..ctable.condition import Comparison, Condition, FalseCond, LinearAtom, TRUE, conjoin
from ..ctable.terms import Constant, CVariable, Term, Variable
from ..engine.storage import IndexedTable, Storage
from .ast import Literal, ProgramError, Rule

__all__ = ["Bindings", "Derivation", "derive", "build_head", "unify_value", "negation_condition"]

#: Bindable symbols: program variables and rule-level c-variables.
BindKey = Union[Variable, CVariable]
Bindings = Dict[BindKey, Term]

#: One successful body match: the bindings plus the derived condition.
Derivation = Tuple[Bindings, Condition]


def unify_value(value: Term, entry: Term) -> Optional[Condition]:
    """Unify a *resolved* value (constant or c-variable) with an entry.

    Returns the condition under which they are equal, or ``None`` when
    they cannot be (two distinct constants).
    """
    if value == entry:
        return TRUE
    if isinstance(value, Constant) and isinstance(entry, Constant):
        return None
    cond = Comparison(value, "=", entry).constant_fold()
    if isinstance(cond, FalseCond):
        return None
    return cond


def _resolve(term: Term, bindings: Bindings) -> Term:
    if isinstance(term, (Variable, CVariable)):
        return bindings.get(term, term)
    return term


def negation_condition(
    literal: Literal,
    table: Optional[IndexedTable],
    bindings: Bindings,
) -> Condition:
    """The c-table complement: "no tuple of B matches the atom".

    For each stored tuple the atom *could* match, conjoin the negation of
    (match equalities ∧ tuple condition ∧ annotation filter).  Tuples
    ruled out by constant mismatch contribute nothing.  A missing table
    (predicate with no facts) negates to TRUE.
    """
    if table is None:
        return TRUE
    resolved = [_resolve(t, bindings) for t in literal.atom.terms]
    for t in resolved:
        if isinstance(t, Variable):
            raise ProgramError(
                f"negated literal {literal} has unbound variable {t}"
            )
    parts: List[Condition] = []
    pattern = [t if isinstance(t, Constant) else None for t in resolved]
    for tup in table.candidates(pattern):
        eqs: List[Condition] = []
        dead = False
        for value, entry in zip(resolved, tup.values):
            cond = unify_value(value, entry)
            if cond is None:
                dead = True
                break
            if cond is not TRUE:
                eqs.append(cond)
        if dead:
            continue
        match_cond = conjoin(
            eqs
            + [tup.condition]
            + ([literal.annotation.substitute(bindings)] if literal.annotation is not TRUE else [])
        )
        if isinstance(match_cond, FalseCond):
            continue
        parts.append(match_cond.negate())
    return conjoin(parts)


def _symbols(condition: Condition) -> List[BindKey]:
    """The program variables and c-variables ``condition`` mentions."""
    out: Dict[BindKey, None] = {}  # an ordered set
    for atom in condition.atoms():
        if isinstance(atom, Comparison):
            sides = [atom.lhs, atom.rhs]
        else:
            sides = [v for v, _ in atom.coeffs] if isinstance(atom, LinearAtom) else []
        out.update((t, None) for t in sides if isinstance(t, (Variable, CVariable)))
    return list(out)


def _weight(value: Term) -> int:
    """A resolved term's share of a literal's instantiation score."""
    return 2 if isinstance(value, Constant) else 1 if isinstance(value, CVariable) else 0


class _Node:
    """The body search after matching the positive literals ``path``, in
    order, which bind the slots ``bound``; ``names`` pairs each bound
    symbol with its slot in bind order, ``fire`` holds the comparisons
    readied on the way in.  An inner node has its next ``step`` or run-time
    ``choices``; a leaf ends with ``pending`` (never-ready comparisons),
    then the negations, and is ``simple`` when it has neither."""

    __slots__ = (
        "path", "bound", "names", "fire", "pending", "leaf", "simple", "step", "choices", "steps"
    )


class _Step:
    """One positive literal compiled against what is bound before it."""

    __slots__ = ("index", "pattern", "probes", "binds", "checks", "readers", "child")


class _Plan:
    """The compiled body search behind one :func:`derive` call.

    Every program symbol and atom constant owns a slot of ``vals``.  A
    step binds entries to slots, checks entries against slots in column
    order, and fills its bound columns (``probes``) into a probe pattern
    that holds the atom's constants.  An object, not a recursive closure:
    a closure that calls itself references itself through its cell, and
    that cycle would keep the storage, its indexes and the delta tables
    alive after evaluation until a full garbage collection."""

    __slots__ = ("literals", "columns", "tables", "negatives", "delta", "fixed", "vals", "root")

    def __init__(self, rule, storage, initial, delta_override, delta_position):
        def table(name: str) -> Optional[IndexedTable]:
            return storage.indexed(name) if name in storage else None

        self.literals = list(rule.positive_literals())
        deltas = delta_override or {}
        self.tables = [
            deltas.get(lit.predicate) if i == delta_position else table(lit.predicate)
            for i, lit in enumerate(self.literals)
        ]
        self.root = None
        if None in self.tables:
            return  # no derivation can complete: compile nothing
        self.negatives = [(lit, table(lit.predicate)) for lit in rule.negative_literals()]
        self.delta, self.fixed = delta_position, len(initial)
        self.vals: List[Optional[Term]] = list(initial.values())
        # Per literal: (column, slot or None for a constant, term).  Bound
        # sets below hold slots, so compiling hashes each symbol once.
        slots: Dict[BindKey, int] = {key: i for i, key in enumerate(initial)}
        self.columns = []
        for lit in self.literals:
            self.columns.append([])
            for col, term in enumerate(lit.atom.terms):
                if isinstance(term, (Variable, CVariable)) and term not in slots:
                    slots[term] = len(self.vals)
                    self.vals.append(None)
                self.columns[-1].append((col, slots.get(term), term))
        # A comparison is ready once its program variables and its
        # c-variables in positive atoms are bound (-1: a variable no atom
        # binds); other c-variables are global references.
        comparisons = []
        for comparison in rule.comparisons():
            symbols = _symbols(comparison)
            needs = {slots.get(t, -1) for t in symbols if isinstance(t, Variable)}
            needs.update(slots[t] for t in symbols if slots.get(t, -1) >= self.fixed)
            pairs = [(t, slots[t]) for t in symbols if t in slots]
            comparisons.append((comparison, pairs, frozenset(needs)))
        names = [(key, i) for i, key in enumerate(initial)]
        self.root = self._node((), frozenset(range(self.fixed)), names, comparisons)

    def _node(self, path, bound, names, pending) -> _Node:
        node = _Node()
        node.path, node.bound, node.names, node.fire, node.pending = path, bound, names, [], []
        for comparison, pairs, needs in pending:
            if needs <= bound:
                node.fire.append((comparison, pairs))
            else:
                node.pending.append((comparison, pairs, needs))
        node.leaf = len(path) == len(self.literals)
        node.simple = node.leaf and not node.pending and not self.negatives
        node.step, node.choices, node.steps = None, [], {}
        remaining = [i for i in range(len(self.columns)) if i not in path]
        if len(remaining) == 1:
            node.step = self._step(node, remaining[0])
            return node
        # The greedy key is (instantiation score, reads the delta), first
        # maximum wins; a slot bound from a stored entry scores 2 or 1.
        for i in remaining:
            base, slots = 0, []
            for _, slot, term in self.columns[i]:
                if slot in bound and slot >= self.fixed:
                    slots.append(slot)
                else:
                    base += _weight(self.vals[slot] if slot in bound else term)
            node.choices.append((i, base, slots, i == self.delta))
        return node

    def _step(self, node: _Node, index: int) -> _Step:
        step, columns = _Step(), self.columns[index]
        step.index, step.pattern = index, [None] * len(columns)
        step.probes, step.binds, step.checks = [], [], []
        bound, names = set(node.bound), list(node.names)
        for col, slot, term in columns:
            if slot is None:
                step.pattern[col] = term
                step.checks.append((col, len(self.vals)))
                self.vals.append(term)
            elif slot in bound:
                if slot in node.bound:
                    step.probes.append((col, slot))
                step.checks.append((col, slot))
            else:
                bound.add(slot)
                names.append((term, slot))
                step.binds.append((col, slot))
        step.child = self._node(node.path + (index,), frozenset(bound), names, node.pending)
        # Per match: the literal's annotation, then the comparisons it readies.
        annotation = self.literals[index].annotation
        wanted = _symbols(annotation)
        step.readers = [] if annotation is TRUE else [
            (annotation, [(t, slot) for t, slot in names if t in wanted])
        ]
        step.readers += step.child.fire
        return step

    def _choose(self, node: _Node) -> _Step:
        best = best_key = None
        for index, base, slots, is_delta in node.choices:
            key = (base + sum(_weight(self.vals[slot]) for slot in slots), is_delta)
            if best_key is None or key > best_key:
                best, best_key = index, key
        if best not in node.steps:
            node.steps[best] = self._step(node, best)
        return node.steps[best]

    def add(self, readers, conds: List[Condition]) -> bool:
        """Append each instantiated condition; False once one is FALSE."""
        for condition, pairs in readers:
            instantiated = condition.substitute({key: self.vals[slot] for key, slot in pairs})
            if isinstance(instantiated, FalseCond):
                return False
            if instantiated is not TRUE:
                conds.append(instantiated)
        return True

    def search(self, node: _Node, conds: List[Condition]) -> Iterator[Derivation]:
        """Derivations below ``node``, whose comparisons have fired;
        ``conds`` holds the path's conjuncts and is restored on return."""
        vals = self.vals
        if node.leaf:
            bindings = {key: vals[slot] for key, slot in node.names}
            mark = len(conds)
            # Negations last (their variables are bound by safety).
            for late in chain(
                (comparison.substitute(bindings) for comparison, _, _ in node.pending),
                (negation_condition(lit, table, bindings) for lit, table in self.negatives),
            ):
                if isinstance(late, FalseCond):
                    break
                if late is not TRUE:
                    conds.append(late)
            else:
                yield bindings, conjoin(conds)
            del conds[mark:]
            return
        step = node.step or self._choose(node)
        pattern = step.pattern[:] if step.probes else step.pattern
        for col, slot in step.probes:
            if isinstance(vals[slot], Constant):
                pattern[col] = vals[slot]
        binds, checks, readers, child = step.binds, step.checks, step.readers, step.child
        names = child.names
        mark = len(conds)
        for tup in self.tables[step.index].candidates(pattern):
            del conds[mark:]
            values = tup.values
            for col, slot in binds:
                vals[slot] = values[col]
            for col, slot in checks:
                want, entry = vals[slot], values[col]
                if want is not entry and want != entry:
                    cond = unify_value(want, entry)
                    if cond is None:
                        break
                    conds.append(cond)
            else:
                conds.append(tup.condition)
                if readers and not self.add(readers, conds):
                    continue
                if child.simple:  # the last literal: yield in place, conjoin([c]) is c
                    condition = conds[0] if len(conds) == 1 else conjoin(conds)
                    yield {key: vals[slot] for key, slot in names}, condition
                else:
                    yield from self.search(child, conds)
        del conds[mark:]


def derive(
    rule: Rule,
    storage: Storage,
    initial_bindings: Optional[Bindings] = None,
    delta_override: Optional[Dict[str, IndexedTable]] = None,
    delta_position: Optional[int] = None,
) -> Iterator[Derivation]:
    """Enumerate all derivations of a rule against the storage.

    ``delta_override`` maps predicate names to delta relations; when
    ``delta_position`` is given, the positive literal at that index
    (among the rule's positive literals) reads from the delta relation
    while the others read the full relations — the semi-naive pattern.

    Positive literals are processed greedily (most-instantiated first,
    the delta literal first among equals); comparison atoms and negated
    literals fire as soon as their program variables are bound, pruning
    early.  Each literal probes its table's index on every column its
    bindings fix.  The body is compiled into a :class:`_Plan` per call;
    with two or more literals left the choice is scored from the slots at
    run time, and each node compiles the step it picks once.
    """
    plan = _Plan(rule, storage, initial_bindings or {}, delta_override, delta_position)
    conds: List[Condition] = []
    if plan.root is not None and plan.add(plan.root.fire, conds):
        yield from plan.search(plan.root, conds)


def build_head(rule: Rule, bindings: Bindings) -> Tuple[Term, ...]:
    """Instantiate the head tuple under final bindings.

    Unbound head c-variables stay as themselves (global unknowns);
    unbound head program variables are a safety violation caught at rule
    construction.
    """
    values: List[Term] = []
    for term in rule.head.terms:
        resolved = _resolve(term, bindings)
        if isinstance(resolved, Variable):
            raise ProgramError(f"head variable {resolved} unbound in {rule}")
        values.append(resolved)
    return tuple(values)

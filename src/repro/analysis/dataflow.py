"""Whole-program abstract interpretation over the rule dependency graph.

PR 7 proved the interval/atom abstract domain can semi-decide most
hot-path conditions *at solve time*; this module runs the same style of
sound over-approximation *statically over the whole program*.  For every
predicate argument it computes an :class:`AbstractValue` — an element of
the lattice

    ⊥  ⊑  finite set  ⊑  interval  ⊑  ⊤

— by a fixpoint over the strata of the rule dependency graph, seeded
from the stored c-tables and the declared c-variable domains, with
widening at recursion so termination never depends on the data.

Two derived analyses feed the F016–F020 lint findings of
:mod:`repro.analysis.optimize`:

* :func:`analyze` — per-argument value facts plus the set of rules whose
  bodies provably can never match (the F016 "unreachable under domains"
  family);
* :func:`narrow_domains` — a sound per-c-variable domain narrowing based
  on *distinguishability*: when a c-variable is only ever constrained by
  single-variable atoms against constants, its declared values partition
  into equivalence classes with identical satisfaction vectors, and one
  representative per class suffices to preserve every SAT / validity /
  entailment verdict the solver will ever be asked for (F018 reports
  the shrinkage; F016/F017 classify conditions over the narrowed map).

Soundness is one-sided everywhere, exactly as in
:mod:`repro.analysis.abstract`: the abstraction may say "don't know"
(⊤, no narrowing, rule kept), never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..ctable.condition import Comparison, Condition, LinearAtom, TRUE
from ..ctable.table import Database
from ..ctable.terms import Constant, CVariable, Term, Variable
from ..faurelog.ast import Program, Rule
from ..solver.domains import Domain, DomainMap, FiniteDomain

__all__ = [
    "AbstractValue",
    "TOP",
    "BOTTOM",
    "DataflowResult",
    "NarrowingResult",
    "analyze",
    "narrow_domains",
    "rule_environment",
]

#: Finite sets larger than this are widened to an interval (numeric) or ⊤.
SET_WIDENING_LIMIT = 32

#: Joins observed at one (predicate, argument) slot before widening kicks in.
WIDEN_AFTER = 3

#: Declared domains larger than this are not scanned for narrowing.
NARROWING_SCAN_LIMIT = 4096


@dataclass(frozen=True)
class AbstractValue:
    """One lattice element: ⊥ / finite value set / numeric interval / ⊤.

    ``values`` carries raw payloads when the element is a finite set
    (``frozenset()`` is ⊥); ``lo``/``hi`` carry a closed numeric
    interval (either bound ``None`` = unbounded on that side) when
    ``values`` is ``None``; ``top`` subsumes everything.
    """

    top: bool = False
    values: Optional[FrozenSet[object]] = None
    lo: Optional[float] = None
    hi: Optional[float] = None

    @property
    def is_bottom(self) -> bool:
        return not self.top and self.values is not None and not self.values

    @property
    def is_interval(self) -> bool:
        return not self.top and self.values is None

    def contains(self, value: object) -> bool:
        """May this argument take ``value``?  (⊤ admits everything.)"""
        if self.top:
            return True
        if self.values is not None:
            try:
                return value in self.values
            except TypeError:
                return any(value == v for v in self.values)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def join(self, other: "AbstractValue") -> "AbstractValue":
        """Least upper bound (with eager set-size widening)."""
        if self.top or other.top:
            return TOP
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        if self.values is not None and other.values is not None:
            merged = self.values | other.values
            if len(merged) <= SET_WIDENING_LIMIT:
                return AbstractValue(values=merged)
            return _set_to_interval(merged)
        left = self if self.is_interval else _set_to_interval(self.values or frozenset())
        right = other if other.is_interval else _set_to_interval(other.values or frozenset())
        if left.top or right.top:
            return TOP
        lo = None if left.lo is None or right.lo is None else min(left.lo, right.lo)
        hi = None if left.hi is None or right.hi is None else max(left.hi, right.hi)
        return AbstractValue(values=None, lo=lo, hi=hi)

    def meet(self, other: "AbstractValue") -> "AbstractValue":
        """Greatest lower bound — sound intersection of over-approximations."""
        if self.top:
            return other
        if other.top:
            return self
        if self.values is not None and other.values is not None:
            return AbstractValue(values=frozenset(v for v in self.values if other.contains(v)))
        if self.values is not None:
            return AbstractValue(values=frozenset(v for v in self.values if other.contains(v)))
        if other.values is not None:
            return AbstractValue(values=frozenset(v for v in other.values if self.contains(v)))
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo > hi:
            return BOTTOM
        return AbstractValue(values=None, lo=lo, hi=hi)

    def widen(self, newer: "AbstractValue") -> "AbstractValue":
        """Classic widening: any unstable bound jumps to its extreme."""
        joined = self.join(newer)
        if joined == self:
            return self
        if joined.top:
            return TOP
        if joined.values is not None:
            # An unstable finite set widens to the interval hull (numeric)
            # or ⊤ — never grows one value at a time forever.
            if self.is_bottom:
                return joined
            return _set_to_interval(joined.values)
        lo = joined.lo if self.lo is not None and joined.lo == self.lo else None
        hi = joined.hi if self.hi is not None and joined.hi == self.hi else None
        if self.values is not None:  # set → interval transition: keep the hull once
            lo, hi = joined.lo, joined.hi
        return AbstractValue(values=None, lo=lo, hi=hi)

    def size(self) -> Optional[int]:
        """Cardinality when finite, else ``None``."""
        if self.values is not None:
            return len(self.values)
        return None

    def describe(self) -> str:
        if self.top:
            return "⊤"
        if self.values is not None:
            if not self.values:
                return "⊥"
            try:
                shown = sorted(self.values, key=repr)
            except TypeError:  # pragma: no cover - exotic payloads
                shown = list(self.values)
            return "{" + ", ".join(repr(v) for v in shown[:8]) + (", …}" if len(shown) > 8 else "}")
        lo = "-∞" if self.lo is None else repr(self.lo)
        hi = "+∞" if self.hi is None else repr(self.hi)
        return f"[{lo}, {hi}]"


#: The no-information element (every value possible).
TOP = AbstractValue(top=True)

#: The unreachable element (no value possible).
BOTTOM = AbstractValue(values=frozenset())


def _set_to_interval(values: FrozenSet[object]) -> AbstractValue:
    """Hull of an oversized set: numeric interval, or ⊤ for mixed payloads."""
    if not values:
        return BOTTOM
    numerics: List[float] = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return TOP
        numerics.append(v)
    return AbstractValue(values=None, lo=min(numerics), hi=max(numerics))


def _from_domain(domain: Domain) -> AbstractValue:
    """Abstract every possible world value of a c-variable."""
    if not domain.is_finite:
        return TOP
    raw = tuple(domain.raw_values())
    if len(raw) <= SET_WIDENING_LIMIT:
        return AbstractValue(values=frozenset(raw))
    return _set_to_interval(frozenset(raw))


# ---------------------------------------------------------------------------
# Per-rule environments (the equality-class part of the lattice)
# ---------------------------------------------------------------------------

BindSym = Union[Variable, CVariable]


def _interval_for(op: str, bound: float) -> Optional[AbstractValue]:
    if op == "<":
        return AbstractValue(values=None, lo=None, hi=bound)  # sound: closed ⊇ open
    if op == "<=":
        return AbstractValue(values=None, lo=None, hi=bound)
    if op == ">":
        return AbstractValue(values=None, lo=bound, hi=None)
    if op == ">=":
        return AbstractValue(values=None, lo=bound, hi=None)
    return None


def rule_environment(
    rule: Rule,
    facts: Dict[Tuple[str, int], AbstractValue],
    domains: DomainMap,
) -> Optional[Dict[BindSym, AbstractValue]]:
    """Abstract bindings for one rule body, or ``None`` when unmatchable.

    Positive literals contribute the meet of their argument facts (a
    variable bound in several positions lands in the intersection);
    ``x = y`` comparisons merge equality classes; comparisons against
    constants refine with a singleton or interval.  ``None`` means some
    variable's abstraction is ⊥ or a constant falls outside its
    argument's abstraction — the body can never match, in any world.
    """
    env: Dict[BindSym, AbstractValue] = {}
    bindable = rule.bindable_cvariables()
    for literal in rule.positive_literals():
        pred = literal.predicate
        for index, term in enumerate(literal.atom.terms):
            fact = facts.get((pred, index), TOP)
            if isinstance(term, Constant):
                if not fact.contains(term.value):
                    return None
                continue
            if isinstance(term, Variable) or (isinstance(term, CVariable) and term in bindable):
                met = env.get(term, TOP).meet(fact)
                if met.is_bottom:
                    return None
                env[term] = met

    # Equality classes across comparisons, then constant refinements.
    classes: Dict[BindSym, Set[BindSym]] = {}

    def union(a: BindSym, b: BindSym) -> None:
        ca = classes.setdefault(a, {a})
        cb = classes.setdefault(b, {b})
        if ca is cb:
            return
        merged = ca | cb
        for member in merged:
            classes[member] = merged

    def refine(sym: BindSym, value: AbstractValue) -> bool:
        met = env.get(sym, TOP).meet(value)
        env[sym] = met
        return not met.is_bottom

    def sym_of(term: Term) -> Optional[BindSym]:
        if isinstance(term, Variable):
            return term
        if isinstance(term, CVariable):
            # A non-bindable c-variable is a global unknown ranging over
            # its declared domain — refine against that, soundly.
            if term not in env:
                env[term] = _from_domain(domains.domain_of(term))
            return term
        return None

    for comparison in rule.comparisons():
        for atom in comparison.atoms():
            if not isinstance(atom, Comparison):
                continue
            lhs, rhs = sym_of(atom.lhs), sym_of(atom.rhs)
            if atom.op == "=" and lhs is not None and rhs is not None:
                union(lhs, rhs)
            elif atom.op == "=" and lhs is not None and isinstance(atom.rhs, Constant):
                if not refine(lhs, AbstractValue(values=frozenset([atom.rhs.value]))):
                    return None
            elif atom.op == "=" and rhs is not None and isinstance(atom.lhs, Constant):
                if not refine(rhs, AbstractValue(values=frozenset([atom.lhs.value]))):
                    return None
            elif atom.op in ("<", "<=", ">", ">=") and lhs is not None and isinstance(atom.rhs, Constant):
                bound = atom.rhs.value
                if isinstance(bound, (int, float)) and not isinstance(bound, bool):
                    iv = _interval_for(atom.op, bound)
                    if iv is not None and not refine(lhs, iv):
                        return None

    # Propagate meets across each equality class.
    for members in {id(c): c for c in classes.values()}.values():
        met = TOP
        for member in members:
            met = met.meet(env.get(member, TOP))
        if met.is_bottom:
            return None
        for member in members:
            env[member] = met
    return env


# ---------------------------------------------------------------------------
# The whole-program fixpoint
# ---------------------------------------------------------------------------


@dataclass
class DataflowResult:
    """Per-argument abstract values plus fixpoint metadata."""

    #: (predicate, argument index) → abstract value.
    facts: Dict[Tuple[str, int], AbstractValue] = field(default_factory=dict)
    #: Rules whose bodies provably never match under the facts.
    unreachable: List[Rule] = field(default_factory=list)
    #: (predicate, argument index) slots where widening fired.
    widened: Set[Tuple[str, int]] = field(default_factory=set)
    #: Fixpoint rounds run (across all strata).
    iterations: int = 0

    def fact(self, predicate: str, index: int) -> AbstractValue:
        return self.facts.get((predicate, index), TOP)

    def describe(self, predicate: str) -> str:
        indexed = sorted(
            (i, v) for (p, i), v in self.facts.items() if p == predicate
        )
        return f"{predicate}(" + ", ".join(v.describe() for _, v in indexed) + ")"


def _seed_edb(database: Database, domains: DomainMap) -> Dict[Tuple[str, int], AbstractValue]:
    facts: Dict[Tuple[str, int], AbstractValue] = {}
    for table in database:
        for tup in table:
            for index, entry in enumerate(tup.values):
                key = (table.name, index)
                current = facts.get(key, BOTTOM)
                if isinstance(entry, CVariable):
                    # In some world the entry takes any of its domain values.
                    current = current.join(_from_domain(domains.domain_of(entry)))
                elif isinstance(entry, Constant):
                    current = current.join(AbstractValue(values=frozenset([entry.value])))
                else:  # pragma: no cover - program variables can't be stored
                    current = TOP
                facts[key] = current
        for index in range(table.arity):
            facts.setdefault((table.name, index), BOTTOM)
    return facts


def analyze(
    program: Program,
    database: Database,
    domains: DomainMap,
    widen_after: int = WIDEN_AFTER,
) -> DataflowResult:
    """Run the abstract interpreter to fixpoint over the strata.

    The resulting facts over-approximate, per predicate argument, every
    value that argument can hold in any possible world; ``unreachable``
    lists the rules whose bodies the facts prove unmatchable.
    """
    from ..faurelog.stratify import stratify

    result = DataflowResult(facts=_seed_edb(database, domains))
    facts = result.facts
    join_counts: Dict[Tuple[str, int], int] = {}

    def head_transfer(rule: Rule, env: Dict[BindSym, AbstractValue]) -> bool:
        changed = False
        pred = rule.head.predicate
        for index, term in enumerate(rule.head.terms):
            key = (pred, index)
            if isinstance(term, Constant):
                incoming = AbstractValue(values=frozenset([term.value]))
            elif isinstance(term, (Variable, CVariable)):
                incoming = env.get(term)
                if incoming is None and isinstance(term, CVariable):
                    incoming = _from_domain(domains.domain_of(term))
                if incoming is None:  # pragma: no cover - safety guarantees binding
                    incoming = TOP
            else:  # pragma: no cover - term universe is closed
                incoming = TOP
            current = facts.get(key, BOTTOM)
            join_counts[key] = join_counts.get(key, 0) + 1
            if join_counts[key] > widen_after:
                updated = current.widen(incoming)
                if updated != current and not current.is_bottom:
                    result.widened.add(key)
            else:
                updated = current.join(incoming)
            if updated != current:
                facts[key] = updated
                changed = True
        return changed

    for stratum in stratify(program):
        rules = [r for r in program if r.head.predicate in stratum]
        for rule in rules:
            for index in range(rule.head.arity):
                facts.setdefault((rule.head.predicate, index), BOTTOM)
        changed = True
        while changed:
            changed = False
            result.iterations += 1
            for rule in rules:
                env = rule_environment(rule, facts, domains)
                if env is None:
                    continue
                if head_transfer(rule, env):
                    changed = True

    # Unreachability is judged against the *final* facts (monotone: the
    # facts only grow, so a body unmatchable now was never matchable).
    for rule in program:
        if rule_environment(rule, facts, domains) is None:
            result.unreachable.append(rule)
    return result


# ---------------------------------------------------------------------------
# Sound domain narrowing
# ---------------------------------------------------------------------------


@dataclass
class NarrowingResult:
    """A narrowed :class:`DomainMap` plus the per-variable accounting."""

    domains: DomainMap
    #: variable name → (declared size, narrowed size).
    narrowed: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def any(self) -> bool:
        return bool(self.narrowed)


def _profile_conditions(
    program: Program, database: Database
) -> Tuple[Dict[CVariable, List[Condition]], Set[CVariable]]:
    """Collect, per c-variable, the atoms that can ever constrain it.

    Returns ``(profile, disqualified)``.  A disqualified variable may be
    coupled to another variable (directly, or through a program variable
    that could bind to a data-part c-variable), so value
    interchangeability cannot be argued for it and it must keep its
    declared domain.
    """
    profile: Dict[CVariable, List[Condition]] = {}
    disqualified: Set[CVariable] = set()

    def scan_atom(atom: Condition) -> None:
        if isinstance(atom, Comparison):
            sides = (atom.lhs, atom.rhs)
            cvars = [t for t in sides if isinstance(t, CVariable)]
            has_variable = any(isinstance(t, Variable) for t in sides)
            if has_variable or len(cvars) > 1:
                disqualified.update(cvars)
            elif len(cvars) == 1:
                profile.setdefault(cvars[0], []).append(atom)
        elif isinstance(atom, LinearAtom):
            cvars = [v for v, _ in atom.coeffs if isinstance(v, CVariable)]
            has_variable = any(isinstance(v, Variable) for v, _ in atom.coeffs)
            if has_variable or len(atom.coeffs) > 1:
                disqualified.update(cvars)
            elif len(cvars) == 1:
                profile.setdefault(cvars[0], []).append(atom)

    def scan_condition(condition: Condition) -> None:
        if condition is TRUE:
            return
        for atom in condition.atoms():
            scan_atom(atom)

    for table in database:
        for tup in table:
            # Data-part c-variables join against arbitrary entries at
            # valuation time (implicit pattern matching generates
            # ``entry = value`` for values we cannot bound statically).
            for entry in tup.values:
                if isinstance(entry, CVariable):
                    disqualified.add(entry)
            scan_condition(tup.condition)

    for rule in program:
        for comparison in rule.comparisons():
            scan_condition(comparison)
        for literal in rule.literals():
            if literal.annotation is not TRUE:
                scan_condition(literal.annotation)
            # Rule-level c-variables in atom positions are bindable: they
            # unify with stored entries, so they behave like data-part
            # variables for narrowing purposes.
            for term in literal.atom.terms:
                if isinstance(term, CVariable):
                    disqualified.add(term)
        if rule.head_annotation is not None and rule.head_annotation is not TRUE:
            scan_condition(rule.head_annotation)
        for term in rule.head.terms:
            if isinstance(term, CVariable):
                disqualified.add(term)
    return profile, disqualified


def _satisfaction_vector(
    var: CVariable, value: object, atoms: Iterable[Condition]
) -> Optional[Tuple[bool, ...]]:
    vector: List[bool] = []
    assignment = {var: value if isinstance(value, Constant) else Constant(value)}
    for atom in atoms:
        try:
            vector.append(bool(atom.evaluate(assignment)))
        except Exception:
            return None
    return tuple(vector)


def narrow_domains(
    program: Program,
    database: Database,
    domains: DomainMap,
) -> NarrowingResult:
    """Shrink finite domains to one representative per distinguishable class.

    Sound for every verdict the evaluator asks of the solver (SAT,
    entailment, validity): all atoms that can ever mention a narrowed
    variable are single-variable comparisons against constants, so any
    model over the declared domain maps to a model over the narrowed one
    by replacing each narrowed variable's value with its class
    representative — truth of every atom, hence of every condition built
    from them, is preserved in both directions.  Model *counting* is not
    preserved; callers that enumerate worlds must keep the declared map.
    """
    profile, disqualified = _profile_conditions(program, database)
    narrowed_map = domains.copy()
    accounting: Dict[str, Tuple[int, int]] = {}
    for var in sorted(domains.declared(), key=lambda v: v.name):
        if var in disqualified:
            continue
        domain = domains.domain_of(var)
        if not domain.is_finite:
            continue
        size = domain.size()
        if size is None or size <= 1 or size > NARROWING_SCAN_LIMIT:
            continue
        atoms = profile.get(var, [])
        representatives: List[object] = []
        seen: Set[Tuple[bool, ...]] = set()
        failed = False
        for value in domain.raw_values():
            vector = _satisfaction_vector(var, value, atoms)
            if vector is None:
                failed = True
                break
            if vector not in seen:
                seen.add(vector)
                representatives.append(value)
        if failed or len(representatives) >= size:
            continue
        narrowed_map.declare(var, FiniteDomain(representatives))
        accounting[var.name] = (size, len(representatives))
    return NarrowingResult(domains=narrowed_map, narrowed=accounting)

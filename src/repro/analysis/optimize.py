"""Whole-program lint findings F016–F020.

Consumes the whole-program facts of :mod:`repro.analysis.dataflow` and
reports what they prove about a program, as plain diagnostics:

* **F016** — a rule can never contribute: its closed condition conjuncts
  are statically false, or its body can never match under the inferred
  argument values;
* **F017** — a closed condition conjunct is vacuous (holds in every
  world);
* **F018** — a condition-only c-variable's domain collapses to fewer
  distinguishable values under the program's atoms;
* **F019** — a rule cannot reach any requested output (magic-set-style
  backward reachability over the dependency graph);
* **F020** — the dataflow fixpoint widened an argument slot.

Closed conjuncts are tagged ``static-true`` / ``static-false`` /
``fast-path`` / ``residue`` by :func:`classify_rule` through the one-sided
semi-decision procedures of :mod:`repro.solver.atoms`, whose definite
verdicts provably coincide with the solver's.  The findings describe the
program only; evaluation never consults them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from ..ctable.condition import Condition, TRUE, conjoin
from ..ctable.table import Database
from ..faurelog.ast import Program, ProgramError, Rule
from ..solver.atoms import fast_sat
from ..solver.domains import DomainMap
from .dataflow import DataflowResult, analyze, narrow_domains
from .diagnostics import Diagnostic
from .passes import rule_name

__all__ = [
    "ConjunctClass",
    "RuleClassification",
    "classify_rule",
    "whole_program_findings",
]


@dataclass(frozen=True)
class ConjunctClass:
    """One closed condition conjunct and its static tag."""

    condition: Condition
    #: ``static-true`` | ``static-false`` | ``fast-path`` | ``residue``.
    tag: str


@dataclass(frozen=True)
class RuleClassification:
    """Static classification of one rule's condition conjuncts."""

    rule: Rule
    conjuncts: Tuple[ConjunctClass, ...]
    #: Overall: ``static-false`` dominates, then ``residue``, then
    #: ``fast-path``; a rule with no closed conjuncts is ``data-only``.
    tag: str

    @property
    def statically_false(self) -> bool:
        return self.tag == "static-false"


def _closed_conjuncts(rule: Rule) -> List[Condition]:
    """Condition conjuncts decidable before any binding: no program
    variables, no bindable c-variables (those unify with stored entries
    at match time and are only known per tuple)."""
    from ..ctable.condition import Comparison
    from ..ctable.terms import Variable

    bindable = rule.bindable_cvariables()

    def closed(condition: Condition) -> bool:
        if any(var in bindable for var in condition.cvariables()):
            return False
        for atom in condition.atoms():
            if isinstance(atom, Comparison) and (
                isinstance(atom.lhs, Variable) or isinstance(atom.rhs, Variable)
            ):
                return False
        return True

    out: List[Condition] = []
    for comparison in rule.comparisons():
        if comparison is not TRUE and closed(comparison):
            out.append(comparison)
    for literal in rule.literals():
        if literal.annotation is not TRUE and closed(literal.annotation):
            out.append(literal.annotation)
    head_ann = rule.head_annotation
    if head_ann is not None and head_ann is not TRUE and closed(head_ann):
        out.append(head_ann)
    return out


def classify_rule(rule: Rule, domains: DomainMap) -> RuleClassification:
    """Tag each of ``rule``'s closed condition conjuncts under ``domains``."""
    conjuncts: List[ConjunctClass] = []
    overall = "data-only"
    for condition in _closed_conjuncts(rule):
        verdict = fast_sat(condition, domains)
        if verdict is False:
            tag = "static-false"
        elif fast_sat(condition.negate(), domains) is False:
            tag = "static-true"
        elif verdict is not None:
            tag = "fast-path"
        else:
            tag = "residue"
        conjuncts.append(ConjunctClass(condition, tag))
    tags = {c.tag for c in conjuncts}
    if "static-false" in tags:
        overall = "static-false"
    elif len(conjuncts) > 1 and fast_sat(
        conjoin(c.condition for c in conjuncts), domains
    ) is False:
        # Pairwise contradictions ($u = 1, $u != 1) that no conjunct
        # exhibits alone.
        overall = "static-false"
    elif "residue" in tags:
        overall = "residue"
    elif "fast-path" in tags or "static-true" in tags:
        overall = "fast-path"
    return RuleClassification(rule=rule, conjuncts=tuple(conjuncts), tag=overall)


def _relevant_predicates(program: Program, outputs: Iterable[str]) -> Set[str]:
    """Outputs plus everything they transitively depend on (magic-set
    style backward reachability over the dependency graph)."""
    from ..faurelog.stratify import dependency_graph
    import networkx as nx

    graph = dependency_graph(program)
    relevant: Set[str] = set()
    for out in outputs:
        if out in graph:
            relevant.add(out)
            relevant |= set(nx.ancestors(graph, out))
        else:
            relevant.add(out)
    return relevant


def whole_program_findings(
    program: Program,
    database: Database,
    domains: DomainMap,
    outputs: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """The F016–F020 findings for ``program`` over ``database``.

    ``outputs`` enables relevance slicing (F019), and F016/F017 then cover
    only the rules that reach an output; without it every rule is
    relevant.  Unstratifiable programs get no dataflow facts (the
    evaluator reports the real error).
    """
    diagnostics: List[Diagnostic] = []

    try:
        flow = analyze(program, database, domains)
    except ProgramError:
        flow = DataflowResult()

    narrowing = narrow_domains(program, database, domains)
    for name, (before, after) in sorted(narrowing.narrowed.items()):
        diagnostics.append(
            Diagnostic.make(
                "F018",
                f"domain of ${name} narrowed from {before} to {after} "
                f"value(s) (distinguishable classes under the program's atoms)",
            )
        )
    for pred, index in sorted(flow.widened):
        diagnostics.append(
            Diagnostic.make(
                "F020",
                f"widening applied at {pred}[{index}] "
                f"(abstract value jumped to {flow.fact(pred, index).describe()})",
            )
        )

    # -- relevance slicing (F019) --------------------------------------
    output_list = list(outputs) if outputs is not None else None
    relevant_rules: List[Rule] = list(program)
    if output_list:
        relevant = _relevant_predicates(program, output_list)
        relevant_rules = []
        for rule in program:
            if rule.head.predicate in relevant:
                relevant_rules.append(rule)
                continue
            diagnostics.append(
                Diagnostic.make(
                    "F019",
                    f"rule sliced: {rule.head.predicate} cannot reach "
                    f"output(s) {', '.join(sorted(output_list))}",
                    span=rule.span,
                    rule=rule_name(rule),
                )
            )

    # -- dead rules and vacuous conjuncts (F016/F017) ------------------
    unreachable = {id(r) for r in flow.unreachable}
    for rule in relevant_rules:
        cls = classify_rule(rule, narrowing.domains)
        reason: Optional[str] = None
        if cls.statically_false:
            reason = "its condition is unsatisfiable under the declared domains"
        elif id(rule) in unreachable:
            reason = "its body can never match under the inferred argument values"
        if reason is not None:
            diagnostics.append(
                Diagnostic.make(
                    "F016",
                    f"rule can never contribute: {reason}",
                    span=rule.span,
                    rule=rule_name(rule),
                )
            )
        for conjunct in cls.conjuncts:
            if conjunct.tag == "static-true":
                diagnostics.append(
                    Diagnostic.make(
                        "F017",
                        f"vacuous condition conjunct: {conjunct.condition} "
                        f"holds for every assignment under the declared domains",
                        span=rule.span,
                        rule=rule_name(rule),
                    )
                )

    return diagnostics

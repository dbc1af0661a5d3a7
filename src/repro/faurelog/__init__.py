"""fauré-log: the datalog extension for c-tables (paper, §3).

The deductive heart of fauré: programs over c-tables with the c-valuation
``v^C``, stratified recursion, c-table negation, a textual syntax,
program containment by reduction to evaluation, and the Levy–Sagiv update
rewrite.
"""

from .answers import AnswerSet, classify_answers
from .ast import Atom, BodyItem, Literal, Program, ProgramError, Rule
from .containment import (
    ConjunctiveQuery,
    ContainmentResult,
    FrozenQuery,
    contains,
    equivalent_constraints,
    freeze,
    unfold,
)
from .evaluation import FaureEvaluator, evaluate
from .parser import ParseError, parse_program, parse_rule
from .printer import format_condition, format_program, format_rule, format_term
from .incremental import IncrementalEvaluator
from .specialize import solve_goal, specialize
from .sqlcompile import SqlProgramEvaluator, compile_rule
from .rewrite import Deletion, Insertion, Update, apply_update, rewrite_constraint
from .stratify import dependency_graph, is_recursive, stratify
from .valuation import Bindings, build_head, derive, negation_condition, unify_value

__all__ = [
    "AnswerSet",
    "classify_answers",
    "Atom",
    "BodyItem",
    "Literal",
    "Program",
    "ProgramError",
    "Rule",
    "ConjunctiveQuery",
    "ContainmentResult",
    "FrozenQuery",
    "contains",
    "equivalent_constraints",
    "freeze",
    "unfold",
    "FaureEvaluator",
    "evaluate",
    "ParseError",
    "parse_program",
    "parse_rule",
    "format_condition",
    "format_program",
    "format_rule",
    "format_term",
    "solve_goal",
    "specialize",
    "IncrementalEvaluator",
    "SqlProgramEvaluator",
    "compile_rule",
    "Deletion",
    "Insertion",
    "Update",
    "apply_update",
    "rewrite_constraint",
    "dependency_graph",
    "is_recursive",
    "stratify",
    "Bindings",
    "build_head",
    "derive",
    "negation_condition",
    "unify_value",
]

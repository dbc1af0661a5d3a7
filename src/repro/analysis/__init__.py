"""Static analysis of fauré-log programs.

The paper leans on "static analysis readily available in pure datalog";
this package is the reproduction's pass framework for it: a manager
(:mod:`~repro.analysis.manager`) runs ordered analyses
(:mod:`~repro.analysis.passes`) over a parsed program and emits typed
:class:`~repro.analysis.diagnostics.Diagnostic` findings with stable
``F0xx`` codes, severities, and source spans.  Condition vacuity is
decided by a sound, solver-free abstract domain
(:mod:`~repro.analysis.abstract`); c-domain sorts are inferred by
:mod:`~repro.analysis.sorts`; cardinalities estimated by
:mod:`~repro.analysis.cost`.

The whole-program half lives in :mod:`~repro.analysis.dataflow` (the
abstract interpreter over the rule dependency graph) and
:mod:`~repro.analysis.optimize` (the F016–F020 findings it proves:
dead rules, vacuous conditions, domain narrowing, query relevance and
widening).

See docs/ANALYSIS.md for the code catalog and the soundness argument.
"""

from .abstract import AbstractResult, abstract_sat, prove_unsat, prove_valid
from .dataflow import (
    AbstractValue,
    DataflowResult,
    NarrowingResult,
    analyze,
    narrow_domains,
)
from .diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    Severity,
    filter_diagnostics,
    render_json,
    render_sarif,
    render_text,
)
from .manager import DEFAULT_PASSES, PassManager, analyze_program, analyze_text
from .optimize import whole_program_findings

__all__ = [
    "AbstractResult",
    "abstract_sat",
    "prove_unsat",
    "prove_valid",
    "AbstractValue",
    "DataflowResult",
    "NarrowingResult",
    "analyze",
    "narrow_domains",
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "Severity",
    "filter_diagnostics",
    "render_json",
    "render_sarif",
    "render_text",
    "DEFAULT_PASSES",
    "PassManager",
    "analyze_program",
    "analyze_text",
    "whole_program_findings",
]

"""The pass manager: ordered analyses, stable output, select/ignore.

:func:`analyze_program` is the one-call entry point used by the ``lint``
CLI and the CI program gate.  :func:`analyze_text` parses in *relaxed* mode
first so safety and arity problems become positioned diagnostics rather
than exceptions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..faurelog.ast import Program
from ..faurelog.parser import parse_program
from .diagnostics import Diagnostic, Severity, filter_diagnostics
from .passes import (
    AnalysisContext,
    AnalysisPass,
    arity_pass,
    condition_pass,
    cost_pass,
    cross_product_pass,
    duplicate_rule_pass,
    reachability_pass,
    safety_pass,
    singleton_variable_pass,
    sort_pass,
    stratification_pass,
    undefined_predicate_pass,
)

__all__ = ["PassManager", "DEFAULT_PASSES", "analyze_program", "analyze_text"]

#: The default pipeline, cheap-and-fatal first.  Order is presentation
#: only — passes are independent — but a stable order keeps output and
#: tests deterministic.
DEFAULT_PASSES: Tuple[AnalysisPass, ...] = (
    safety_pass,
    arity_pass,
    undefined_predicate_pass,
    stratification_pass,
    singleton_variable_pass,
    duplicate_rule_pass,
    condition_pass,
    sort_pass,
    reachability_pass,
    cross_product_pass,
    cost_pass,
)


def _sort_key(diag: Diagnostic) -> Tuple:
    span = diag.span
    return (
        diag.file or "",
        span.line if span else 1 << 30,
        span.col if span else 1 << 30,
        diag.code,
        diag.message,
    )


class PassManager:
    """Runs an ordered set of analyses and post-processes the findings."""

    def __init__(self, passes: Optional[Sequence[AnalysisPass]] = None) -> None:
        self.passes: List[AnalysisPass] = list(
            passes if passes is not None else DEFAULT_PASSES
        )

    def run(
        self,
        program: Program,
        edb: Iterable[str] = (),
        outputs: Iterable[str] = (),
        file: Optional[str] = None,
        sizes: Optional[Dict[str, int]] = None,
    ) -> List[Diagnostic]:
        ctx = AnalysisContext(
            program=program,
            edb=frozenset(edb),
            outputs=frozenset(outputs),
            file=file,
            sizes=dict(sizes or {}),
        )
        findings: List[Diagnostic] = []
        for analysis in self.passes:
            findings.extend(analysis(ctx))
        findings.sort(key=_sort_key)
        return findings


def analyze_program(
    program: Program,
    edb: Iterable[str] = (),
    outputs: Iterable[str] = (),
    file: Optional[str] = None,
    sizes: Optional[Dict[str, int]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Run the default pipeline over an already-parsed program."""
    findings = PassManager().run(
        program, edb=edb, outputs=outputs, file=file, sizes=sizes
    )
    return filter_diagnostics(findings, select=select, ignore=ignore)


def analyze_text(
    text: str,
    edb: Iterable[str] = (),
    outputs: Iterable[str] = (),
    file: Optional[str] = None,
    sizes: Optional[Dict[str, int]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Parse (relaxed) and analyze program text.

    Safety and arity problems surface as F001–F004 diagnostics with
    source spans instead of :class:`~repro.faurelog.ast.ProgramError`.
    Syntax errors still raise :class:`~repro.ctable.parse.ParseError`
    (there is no program to analyze without a parse tree).
    """
    program = parse_program(text, check_safety=False, check_arities=False)
    return analyze_program(
        program,
        edb=edb,
        outputs=outputs,
        file=file,
        sizes=sizes,
        select=select,
        ignore=ignore,
    )

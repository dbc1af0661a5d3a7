"""EXPLAIN: textual rendering of algebra plans.

Mirrors the database habit the engine stands in for — before trusting an
execution strategy, look at the plan.  ``explain(plan, db)`` renders the
operator tree with schemas and cardinalities: exact ``[N rows]`` counts
for stored tables, and System-R-style ``[~N rows]`` estimates from
:mod:`repro.analysis.cost` for the computed nodes above them (omitted
when a leaf has no stored table to anchor the estimate).
"""

from __future__ import annotations

from typing import List, Optional

from ..ctable.table import Database
from .algebra import (
    AntiJoin,
    ConditionSelection,
    Distinct,
    Join,
    PlanNode,
    Product,
    Projection,
    Rename,
    Scan,
    Selection,
    Union,
)

__all__ = ["explain"]


def _describe(node: PlanNode, db: Database) -> str:
    if isinstance(node, Scan):
        size = len(db.table(node.table_name)) if node.table_name in db else "?"
        alias = f" as {node.alias}" if node.alias != node.table_name else ""
        return f"Scan {node.table_name}{alias} [{size} rows]"
    if isinstance(node, Selection):
        preds = ", ".join(
            f"{p.lhs} {p.op} {p.rhs}" for p in node.predicates
        )
        return f"Select [{preds}]"
    if isinstance(node, ConditionSelection):
        return f"SelectWhere [{node.template}]"
    if isinstance(node, Projection):
        merge = "" if node.merge else ", no-merge"
        return f"Project [{', '.join(node.columns)}{merge}]"
    if isinstance(node, Rename):
        pairs = ", ".join(f"{a}→{b}" for a, b in node.mapping.items())
        return f"Rename [{pairs}]"
    if isinstance(node, Join):
        on = ", ".join(f"{a}={b}" for a, b in node.on)
        return f"HashJoin [on {on}]"
    if isinstance(node, AntiJoin):
        on = ", ".join(f"{a}={b}" for a, b in node.on) or "<empty>"
        return f"AntiJoin [on {on}]"
    if isinstance(node, Product):
        return "Product"
    if isinstance(node, Union):
        return f"Union [{len(node.children)} inputs]"
    if isinstance(node, Distinct):
        return "Distinct"
    return type(node).__name__


def _children(node: PlanNode) -> List[PlanNode]:
    if isinstance(node, (Selection, ConditionSelection, Projection, Rename, Distinct)):
        return [node.child]
    if isinstance(node, (Join, AntiJoin, Product)):
        return [node.left, node.right]
    if isinstance(node, Union):
        return list(node.children)
    return []


def explain(plan: PlanNode, db: Database, solver=None) -> str:
    """The operator tree, one node per line, children indented.

    With a ``solver``, a trailing ``[memo]`` line reports the shared
    verdict cache: hits/misses observed by this solver instance plus the
    process-wide entry/intern counts (omitted when memoization is off).
    """
    from ..analysis.cost import estimate_rows  # local: avoids import cycle

    lines: List[str] = []

    def estimate(node: PlanNode) -> str:
        if isinstance(node, Scan):
            return ""  # exact count already shown by _describe
        est = estimate_rows(node, db)
        if est is None:
            return ""
        return f" [~{est:g} rows]"

    def walk(node: PlanNode, depth: int) -> None:
        try:
            schema = " (" + ", ".join(node.schema(db)) + ")"
        except Exception:
            schema = ""
        lines.append(
            "  " * depth + "-> " + _describe(node, db) + estimate(node) + schema
        )
        for child in _children(node):
            walk(child, depth + 1)

    walk(plan, 0)
    if solver is not None and getattr(solver, "memo", None) is not None:
        shared = solver.memo.counters()
        lines.append(
            "[memo] hits={} misses={} collapses={} | shared entries={} interned={}".format(
                solver.stats.memo_hits,
                solver.stats.memo_misses,
                solver.stats.canonical_collapses,
                shared["memo_entries"],
                shared["interned"],
            )
        )
    return "\n".join(lines)

"""The in-memory relational engine — fauré's PostgreSQL substitute.

Provides indexed storage over c-tables, the extended relational algebra
of §3, the three-phase evaluation pipeline of §6, a mini-SQL front-end,
and the sql-time/solver-time instrumentation behind Table 4.
"""

from .algebra import (
    AntiJoin,
    Col,
    ColumnRef,
    ConditionSelection,
    Distinct,
    ExecutionContext,
    Join,
    PlanNode,
    Pred,
    Product,
    Projection,
    Rename,
    Scan,
    Selection,
    Union,
    evaluate_plan,
    resolve_condition,
)
from .explain import explain
from .pipeline import run_eager, run_lazy, solver_prune
from .sql import SqlEngine, SqlError
from .stats import EvalStats, Stopwatch
from .storage import ColumnIndex, IndexedTable, Storage

__all__ = [
    "AntiJoin",
    "Col",
    "ColumnRef",
    "ConditionSelection",
    "Distinct",
    "ExecutionContext",
    "Join",
    "PlanNode",
    "Pred",
    "Product",
    "Projection",
    "Rename",
    "Scan",
    "Selection",
    "Union",
    "evaluate_plan",
    "resolve_condition",
    "explain",
    "run_eager",
    "run_lazy",
    "solver_prune",
    "SqlEngine",
    "SqlError",
    "EvalStats",
    "Stopwatch",
    "ColumnIndex",
    "IndexedTable",
    "Storage",
]

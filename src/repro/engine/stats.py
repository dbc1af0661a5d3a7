"""Timing and cardinality instrumentation for the evaluation pipeline.

The paper's Table 4 reports, per query, the *SQL time* (relational work:
generating data parts and attaching conditions) and the *Z3 time*
(deciding which generated tuples have contradictory conditions)
separately, plus the number of tuples generated.  :class:`EvalStats`
captures the same split for our engine so the benchmark harness can print
the paper's rows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

from ..clock import phase_clock

__all__ = ["EvalStats", "Stopwatch", "phase_clock"]


class Stopwatch:
    """Accumulating stopwatch with a context-manager interface."""

    def __init__(self) -> None:
        self.seconds = 0.0

    @contextmanager
    def measure(self) -> Iterator[None]:
        start = phase_clock()
        try:
            yield
        finally:
            self.seconds += phase_clock() - start

    def reset(self) -> None:
        self.seconds = 0.0


@dataclass
class EvalStats:
    """Per-evaluation accounting mirroring Table 4's columns."""

    sql_seconds: float = 0.0
    solver_seconds: float = 0.0
    tuples_generated: int = 0
    tuples_pruned: int = 0
    iterations: int = 0
    #: Tuples kept because their condition came back UNKNOWN under a
    #: resource governor (sound: pruning is only an optimisation).
    unknown_kept: int = 0
    #: Evaluations cut short by a budget/deadline (partial fixpoint).
    partial_results: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.sql_seconds + self.solver_seconds

    @property
    def degraded(self) -> bool:
        """Did any governed degradation fire during this evaluation?"""
        return self.unknown_kept > 0 or self.partial_results > 0

    def add(self, other: "EvalStats") -> None:
        self.sql_seconds += other.sql_seconds
        self.solver_seconds += other.solver_seconds
        self.tuples_generated += other.tuples_generated
        self.tuples_pruned += other.tuples_pruned
        self.iterations += other.iterations
        self.unknown_kept += other.unknown_kept
        self.partial_results += other.partial_results
        for k, v in other.extra.items():
            self.extra[k] = self.extra.get(k, 0.0) + v

    def reset(self) -> None:
        self.sql_seconds = 0.0
        self.solver_seconds = 0.0
        self.tuples_generated = 0
        self.tuples_pruned = 0
        self.iterations = 0
        self.unknown_kept = 0
        self.partial_results = 0
        self.extra.clear()

    def row(self) -> Dict[str, float]:
        """A flat dict suitable for tabular reporting."""
        return {
            "sql": round(self.sql_seconds, 4),
            "solver": round(self.solver_seconds, 4),
            "tuples": self.tuples_generated,
            "pruned": self.tuples_pruned,
            "unknown": self.unknown_kept,
        }

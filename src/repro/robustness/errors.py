"""Structured exception hierarchy for resource governance.

Every failure the governance layer can signal derives from
:class:`FaureError`, so callers (and the CLI) can distinguish *our*
controlled degradation signals from genuine programming errors:

* :class:`BudgetExceeded` — a per-query deadline, solver-call budget, or
  per-call step budget ran out before a definite verdict was reached;
* :class:`SolverFailure` — a solver routine failed outright (in practice
  this arises from fault injection or a backend rejecting a condition);
* :class:`ConditionTooLarge` — a condition exceeded the configured size
  ceiling and was refused before any exponential work started.

All three are *safe to degrade on*: a c-table tuple whose condition
cannot be decided can be soundly kept (the table stays loss-less, merely
less simplified), which is what every governed call-site does in
``degrade`` mode.
"""

from __future__ import annotations

__all__ = [
    "FaureError",
    "BudgetExceeded",
    "SolverFailure",
    "ConditionTooLarge",
    "CheckpointError",
]


class FaureError(Exception):
    """Base class of all controlled failures raised by this package."""


class BudgetExceeded(FaureError):
    """A deadline or work budget ran out before the answer was found.

    ``resource`` names what ran out (``"deadline"``, ``"solver-calls"``,
    ``"steps"``, ...) so telemetry and tests can tell the cases apart.
    """

    def __init__(self, message: str, resource: str = "budget"):
        super().__init__(message)
        self.resource = resource


class SolverFailure(FaureError):
    """A solver routine failed without producing a verdict."""


class ConditionTooLarge(FaureError):
    """A condition exceeded the configured size ceiling.

    ``atoms`` / ``limit`` carry the measured size and the ceiling when
    known (fault-injected instances may leave them at ``None``).
    """

    def __init__(self, message: str, atoms: int = None, limit: int = None):
        super().__init__(message)
        self.atoms = atoms
        self.limit = limit


class CheckpointError(FaureError):
    """A checkpoint journal cannot be used for this run.

    Raised when a journal's header is malformed or its workload
    fingerprint does not match the current inputs — resuming from a
    checkpoint of a *different* workload would silently splice foreign
    results into this run, so the mismatch is a hard error rather than
    a warning.
    """

"""Resource governance and fault tolerance for the fauré stack.

Every fauré query ends in a solver pass, and both solver backends are
worst-case exponential — without bounds, one pathological condition
hangs the pipeline.  This package supplies the bounds and the sound way
out:

* :mod:`~repro.robustness.errors` — the structured failure hierarchy
  (``FaureError`` → ``BudgetExceeded`` / ``SolverFailure`` /
  ``ConditionTooLarge``);
* :mod:`~repro.robustness.verdict` — three-valued verdicts
  (``SAT``/``UNSAT``/``UNKNOWN``) and the Kleene booleans they induce;
* :mod:`~repro.robustness.governor` — per-query deadlines, solver-call
  budgets, step budgets, and condition-size ceilings, with a
  degrade-vs-fail policy;
* :mod:`~repro.robustness.faultinject` — deterministic injection of
  timeouts, failures, and oversized conditions, so every degradation
  path is provably exercised;
* :mod:`~repro.robustness.checkpoint` — a durable journal of completed
  work units (definite memo verdicts, pattern-query results, verify
  verdicts) so a killed run resumes byte-for-byte, re-running zero
  completed units;
* :mod:`~repro.robustness.chaos` — the ``FAURE_CHAOS`` directives the
  chaos suite uses to kill or stall a real process at a chosen instant.

Soundness contract (see ``docs/ROBUSTNESS.md``): on ``UNKNOWN`` every
call-site keeps the tuple / skips the merge / reports inconclusive, so
the possible-worlds semantics of every result is preserved — degraded
output is merely *less simplified*, never wrong.
"""

from .checkpoint import CheckpointJournal, fingerprint_of
from .errors import (
    BudgetExceeded,
    CheckpointError,
    ConditionTooLarge,
    FaureError,
    SolverFailure,
)
from .faultinject import FaultInjector, FaultPlan
from .governor import Governor, GovernorEvents, ON_BUDGET_MODES, WorkTicket
from .verdict import Trivalent, Verdict

__all__ = [
    "FaureError",
    "BudgetExceeded",
    "SolverFailure",
    "ConditionTooLarge",
    "CheckpointError",
    "CheckpointJournal",
    "fingerprint_of",
    "Verdict",
    "Trivalent",
    "Governor",
    "GovernorEvents",
    "WorkTicket",
    "ON_BUDGET_MODES",
    "FaultInjector",
    "FaultPlan",
]

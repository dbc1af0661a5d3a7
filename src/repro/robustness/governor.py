"""The resource governor: deadlines, budgets, and size ceilings.

Both solver backends (exact enumeration and the DPLL(T) driver) are
worst-case exponential, so one pathological condition can wedge an
entire query.  The :class:`Governor` bounds that risk with three knobs:

* a **per-query deadline** (wall-clock seconds, armed by :meth:`start`);
* a **solver-call budget** (number of decision-procedure invocations);
* a **per-call step budget** with per-stage sub-budgets (cooperative
  ticks inside the backends), plus a **condition-size ceiling** that
  refuses oversized conditions before exponential work starts.

Exhaustion raises :class:`~repro.robustness.errors.BudgetExceeded` (or
:class:`ConditionTooLarge`).  What happens next is the *caller's*
policy, recorded here as ``on_budget``:

* ``"degrade"`` (default) — the solver converts the failure into an
  ``UNKNOWN`` verdict and each call-site falls back to its sound
  default (keep the tuple, skip the merge, report inconclusive);
* ``"fail"`` — the exception propagates, for callers that prefer a
  crisp error over a partial answer.

A governor also carries the optional
:class:`~repro.robustness.faultinject.FaultInjector`, so every fault a
test wants to inject flows through the same chokepoint real exhaustion
does, and an :class:`GovernorEvents` ledger that the stats layer
surfaces (budget hits, fallbacks, kept-unknown tuples).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .errors import BudgetExceeded, ConditionTooLarge

__all__ = ["Governor", "GovernorEvents", "WorkTicket", "ON_BUDGET_MODES"]

#: Accepted degradation policies.
ON_BUDGET_MODES = ("degrade", "fail")

#: How many ticks pass between wall-clock deadline checks.  Checking the
#: clock on every tick would dominate the backends' inner loops.
_DEADLINE_CHECK_MASK = 0xFF


@dataclass
class GovernorEvents:
    """Cumulative ledger of governance events for one governor."""

    solver_calls: int = 0
    budget_hits: int = 0  # deadline, call-budget, or step-budget exhaustion
    condition_rejections: int = 0  # oversized conditions refused
    fallbacks: int = 0  # enumeration → DPLL escalations
    unknown_verdicts: int = 0  # calls degraded to UNKNOWN
    injected_faults: int = 0  # faults fired by the injector
    retries: int = 0  # retry-with-larger-budget escalations

    def reset(self) -> None:
        self.solver_calls = 0
        self.budget_hits = 0
        self.condition_rejections = 0
        self.fallbacks = 0
        self.unknown_verdicts = 0
        self.injected_faults = 0
        self.retries = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "solver_calls": self.solver_calls,
            "budget_hits": self.budget_hits,
            "condition_rejections": self.condition_rejections,
            "fallbacks": self.fallbacks,
            "unknown_verdicts": self.unknown_verdicts,
            "injected_faults": self.injected_faults,
            "retries": self.retries,
        }


class WorkTicket:
    """Cooperative cancellation token for one solver routine.

    Backends call :meth:`tick` in their inner loops; the ticket raises
    :class:`BudgetExceeded` when its step budget runs out, and checks
    the governor's wall-clock deadline every few hundred ticks.
    """

    __slots__ = ("governor", "steps", "used")

    def __init__(self, governor: Optional["Governor"], steps: Optional[int]):
        self.governor = governor
        self.steps = steps
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.steps is not None and self.used > self.steps:
            if self.governor is not None:
                self.governor.events.budget_hits += 1
            raise BudgetExceeded(
                f"solver step budget of {self.steps} exhausted", resource="steps"
            )
        if self.governor is not None and (self.used & _DEADLINE_CHECK_MASK) == 0:
            self.governor.check_deadline()

    @property
    def remaining(self) -> Optional[int]:
        if self.steps is None:
            return None
        return max(0, self.steps - self.used)

    def sub(self, fraction: float) -> "WorkTicket":
        """A per-stage sub-ticket holding ``fraction`` of the remainder."""
        if self.steps is None:
            return WorkTicket(self.governor, None)
        return WorkTicket(self.governor, max(1, int(self.remaining * fraction)))


class Governor:
    """Per-query resource budgets threaded through the solver stack.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock budget per query (armed by :meth:`start`); ``None``
        disables the deadline.
    solver_call_budget:
        Maximum decision-procedure invocations per query.
    steps_per_call:
        Cooperative step budget handed to each backend invocation.
    max_condition_atoms:
        Conditions with more atoms than this are refused
        (:class:`ConditionTooLarge`) before any solving is attempted.
    on_budget:
        ``"degrade"`` (sound three-valued degradation) or ``"fail"``.
    injector:
        Optional deterministic fault injector; consulted on every
        solver call.
    clock:
        Injectable monotonic clock (tests pin it to fake time).
    """

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        solver_call_budget: Optional[int] = None,
        steps_per_call: Optional[int] = None,
        max_condition_atoms: Optional[int] = None,
        on_budget: str = "degrade",
        injector=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if on_budget not in ON_BUDGET_MODES:
            raise ValueError(
                f"on_budget must be one of {ON_BUDGET_MODES}, got {on_budget!r}"
            )
        self.deadline_seconds = deadline_seconds
        self.solver_call_budget = solver_call_budget
        self.steps_per_call = steps_per_call
        self.max_condition_atoms = max_condition_atoms
        self.on_budget = on_budget
        self.injector = injector
        self.clock = clock
        self.events = GovernorEvents()
        self._deadline_at: Optional[float] = None
        self._calls_used = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def degrade(self) -> bool:
        return self.on_budget == "degrade"

    def start(self) -> "Governor":
        """Arm the per-query deadline and reset per-query counters."""
        self._calls_used = 0
        if self.deadline_seconds is not None:
            self._deadline_at = self.clock() + self.deadline_seconds
        else:
            self._deadline_at = None
        return self

    def ensure_started(self) -> None:
        """Arm the deadline if no query has armed it yet (idempotent)."""
        if self._deadline_at is None and self.deadline_seconds is not None:
            self.start()

    def scale(self, factor: float) -> "Governor":
        """Multiply every configured budget by ``factor`` (for retries).

        Used by the verifier's retry-with-larger-budget escalation; the
        caller re-arms with :meth:`start` afterwards.
        """
        if self.deadline_seconds is not None:
            self.deadline_seconds *= factor
        if self.solver_call_budget is not None:
            self.solver_call_budget = int(self.solver_call_budget * factor)
        if self.steps_per_call is not None:
            self.steps_per_call = int(self.steps_per_call * factor)
        self.events.retries += 1
        return self

    def remaining_calls(self) -> Optional[int]:
        """Solver calls left in the budget (``None`` when unbounded)."""
        if self.solver_call_budget is None:
            return None
        return max(0, self.solver_call_budget - self._calls_used)

    # -- checks ------------------------------------------------------------

    def remaining_seconds(self) -> Optional[float]:
        if self._deadline_at is None:
            return None
        return self._deadline_at - self.clock()

    def check_deadline(self) -> None:
        """Raise :class:`BudgetExceeded` once the deadline has passed."""
        if self._deadline_at is not None and self.clock() > self._deadline_at:
            self.events.budget_hits += 1
            raise BudgetExceeded(
                f"query deadline of {self.deadline_seconds}s exceeded",
                resource="deadline",
            )

    def admit(self, condition) -> None:
        """Refuse conditions over the size ceiling before solving them."""
        if self.max_condition_atoms is None:
            return
        atoms = sum(1 for _ in condition.atoms())
        if atoms > self.max_condition_atoms:
            self.events.condition_rejections += 1
            raise ConditionTooLarge(
                f"condition has {atoms} atoms, over the ceiling of "
                f"{self.max_condition_atoms}",
                atoms=atoms,
                limit=self.max_condition_atoms,
            )

    def begin_solver_call(self, condition=None) -> WorkTicket:
        """Admit one decision-procedure invocation.

        Counts the call against the budget, fires any scheduled injected
        fault, checks the deadline and (when given) the condition size,
        and returns the :class:`WorkTicket` the backend must tick.
        """
        self._calls_used += 1
        self.events.solver_calls += 1
        if self.injector is not None:
            self.injector.on_solver_call(self)
        if (
            self.solver_call_budget is not None
            and self._calls_used > self.solver_call_budget
        ):
            self.events.budget_hits += 1
            raise BudgetExceeded(
                f"solver-call budget of {self.solver_call_budget} exhausted",
                resource="solver-calls",
            )
        self.check_deadline()
        if condition is not None:
            self.admit(condition)
        return WorkTicket(self, self.steps_per_call)

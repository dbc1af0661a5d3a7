"""The relative-complete verifier: a ladder of increasingly informed tests.

Fauré's verification philosophy (§2, §5): instead of one conclusive
verifier demanding the whole network, run the *strongest test the
available information permits*, and answer "unknown" only when more
information is genuinely needed:

1. **constraints only** → category (i) subsumption;
2. **+ update** → category (ii) rewrite-then-subsume;
3. **+ network state** → direct (possibly conditional) evaluation.

:class:`RelativeCompleteVerifier` runs the ladder in order and reports
which level decided, so callers can see exactly what information bought
the verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..ctable.condition import Condition, FALSE
from ..ctable.table import Database
from ..faurelog.rewrite import Update, apply_update
from ..robustness.errors import FaureError
from ..solver.domains import Domain
from ..solver.interface import ConditionSolver
from .constraints import CheckResult, Constraint, Status
from .subsumption import SubsumptionVerdict, check_subsumption
from .updates import check_with_update

__all__ = ["Level", "Verdict", "RelativeCompleteVerifier"]


class Level(enum.Enum):
    """Information levels, weakest first."""

    CONSTRAINTS = "constraints-only"
    UPDATE = "constraints+update"
    STATE = "full-state"


@dataclass
class Verdict:
    """The ladder's answer: status, deciding level, and the trail."""

    status: Status
    decided_by: Optional[Level] = None
    violation_condition: Condition = FALSE
    trail: List[str] = field(default_factory=list)
    #: Shared-memo activity attributable to this verification run
    #: (``memo_hits``/``memo_misses``/``canonical_collapses`` deltas of
    #: the verifier's solver); empty when memoization is disabled.
    memo_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is Status.HOLDS

    def __str__(self) -> str:
        by = f" (by {self.decided_by.value})" if self.decided_by else ""
        return f"{self.status.value}{by}"


class RelativeCompleteVerifier:
    """Runs the strongest applicable test for the information at hand.

    Parameters
    ----------
    known_constraints:
        Constraints maintained by other teams, assumed to hold (after
        the update, per §5's setting).
    solver:
        Shared condition solver.
    schemas / column_domains:
        Ground the containment tests in the network's attribute domains.
    """

    def __init__(
        self,
        known_constraints: Sequence[Constraint],
        solver: ConditionSolver,
        schemas: Optional[Dict[str, Sequence[str]]] = None,
        column_domains: Optional[Dict[str, Domain]] = None,
        generic_rows: Optional[int] = None,
        budget_retries: int = 1,
        budget_growth: float = 4.0,
    ):
        self.known = list(known_constraints)
        self.solver = solver
        self.schemas = schemas
        self.column_domains = column_domains
        self.generic_rows = generic_rows
        #: Verification wants definite answers: an INCONCLUSIVE direct
        #: check is retried up to this many times, scaling every budget
        #: of the solver's governor by ``budget_growth`` each attempt.
        self.budget_retries = budget_retries
        self.budget_growth = budget_growth

    def verify(
        self,
        target: Constraint,
        update: Optional[Update] = None,
        state: Optional[Database] = None,
    ) -> Verdict:
        """Climb the ladder with whatever is supplied.

        ``update=None`` stops after category (i); ``state=None`` stops
        after category (ii).  The verdict's trail records each attempt.
        """
        trail: List[str] = []
        degrade = self.solver.governor is not None and self.solver.governor.degrade
        stats = self.solver.stats
        memo_before = (stats.memo_hits, stats.memo_misses, stats.canonical_collapses)

        def finish(verdict: Verdict) -> Verdict:
            if self.solver.memo is not None:
                verdict.memo_stats = {
                    "memo_hits": stats.memo_hits - memo_before[0],
                    "memo_misses": stats.memo_misses - memo_before[1],
                    "canonical_collapses": stats.canonical_collapses - memo_before[2],
                }
            return verdict

        # Level 1: constraints only.  The subsumption tests internally
        # demand definite solver answers; under a degrading governor a
        # budget failure is not an error, just "this level cannot
        # decide" — fall through to the next rung of the ladder.
        try:
            sub = check_subsumption(
                target,
                self.known,
                self.solver,
                schemas=self.schemas,
                column_domains=self.column_domains,
                generic_rows=self.generic_rows,
            )
        except FaureError as exc:
            if not degrade:
                raise
            trail.append(f"category(i) subsumption: inconclusive ({exc})")
        else:
            trail.append(f"category(i) subsumption: {sub}")
            if sub.verdict is SubsumptionVerdict.SUBSUMED:
                return finish(Verdict(Status.HOLDS, Level.CONSTRAINTS, trail=trail))

        # Level 2: + update.
        if update is not None:
            try:
                sub2 = check_with_update(
                    target,
                    self.known,
                    update,
                    self.solver,
                    schemas=self.schemas,
                    column_domains=self.column_domains,
                    generic_rows=self.generic_rows,
                )
            except FaureError as exc:
                if not degrade:
                    raise
                trail.append(f"category(ii) rewrite+subsumption: inconclusive ({exc})")
            else:
                trail.append(f"category(ii) rewrite+subsumption: {sub2}")
                if sub2.verdict is SubsumptionVerdict.SUBSUMED:
                    return finish(Verdict(Status.HOLDS, Level.UPDATE, trail=trail))

        # Level 3: + full state (direct, possibly conditional, check).
        if state is not None:
            checked_state = apply_update(state, update) if update is not None else state
            result = target.check(checked_state, self.solver)
            trail.append(f"direct check: {result}")
            # Retry-with-larger-budget: verification is where a definite
            # answer matters, so an INCONCLUSIVE (budget-starved) check
            # escalates — scale the governor's budgets and re-run.
            governor = self.solver.governor
            attempt = 0
            while (
                result.status is Status.INCONCLUSIVE
                and governor is not None
                and attempt < self.budget_retries
            ):
                attempt += 1
                governor.scale(self.budget_growth)
                governor.start()
                result = target.check(checked_state, self.solver)
                trail.append(
                    f"direct check (budget x{self.budget_growth ** attempt:g}): {result}"
                )
            return finish(
                Verdict(
                    result.status,
                    Level.STATE,
                    violation_condition=result.violation_condition,
                    trail=trail,
                )
            )

        return finish(Verdict(Status.UNKNOWN, None, trail=trail))

    def verify_many(
        self,
        targets: Sequence[Constraint],
        update: Optional[Update] = None,
        state: Optional[Database] = None,
        checkpoint=None,
    ) -> List[Verdict]:
        """Run the ladder on independent target constraints, in order.

        A loop over :meth:`verify`.  With ``checkpoint`` (a
        :class:`~repro.robustness.checkpoint.CheckpointJournal`),
        already-durable verdicts are replayed and fresh ones journaled
        per target, so a killed run resumes re-verifying nothing.
        """
        verdicts: List[Verdict] = []
        for i, target in enumerate(targets):
            key = {"unit": "verify", "target": target.name, "index": i}
            payload = checkpoint.get("verify", key) if checkpoint is not None else None
            if payload is not None:
                from ..robustness.checkpoint import verdict_from_obj

                verdicts.append(verdict_from_obj(payload))
                continue
            verdict = self.verify(target, update=update, state=state)
            if checkpoint is not None:
                from ..robustness.checkpoint import verdict_to_obj

                checkpoint.record("verify", key, verdict_to_obj(verdict))
            verdicts.append(verdict)
        return verdicts

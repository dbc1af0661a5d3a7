"""The solver façade: the drop-in replacement for the paper's Z3 calls.

:class:`ConditionSolver` exposes exactly the decision services fauré
needs — satisfiability (step 3 of the evaluation pipeline prunes tuples
with unsatisfiable conditions), implication (condition subsumption during
fixpoint dedup and containment checking), equivalence, model enumeration
(the possible-worlds oracle), and simplification.

Routing — the decision ladder of :meth:`ConditionSolver.sat_verdict`:
trivial structure, then the per-solver cache, then one governed call is
charged, then the **raw rung** (:func:`repro.solver.atoms.raw_sat`)
tries the condition exactly as given — sat(A) = not (A ⊨ ⊥) over its
atomized candidate space, the same check :func:`~repro.solver.atoms.fast_implies`
runs for dedup.  Only when that misses is the canonical form interned:
canonical collapse to TRUE/FALSE, the shared memo (and its store), and
then :meth:`~ConditionSolver._decide_sat` — the fast path on the
canonical form (:func:`repro.solver.atoms.fast_sat`), exact enumeration
when every c-variable has a finite domain of tractable product size,
and the DPLL(T) branch-and-check driver for everything else.  Raw-rung
verdicts are cached per solver only; the memo holds verdicts from past
the raw rung.  Wall-clock spent inside the solver is accounted in
:class:`SolverStats` so the benchmark harness can report the paper's
"sql time vs Z3 time" split.

Resource governance: when a
:class:`~repro.robustness.governor.Governor` is attached, every
decision flows through it — call budgets, deadlines, condition-size
ceilings, and injected faults all surface as
:class:`~repro.robustness.errors.BudgetExceeded` (or siblings) inside a
call.  A satisfiability decision is charged exactly one
``begin_solver_call`` — after the size ceiling, before the first rung —
whichever rung then decides it, so call budgets and fault schedules are
the same with the memo, the shared store or the fast path on or off.
The three-valued entry points (:meth:`sat_verdict`,
:meth:`implies_verdict`, :meth:`valid_verdict`) convert those to
``UNKNOWN`` in ``degrade`` mode; the boolean legacy entry points
(:meth:`is_satisfiable`, :meth:`implies`, ...) demand a definite answer
and raise when none is available.  Escalation order inside one call:
exact enumeration (half the step budget) → DPLL(T) (the remainder) →
``UNKNOWN``.  Without a governor, behavior is byte-identical to the
ungoverned solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..ctable.condition import (
    And,
    Condition,
    FALSE,
    FalseCond,
    TRUE,
    TrueCond,
    conjoin,
    disjoin,
)
from ..ctable.terms import Constant, CVariable
from ..clock import phase_clock
from ..robustness.errors import BudgetExceeded, ConditionTooLarge, SolverFailure
from ..robustness.governor import Governor, WorkTicket
from ..robustness.verdict import Trivalent, Verdict
from .atoms import fast_implies, fast_sat, raw_sat
from .domains import DomainMap
from .dpll import is_satisfiable_dpll
from .enumerate import Assignment, count_models, find_model, iter_models
from .memo import MemoTable, shared_memo

__all__ = ["ConditionSolver", "SolverStats", "SHARED_MEMO"]

#: Sentinel: "use the process-wide shared memo table" (the default).
SHARED_MEMO = object()

#: Failure classes the governor can signal from inside a decision call.
_GOVERNED_FAILURES = (BudgetExceeded, SolverFailure, ConditionTooLarge)


@dataclass
class SolverStats:
    """Call and time accounting for solver usage."""

    sat_calls: int = 0
    implication_calls: int = 0
    cache_hits: int = 0
    enumeration_used: int = 0
    dpll_used: int = 0
    time_seconds: float = 0.0
    unknown_verdicts: int = 0
    budget_hits: int = 0
    fallbacks: int = 0
    #: Shared-memo accounting (zero when memoization is disabled):
    #: verdicts served from the process-wide table, verdicts this solver
    #: had to compute and store, and decisions the canonicalizer settled
    #: outright (condition collapsed to TRUE/FALSE before any backend).
    memo_hits: int = 0
    memo_misses: int = 0
    canonical_collapses: int = 0
    #: Interval/atom fast-path accounting: decisions the semi-decision
    #: procedure settled outright vs. ones that fell through to the
    #: complete backends (enumeration/DPLL).
    fast_path_hits: int = 0
    fast_path_misses: int = 0

    def reset(self) -> None:
        self.sat_calls = 0
        self.implication_calls = 0
        self.cache_hits = 0
        self.enumeration_used = 0
        self.dpll_used = 0
        self.time_seconds = 0.0
        self.unknown_verdicts = 0
        self.budget_hits = 0
        self.fallbacks = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.canonical_collapses = 0
        self.fast_path_hits = 0
        self.fast_path_misses = 0

    @property
    def decisions(self) -> int:
        """Decision-procedure invocations that had to *compute* a verdict
        (fast-path, enumeration, or DPLL) rather than serve a cache."""
        return self.enumeration_used + self.dpll_used + self.fast_path_hits


class ConditionSolver:
    """Decision procedure over the fauré condition language.

    Parameters
    ----------
    domains:
        Domain declarations for the c-variables in play.
    enumeration_limit:
        Maximum product of domain sizes for which exact enumeration is
        attempted; larger (or unbounded) instances use DPLL(T).
    governor:
        Optional resource governor; see the module docstring.  ``None``
        (the default) disables governance entirely.
    memo:
        Shared verdict memoization keyed on canonical condition forms.
        The default (:data:`SHARED_MEMO`) attaches the process-wide
        :class:`~repro.solver.memo.MemoTable`, so every solver in a
        pipeline run shares one warm cache; pass an explicit table to
        scope sharing, or ``None`` (CLI: ``--no-memo``) to disable
        canonicalization and cross-solver sharing entirely.
    fast_path:
        Enable the interval/atom semi-decision fast path: the raw rung
        (:func:`repro.solver.atoms.raw_sat`) and its canonical-form
        tier (:func:`repro.solver.atoms.fast_sat`), plus the raw-pair
        :func:`~repro.solver.atoms.fast_implies` for entailment.
        ``False`` (CLI: ``--no-fast-path``) turns all of them off and
        routes every decision through the memo to enumeration/DPLL;
        verdicts are byte-identical either way — the fast path only
        answers when its answer is provably the one the complete
        backends would give.
    """

    def __init__(
        self,
        domains: Optional[DomainMap] = None,
        enumeration_limit: int = 1 << 20,
        governor: Optional[Governor] = None,
        memo=SHARED_MEMO,
        fast_path: bool = True,
    ):
        self.domains = domains if domains is not None else DomainMap()
        self.enumeration_limit = enumeration_limit
        self.governor = governor
        self.memo: Optional[MemoTable] = shared_memo() if memo is SHARED_MEMO else memo
        self.fast_path = fast_path
        self.stats = SolverStats()
        self._sat_cache: Dict[Condition, bool] = {}
        self._implies_cache: Dict[Tuple[Condition, Condition], Trivalent] = {}

    def canonical(self, condition: Condition) -> Condition:
        """The interned canonical form (the input when memoization is off)."""
        if self.memo is None:
            return condition
        return self.memo.canonical(condition)

    # -- core decisions ----------------------------------------------------

    def sat_verdict(self, condition: Condition) -> Verdict:
        """Three-valued satisfiability.

        The ladder after the per-solver cache: one governed call is
        charged (the size ceiling first, then ``begin_solver_call``),
        the raw rung (:func:`~repro.solver.atoms.raw_sat`) tries the
        condition as given, and only on its miss is the canonical form
        interned for the collapse / memo / :meth:`_decide_sat` rungs.
        A raw-rung verdict goes into the per-solver cache only, never
        into the memo (or its journal / shared-store observers).

        ``UNKNOWN`` is returned (never cached) when the governor's
        budget runs out in ``degrade`` mode; in ``fail`` mode (or from
        the boolean entry points) the failure propagates instead.
        """
        self.stats.sat_calls += 1
        if isinstance(condition, TrueCond):
            return Verdict.SAT
        if isinstance(condition, FalseCond):
            return Verdict.UNSAT
        cached = self._sat_cache.get(condition)
        if cached is not None:
            self.stats.cache_hits += 1
            return Verdict.from_bool(cached)
        gov = self.governor
        memo = self.memo
        memo_key = None
        start = phase_clock()
        try:
            ticket = None
            if gov is not None:
                # The size ceiling applies before any work, so an
                # oversized condition costs no call-budget or fault slot.
                gov.admit(condition)
                ticket = gov.begin_solver_call()
            result = raw_sat(condition, self.domains) if self.fast_path else None
            if result is not None:
                self.stats.fast_path_hits += 1
            elif memo is not None:
                canon = memo.canonical(condition)
                if isinstance(canon, (TrueCond, FalseCond)):
                    self.stats.canonical_collapses += 1
                    result = isinstance(canon, TrueCond)
                else:
                    memo_key = memo.sat_key(canon, self.domains)
                    hit = memo.get(memo_key)
                    if hit is not None:
                        self.stats.memo_hits += 1
                        memo_key = None  # already stored
                        result = hit
                    else:
                        self.stats.memo_misses += 1
                        result = self._decide_sat(canon, ticket)
            else:
                result = self._decide_sat(condition, ticket)
        except _GOVERNED_FAILURES as exc:
            if isinstance(exc, BudgetExceeded):
                self.stats.budget_hits += 1
            if gov is None or not gov.degrade:
                raise
            self.stats.unknown_verdicts += 1
            gov.events.unknown_verdicts += 1
            # UNKNOWN is never cached — neither here nor in the memo.
            return Verdict.UNKNOWN
        finally:
            # try/finally so wall-clock is accounted even when a solver
            # routine raises (budget exhaustion, injected faults, ...).
            self.stats.time_seconds += phase_clock() - start
        if memo_key is not None:
            memo.put(memo_key, result)
        self._sat_cache[condition] = result
        return Verdict.from_bool(result)

    def is_satisfiable(self, condition: Condition) -> bool:
        """True when some assignment of the c-variables satisfies it.

        Boolean façade over :meth:`sat_verdict`; demands a definite
        answer, so budget exhaustion raises instead of degrading.
        """
        return self.sat_verdict(condition).as_bool()

    def sat_verdict_cached(self, condition: Condition) -> Optional[Verdict]:
        """Answer from caches alone: no decision rung, no governed charge.

        Answers from trivial structure, the per-solver cache, canonical
        collapse, or a memo *peek* — and returns ``None`` when only a
        decision rung (raw, fast path or backend) could answer.  Used
        by the batched pruner to split condition classes into resolved
        and residual before it charges one call per residual class.

        Accounting: a resolved probe counts what :meth:`sat_verdict`
        counts on the same hit path, minus the governed charge; an
        unresolved probe counts nothing at all (the later real
        :meth:`sat_verdict` call does its own full accounting).
        """
        if isinstance(condition, TrueCond):
            self.stats.sat_calls += 1
            return Verdict.SAT
        if isinstance(condition, FalseCond):
            self.stats.sat_calls += 1
            return Verdict.UNSAT
        cached = self._sat_cache.get(condition)
        if cached is not None:
            self.stats.sat_calls += 1
            self.stats.cache_hits += 1
            return Verdict.from_bool(cached)
        memo = self.memo
        if memo is None:
            return None
        # Honor the size ceiling *before* interning, as sat_verdict does
        # — but without counting a rejection event: the caller routes
        # oversized conditions to the real (per-tuple) path, which
        # performs the governed rejection itself.
        if self.governor is not None:
            gov = self.governor
            if gov.max_condition_atoms is not None:
                if sum(1 for _ in condition.atoms()) > gov.max_condition_atoms:
                    return None
        canon = memo.canonical(condition)
        if isinstance(canon, (TrueCond, FalseCond)):
            self.stats.sat_calls += 1
            self.stats.canonical_collapses += 1
            result = isinstance(canon, TrueCond)
            self._sat_cache[condition] = result
            return Verdict.from_bool(result)
        hit = memo.peek(memo.sat_key(canon, self.domains))
        if hit is not None:
            self.stats.sat_calls += 1
            self.stats.memo_hits += 1
            self._sat_cache[condition] = hit
            return Verdict.from_bool(hit)
        return None

    def _decide_sat(self, condition: Condition, ticket: Optional[WorkTicket]) -> bool:
        """The rungs past the raw rung and the memo, with governed escalation.

        ``ticket`` is the one :meth:`Governor.begin_solver_call` charge
        :meth:`sat_verdict` made before its first rung (``None`` when
        ungoverned), so the charged call count does not depend on which
        rung decides.

        Tier 0 — the interval/atom semi-decision fast path on the
        canonical form (or the raw condition with memoization off):
        equality chains, pooled intervals, disjunction case splits and
        unit-coefficient linear atoms settle what the raw rung's
        candidate space could not (definite verdicts only).
        Tier 1 — exact enumeration when every domain is finite and the
        product is tractable, under half the per-call step budget.
        Tier 2 — on a tier-1 step-budget exhaustion, *fall over* to
        the DPLL(T) driver with the remaining budget (its theory-guided
        pruning often decides instances enumeration cannot).  A failure
        in the final stage propagates to :meth:`sat_verdict`.
        """
        if self.fast_path:
            # The memoized path hands us the canonical form already.
            verdict = fast_sat(
                condition, self.domains, assume_canonical=self.memo is not None
            )
            if verdict is not None:
                self.stats.fast_path_hits += 1
                return verdict
            self.stats.fast_path_misses += 1
        cvars = condition.cvariables()
        size = self.domains.enumeration_size(cvars)
        if size is not None and size <= self.enumeration_limit:
            self.stats.enumeration_used += 1
            if ticket is None:
                return find_model(condition, self.domains) is not None
            try:
                sub = ticket.sub(0.5)
                return find_model(condition, self.domains, ticker=sub) is not None
            except BudgetExceeded as exc:
                if exc.resource != "steps":
                    raise  # deadline/injected: no point retrying in-call
                self.stats.fallbacks += 1
                self.governor.events.fallbacks += 1
                self.stats.dpll_used += 1
                return is_satisfiable_dpll(
                    condition, self.domains, ticker=ticket.sub(1.0)
                )
        self.stats.dpll_used += 1
        return is_satisfiable_dpll(condition, self.domains, ticker=ticket)

    def valid_verdict(self, condition: Condition) -> Trivalent:
        """Three-valued validity (truth in every assignment)."""
        verdict = self.sat_verdict(condition.negate())
        if verdict is Verdict.UNSAT:
            return Trivalent.TRUE
        if verdict is Verdict.SAT:
            return Trivalent.FALSE
        return Trivalent.UNKNOWN

    def is_valid(self, condition: Condition) -> bool:
        """True when every assignment satisfies the condition."""
        return self.valid_verdict(condition).as_bool()

    def implies_verdict(self, antecedent: Condition, consequent: Condition) -> Trivalent:
        """Three-valued entailment (memoized on the canonical pair)."""
        self.stats.implication_calls += 1
        if isinstance(consequent, TrueCond) or isinstance(antecedent, FalseCond):
            return Trivalent.TRUE
        if antecedent == consequent:
            return Trivalent.TRUE
        # Raw-pair cache (the implication analogue of ``_sat_cache``):
        # the fixpoint dedup loop re-asks identical pairs every round a
        # tuple is re-derived, so definite answers are replayed without
        # touching the fast path, memo, or backends.
        raw_pair = (antecedent, consequent)
        cached_pair = self._implies_cache.get(raw_pair)
        if cached_pair is not None:
            self.stats.cache_hits += 1
            return cached_pair
        # Tier 0 — the fast path on the *raw* pair: a forced antecedent
        # assignment decides entailment with two evaluations, skipping
        # canonicalization of both sides and of the conjoined refutation
        # condition (the dominant cost of the c-table dedup hot path).
        if self.fast_path:
            start = phase_clock()
            fast = fast_implies(antecedent, consequent, self.domains)
            self.stats.time_seconds += phase_clock() - start
            if fast is not None:
                self.stats.fast_path_hits += 1
                result = Trivalent.TRUE if fast else Trivalent.FALSE
                self._implies_cache[raw_pair] = result
                return result
            self.stats.fast_path_misses += 1
        memo = self.memo
        memo_key = None
        if memo is not None:
            try:
                if self.governor is not None:
                    self.governor.admit(antecedent)
                    self.governor.admit(consequent)
            except ConditionTooLarge:
                if not self.governor.degrade:
                    raise
                self.stats.unknown_verdicts += 1
                self.governor.events.unknown_verdicts += 1
                return Trivalent.UNKNOWN
            canon_a = memo.canonical(antecedent)
            canon_b = memo.canonical(consequent)
            if canon_a is canon_b or canon_a == canon_b:
                self._implies_cache[raw_pair] = Trivalent.TRUE
                return Trivalent.TRUE
            if isinstance(canon_b, TrueCond) or isinstance(canon_a, FalseCond):
                self._implies_cache[raw_pair] = Trivalent.TRUE
                return Trivalent.TRUE
            memo_key = memo.implies_key(canon_a, canon_b, self.domains)
            hit = memo.get(memo_key)
            if hit is not None:
                self.stats.memo_hits += 1
                result = Trivalent.TRUE if hit else Trivalent.FALSE
                self._implies_cache[raw_pair] = result
                return result
            self.stats.memo_misses += 1
            antecedent, consequent = canon_a, canon_b
        verdict = self.sat_verdict(conjoin([antecedent, consequent.negate()]))
        if verdict is Verdict.UNSAT:
            if memo_key is not None:
                memo.put(memo_key, True)
            self._implies_cache[raw_pair] = Trivalent.TRUE
            return Trivalent.TRUE
        if verdict is Verdict.SAT:
            if memo_key is not None:
                memo.put(memo_key, False)
            self._implies_cache[raw_pair] = Trivalent.FALSE
            return Trivalent.FALSE
        return Trivalent.UNKNOWN

    def implies(self, antecedent: Condition, consequent: Condition) -> bool:
        """Entailment: every model of ``antecedent`` satisfies ``consequent``."""
        return self.implies_verdict(antecedent, consequent).as_bool()

    def equivalent(self, a: Condition, b: Condition) -> bool:
        """Mutual entailment."""
        return self.implies(a, b) and self.implies(b, a)

    # -- model services ------------------------------------------------------

    def models(
        self,
        condition: Condition,
        variables: Optional[List[CVariable]] = None,
    ) -> Iterator[Assignment]:
        """Enumerate satisfying assignments (finite domains required)."""
        return iter_models(condition, self.domains, variables)

    def model(self, condition: Condition) -> Optional[Assignment]:
        """One satisfying assignment, or ``None``."""
        if not condition.cvariables():
            # Variable-free: truth is fixed.
            return {} if self.is_satisfiable(condition) else None
        cvars = condition.cvariables()
        if self.domains.all_finite(cvars):
            start = phase_clock()
            try:
                return find_model(condition, self.domains)
            finally:
                self.stats.time_seconds += phase_clock() - start
        if self.is_satisfiable(condition):
            raise ValueError("model extraction requires finite domains")
        return None

    def model_count(self, condition: Condition) -> int:
        """Exact model count over the condition's c-variables."""
        start = phase_clock()
        try:
            return count_models(condition, self.domains)
        finally:
            self.stats.time_seconds += phase_clock() - start

    # -- simplification --------------------------------------------------------

    def prune(self, condition: Condition) -> Condition:
        """Collapse to FALSE when unsatisfiable, TRUE when valid.

        Degrades soundly: an ``UNKNOWN`` verdict leaves the condition
        untouched (equivalent, merely unsimplified).
        """
        verdict = self.sat_verdict(condition)
        if verdict is Verdict.UNSAT:
            return FALSE
        if verdict is Verdict.UNKNOWN:
            return condition
        if self.valid_verdict(condition) is Trivalent.TRUE:
            return TRUE
        return condition

    def simplify(self, condition: Condition) -> Condition:
        """Cheap semantic minimization.

        Collapses unsatisfiable/valid conditions, drops redundant
        conjuncts (conjuncts implied by the remaining ones) and dead
        disjuncts (unsatisfiable arms).  Result is equivalent to the
        input under the solver's domain map.  Every rewrite requires a
        *definite* verdict, so ``UNKNOWN`` keeps the subterm.
        """
        pruned = self.prune(condition)
        if isinstance(pruned, (TrueCond, FalseCond)):
            return pruned
        if isinstance(pruned, And):
            children = list(pruned.children)
            kept: List[Condition] = []
            for i, child in enumerate(children):
                rest = kept + children[i + 1:]
                if rest and self.implies_verdict(conjoin(rest), child) is Trivalent.TRUE:
                    continue
                kept.append(child)
            return conjoin(kept)
        if hasattr(pruned, "children") and pruned.__class__.__name__ == "Or":
            kept = [c for c in pruned.children if self.sat_verdict(c) is not Verdict.UNSAT]
            return disjoin(kept)
        return pruned

    # -- bookkeeping -------------------------------------------------------------

    def clear_cache(self) -> None:
        self._sat_cache.clear()

    def with_domains(self, domains: DomainMap) -> "ConditionSolver":
        """A sibling solver over different domain declarations."""
        return ConditionSolver(
            domains,
            self.enumeration_limit,
            governor=self.governor,
            memo=self.memo,
            fast_path=self.fast_path,
        )

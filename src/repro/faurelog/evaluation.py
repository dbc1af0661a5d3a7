"""Stratified (semi-naive) fixpoint evaluation of fauré-log programs.

Evaluation follows the paper's recipe: the classic datalog fixpoint, with
the c-valuation of :mod:`repro.faurelog.valuation` in place of plain
variable valuation, stratification for negation, and the solver in two
roles —

* **pruning** (the paper's step 3): derived tuples whose conditions are
  unsatisfiable are dropped;
* **condition-aware dedup**: a derived tuple is *new* only when its
  condition is not implied by the disjunction of the conditions already
  recorded for the same data part.  This is what makes recursion over
  c-tables terminate: once the recorded conditions cover all worlds in
  which a fact holds, further derivations stop contributing.

Time spent in the solver is charged to ``stats.solver_seconds``; the
remainder of the evaluation wall time is the "sql" bucket, giving the
same split Table 4 reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..ctable.condition import Condition, FalseCond, TRUE, disjoin
from ..ctable.table import CTable, CTuple, Database
from ..ctable.terms import Term
from ..engine.stats import EvalStats, phase_clock
from ..engine.storage import IndexedTable, Storage
from ..robustness.errors import BudgetExceeded
from ..robustness.governor import Governor
from ..robustness.verdict import Trivalent, Verdict
from ..solver.interface import ConditionSolver
from .ast import Program, ProgramError, Rule
from .stratify import stratify
from .valuation import build_head, derive

__all__ = ["FaureEvaluator", "Fixpoint", "evaluate"]


class _ConditionIndex:
    """Per-relation map: data part → conditions recorded so far.

    Recorded originals are what end up in the result table, so output
    stays byte-identical with memoization on or off.  The ordered list
    feeds :func:`disjoin` (and so the dedup query); a set beside it
    answers "already recorded" without a scan, and ``covered`` holds the
    keys recorded under ``TRUE``.
    """

    def __init__(self) -> None:
        self.by_key: Dict[Tuple[Term, ...], List[Condition]] = {}
        self.members: Dict[Tuple[Term, ...], Set[Condition]] = {}
        self.covered: Set[Tuple[Term, ...]] = set()
        # Cache of disjoin(existing) per key, invalidated on record():
        # dedup runs once per derived tuple, so rebuilding the
        # disjunction each time dominates its cost on wide keys.
        self.disjoined: Dict[Tuple[Term, ...], Condition] = {}

    def record(self, key: Tuple[Term, ...], condition: Condition) -> None:
        existing = self.by_key.get(key)
        if existing is None:
            self.by_key[key] = [condition]
            self.members[key] = {condition}
        else:
            existing.append(condition)
            self.members[key].add(condition)
            self.disjoined.pop(key, None)
        if condition is TRUE:
            self.covered.add(key)


class Fixpoint:
    """The prune / dedup / semi-naive loop both evaluators drive.

    :class:`FaureEvaluator` runs it once per stratum, seeded by round 0
    over the full storage; :class:`~repro.faurelog.incremental.IncrementalEvaluator`
    runs it over the whole program, seeded by the one-fact delta of an
    update.  Either way a derived tuple survives only if its condition
    may hold (``UNKNOWN`` keeps it) and is not implied by the conditions
    already recorded for its data part (``UNKNOWN`` records it).

    A budget error from the round-boundary deadline check propagates;
    each driver decides what a cut-short fixpoint means.
    """

    def __init__(
        self,
        storage: Storage,
        solver: Optional[ConditionSolver],
        stats: EvalStats,
        governor: Optional[Governor] = None,
        prune: bool = True,
        max_iterations: Optional[int] = None,
        provenance: Optional[List[Tuple[str, Tuple[Term, ...], Condition, Optional[str]]]] = None,
    ):
        #: Where rule bodies match and derived tuples land.
        self.storage = storage
        self.solver = solver
        self.stats = stats
        self.governor = governor
        self.prune = prune and solver is not None
        self.max_iterations = max_iterations
        self.provenance = provenance
        #: Recorded conditions per derived relation (see :meth:`track`).
        self.indexes: Dict[str, _ConditionIndex] = {}

    def track(self, table: CTable) -> None:
        """Dedup derivations into ``table``, recording its rows in order."""
        index = self.indexes[table.name] = _ConditionIndex()
        for tup in table:
            index.record(tup.data_key(), tup.condition)

    # -- the per-tuple decisions ---------------------------------------------

    def _keep(self, condition: Condition) -> bool:
        if isinstance(condition, FalseCond):
            self.stats.tuples_pruned += 1
            return False
        if not self.prune:
            return True
        verdict = self.solver.sat_verdict(condition)
        if verdict is Verdict.UNSAT:
            self.stats.tuples_pruned += 1
            return False
        if verdict is Verdict.UNKNOWN:
            # Keep-on-UNKNOWN: sound, the table is merely less simplified.
            self.stats.unknown_kept += 1
        return True

    def _is_new(
        self, index: _ConditionIndex, key: Tuple[Term, ...], condition: Condition
    ) -> bool:
        existing = index.by_key.get(key)
        if existing is None:
            return True
        if key in index.covered or condition in index.members[key]:
            return False
        solver = self.solver
        if solver is None:
            return True
        # Three-valued dedup: only a *definite* "implied by what's
        # recorded" may skip the insert.  UNKNOWN (budget exhausted)
        # treats the tuple as new — recording a redundant condition is
        # sound (possible worlds are unchanged), dropping a novel one
        # would lose worlds.
        disjoined = index.disjoined.get(key)
        if disjoined is None:
            disjoined = index.disjoined[key] = disjoin(existing)
        return solver.implies_verdict(condition, disjoined) is not Trivalent.TRUE

    def _insert(
        self, rule: Rule, values: Tuple[Term, ...], condition: Condition
    ) -> Optional[CTuple]:
        """Keep, dedup and store one derivation; returns the stored row.

        The one :class:`CTuple` built here is what the storage table, its
        indexes and the round's delta table all hold.
        """
        predicate = rule.head.predicate
        index = self.indexes[predicate]
        # Solver time (Table 4's split) covers the whole keep/dedup step.
        start = phase_clock()
        try:
            if not (self._keep(condition) and self._is_new(index, values, condition)):
                return None
        finally:
            self.stats.solver_seconds += phase_clock() - start
        index.record(values, condition)
        tup = CTuple(values, condition)
        self.storage.indexed(predicate).add(tup)
        self.stats.tuples_generated += 1
        if self.provenance is not None:
            self.provenance.append((predicate, values, condition, rule.label))
        return tup

    # -- the rounds ------------------------------------------------------------

    def run(self, rules: Sequence[Rule], delta: Optional[Dict[str, CTable]] = None) -> int:
        """Fire ``rules`` to fixpoint; returns the number of new tuples.

        With no ``delta``, round 0 fires every rule on the full storage;
        otherwise the semi-naive rounds start from ``delta``.
        """
        generated = self.stats.tuples_generated
        heads = {rule.head.predicate for rule in rules}
        if delta is None:
            delta = self._empty_delta(heads)
            for rule in rules:
                if self.governor is not None:
                    self.governor.check_deadline()
                self._fire(rule, delta, derive(rule, self.storage))
            self.stats.iterations += 1

        # Semi-naive rounds: re-fire only rules that read the delta,
        # once per positive literal bound to it.
        iteration = 1
        while True:
            delta_indexed = {
                name: IndexedTable(table) for name, table in delta.items() if len(table)
            }
            if not delta_indexed:
                break
            if self.governor is not None:
                # Cooperative mid-iteration cancellation point: a blown
                # deadline stops the fixpoint between rounds, never
                # mid-insert, so tables stay internally consistent.
                self.governor.check_deadline()
            if self.max_iterations is not None and iteration > self.max_iterations:
                raise ProgramError(
                    f"fixpoint exceeded {self.max_iterations} iterations"
                )
            delta = self._empty_delta(heads)
            for rule in rules:
                for position, literal in enumerate(rule.positive_literals()):
                    if literal.predicate in delta_indexed:
                        self._fire(rule, delta, derive(
                            rule,
                            self.storage,
                            delta_override=delta_indexed,
                            delta_position=position,
                        ))
            iteration += 1
            self.stats.iterations += 1
        return self.stats.tuples_generated - generated

    def _empty_delta(self, heads: Iterable[str]) -> Dict[str, CTable]:
        return {p: CTable(p, self.storage.db.table(p).schema) for p in heads}

    def _fire(
        self,
        rule: Rule,
        delta: Dict[str, CTable],
        derivations: Iterable[Tuple[Dict, Condition]],
    ) -> None:
        bucket = delta[rule.head.predicate]
        for bindings, condition in derivations:
            tup = self._insert(rule, build_head(rule, bindings), condition)
            if tup is not None:
                bucket.add(tup)


class FaureEvaluator:
    """Evaluates fauré-log programs over a c-table database.

    Parameters
    ----------
    database:
        The EDB: stored c-tables the program's body may reference.
    solver:
        Condition solver used for pruning and dedup.  ``None`` disables
        both (an ablation mode; recursion may then fail to terminate on
        cyclic inputs).
    max_iterations:
        Safety valve for the fixpoint loop (per stratum); ``None`` means
        unbounded.
    prune:
        When False, unsatisfiable-condition tuples are kept (ablation of
        the paper's step 3); dedup still uses the solver if present.
    governor:
        Resource governor for the fixpoint loop; defaults to the
        solver's own governor.  Under ``degrade`` policy a mid-iteration
        :class:`BudgetExceeded` stops the loop cleanly: the evaluator
        returns what was derived so far, sets :attr:`partial`, and
        counts the event in ``stats.partial_results`` (a partial
        fixpoint under-approximates, so downstream verdicts report
        inconclusive rather than "holds").
    """

    def __init__(
        self,
        database: Database,
        solver: Optional[ConditionSolver] = None,
        max_iterations: Optional[int] = None,
        prune: bool = True,
        storage: Optional[Storage] = None,
        record_provenance: bool = False,
        governor: Optional[Governor] = None,
    ):
        self.database = database
        self.solver = solver
        self.max_iterations = max_iterations
        self.prune = prune and solver is not None
        self.stats = EvalStats()
        self.record_provenance = record_provenance
        self.governor = governor if governor is not None else (
            solver.governor if solver is not None else None
        )
        #: True when the last evaluation was cut short by a budget.
        self.partial = False
        #: (predicate, data part, condition, rule label) per derived tuple,
        #: in derivation order — populated when record_provenance is set.
        self.provenance: List[Tuple[str, Tuple[Term, ...], Condition, Optional[str]]] = []
        #: The core of the last evaluation; its condition index is what
        #: an incremental evaluator adopts to keep deduplicating.
        self.fixpoint: Optional[Fixpoint] = None
        if storage is not None and storage.db is not database:
            raise ValueError("storage must wrap the same database")
        self._storage = storage

    def core(self, storage: Storage) -> Fixpoint:
        """A fresh :class:`Fixpoint` over ``storage`` with this evaluator's
        solver, stats and budgets."""
        return Fixpoint(
            storage,
            self.solver,
            self.stats,
            governor=self.governor,
            prune=self.prune,
            max_iterations=self.max_iterations,
            provenance=self.provenance if self.record_provenance else None,
        )

    # -- main entry ---------------------------------------------------------------

    def evaluate(self, program: Program) -> Database:
        """Run the program to fixpoint; returns the IDB as a database.

        The result database contains one c-table per IDB predicate
        (empty predicates yield empty tables when their arity is known).
        """
        wall_start = phase_clock()
        solver_before = self.stats.solver_seconds
        self.partial = False
        if self.governor is not None:
            self.governor.ensure_started()
        try:
            result = self._evaluate_inner(program)
        finally:
            wall = phase_clock() - wall_start
            solver_delta = self.stats.solver_seconds - solver_before
            self.stats.sql_seconds += max(0.0, wall - solver_delta)
        return result

    def _evaluate_inner(self, program: Program) -> Database:
        edb_names = set(self.database.names())
        idb = program.idb_predicates()
        clash = idb & edb_names
        if clash:
            raise ProgramError(
                f"IDB predicates shadow stored tables: {sorted(clash)}"
            )

        # Working storage: EDB tables plus IDB tables as they are built.
        # A caller-supplied storage lets repeated evaluations over the
        # same database reuse its (lazily built) indexes.
        working = self._storage if self._storage is not None else Storage(self.database)
        self.fixpoint = fixpoint = self.core(working)
        derived = Database()
        try:
            for predicate in idb:
                arity = program.arity_of(predicate)
                if arity is not None:
                    table = CTable(predicate, [f"c{i}" for i in range(arity)])
                    self.database.add_table(table)  # visible to body matching
                    derived.add_table(table)
                    fixpoint.track(table)

            for stratum in stratify(program):
                fixpoint.run([r for r in program if r.head.predicate in stratum])
        except BudgetExceeded:
            # Mid-iteration exhaustion: in degrade mode terminate with a
            # flagged partial result (the finally below restores the EDB
            # either way, so no state is corrupted); otherwise propagate.
            if self.governor is None or not self.governor.degrade:
                raise
            self.partial = True
            self.stats.partial_results += 1
        finally:
            for name in derived.names():
                self.database.drop_table(name)
                working.invalidate(name)
        return derived


def evaluate(
    program: Program,
    database: Database,
    solver: Optional[ConditionSolver] = None,
    stats: Optional[EvalStats] = None,
    max_iterations: Optional[int] = None,
    prune: bool = True,
    governor: Optional[Governor] = None,
) -> Database:
    """One-shot convenience wrapper around :class:`FaureEvaluator`.

    Partial-result status (budget-interrupted fixpoint) is surfaced via
    ``stats.partial_results`` when a ``stats`` object is supplied.
    """
    evaluator = FaureEvaluator(
        database,
        solver=solver,
        max_iterations=max_iterations,
        prune=prune,
        governor=governor,
    )
    result = evaluator.evaluate(program)
    if stats is not None:
        stats.add(evaluator.stats)
    return result

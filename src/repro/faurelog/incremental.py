"""Incremental maintenance of fauré-log results under EDB growth.

§7 contrasts fauré with incremental verifiers (Jinjing, INCV) that
maintain results as the network changes.  The two compose: c-tables
absorb *anticipated* change (failures as conditions), and incremental
evaluation absorbs *unanticipated* monotone change — a new route
announcement, a new ACL row — without recomputing from scratch.

:class:`IncrementalEvaluator` evaluates a program once, then maintains
the IDB under

* :meth:`insert` — add a (possibly conditional, possibly partial) EDB
  fact and propagate via semi-naive rounds seeded from the delta;
* :meth:`weaken` — *widen* an existing fact's condition (e.g. a link
  once thought conditional turns out unconditional), which is also a
  monotone growth of the represented worlds.

Deletions are deliberately out of scope — the paper's answer to
retraction is to model it as a condition up front (a tuple that may
disappear carries a c-variable guard), after which "deletion" is just
assigning the guard, no recomputation needed.  Monotonicity is enforced:
programs whose results could shrink under EDB growth (any negation on a
path from the touched relation) are rejected.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

import networkx as nx

from ..ctable.condition import Condition, TRUE
from ..ctable.table import CTable, CTuple, Database
from ..engine.storage import Storage
from ..solver.interface import ConditionSolver
from .ast import Program, ProgramError
from .evaluation import FaureEvaluator
from .stratify import dependency_graph
# Unused here: the perfbench tracer wraps ``incremental.derive`` by name.
from .valuation import derive  # noqa: F401

__all__ = ["IncrementalEvaluator"]


class IncrementalEvaluator:
    """Evaluate once, then maintain under monotone EDB changes.

    Propagation is :class:`~repro.faurelog.evaluation.Fixpoint` — the
    batch evaluator's own prune / dedup / semi-naive loop — run over the
    whole program and seeded with the one-fact delta.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        solver: Optional[ConditionSolver] = None,
        restored_idb: Optional[Database] = None,
    ):
        self.program = program
        self.database = database
        self.solver = solver
        self._rules = list(program)
        self._graph = dependency_graph(program)
        evaluator = FaureEvaluator(database, solver=solver)
        self.stats = evaluator.stats
        if restored_idb is None:
            self.result = evaluator.evaluate(program)
            # Adopt the condition index the initial evaluation built.
            self._fixpoint = evaluator.fixpoint
        else:
            # Snapshot restore (serve-mode compaction / replica bootstrap):
            # the IDB tables were serialized row-for-row from a state this
            # same class produced, so adopting them verbatim — and
            # re-recording their rows in insertion order — reproduces that
            # state byte-exactly without re-running the evaluation.
            self.result = restored_idb
            self._fixpoint = evaluator.core(Storage())
            for table in restored_idb:
                self._fixpoint.track(table)
        # combined EDB+IDB view used for incremental matching
        self._combined = Database(
            [t for t in database] + [t for t in self.result]
        )
        self._fixpoint.storage = Storage(self._combined)

    # -- monotonicity guard ----------------------------------------------

    def _affected_predicates(self, predicate: str) -> Set[str]:
        """IDB predicates downstream of the touched relation."""
        if predicate not in self._graph:
            return set()
        return set(nx.descendants(self._graph, predicate))

    def _check_monotone(self, predicate: str) -> None:
        affected = self._affected_predicates(predicate) | {predicate}
        for u, v, data in self._graph.edges(data=True):
            if data.get("negative") and u in affected:
                raise ProgramError(
                    f"cannot maintain incrementally: growth of {predicate} "
                    f"flows through negation of {u} into {v}"
                )

    def check_insertable(self, predicate: str) -> None:
        """Raise :class:`ProgramError` if ``predicate`` cannot grow.

        The serve daemon calls this *before* an update becomes durable:
        an insert into a derived relation, or one whose growth flows
        through negation, must be rejected without a WAL append so
        replay never meets an entry the evaluator would refuse.
        """
        if predicate in self.program.idb_predicates():
            raise ProgramError(f"{predicate} is derived; insert into the EDB only")
        self._check_monotone(predicate)

    # -- the maintenance operations ------------------------------------------

    def insert(self, predicate: str, values: Sequence, condition: Condition = TRUE) -> int:
        """Add an EDB fact; returns the number of new IDB derivations."""
        self.check_insertable(predicate)
        tup = CTuple(values, condition)
        if not self._fixpoint.storage.indexed(predicate).add(tup):
            return 0
        delta = CTable(predicate, self._combined.table(predicate).schema)
        delta.add(tup)
        return self._fixpoint.run(self._rules, {predicate: delta})

    def weaken(self, predicate: str, values: Sequence, extra_condition: Condition) -> int:
        """Widen a fact's worlds: add the same data part under a new condition."""
        return self.insert(predicate, values, extra_condition)

    def apply(
        self,
        kind: str,
        predicate: str,
        values: Sequence,
        condition: Condition = TRUE,
    ) -> int:
        """Dispatch one maintenance operation by name.

        The serve daemon's WAL replay funnels through this single entry
        point so a recovered state runs exactly the code a live update
        ran.  ``kind`` is ``"insert"`` or ``"weaken"``.
        """
        if kind == "insert":
            return self.insert(predicate, values, condition)
        if kind == "weaken":
            return self.weaken(predicate, values, condition)
        raise ProgramError(f"unknown maintenance operation {kind!r}")

    def impact(self, predicate: str) -> Tuple[str, ...]:
        """IDB predicates a change to ``predicate`` can actually reach.

        The serve daemon consults this before admitting an update: an
        empty impact set means the delta can only touch its own relation
        and propagation is a no-op for every derived table.
        """
        return tuple(sorted(self._affected_predicates(predicate)))

    # -- views -------------------------------------------------------------------

    def table(self, predicate: str) -> CTable:
        """Current state of an IDB (or EDB) relation."""
        return self._combined.table(predicate)

    def relations(self) -> Tuple[str, ...]:
        """Names of every maintained relation (EDB and IDB)."""
        return self._combined.names()

    @property
    def combined(self) -> Database:
        """The live combined EDB+IDB view (mutates as updates apply)."""
        return self._combined

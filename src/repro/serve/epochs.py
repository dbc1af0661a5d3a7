"""Epoch/snapshot isolation for the serve daemon.

The resident :class:`~repro.faurelog.incremental.IncrementalEvaluator`
mutates its tables in place while an update applies.  Queries must never
observe that half-applied state, so the daemon publishes an immutable
:class:`Snapshot` after each successful apply and queries read *only*
snapshots:

* a snapshot captures, per relation, the tuple sequence at publish time
  (c-tuples are immutable, so sharing them is safe — capturing is an
  O(rows) pointer copy, no deep clone);
* :meth:`EpochManager.publish` swaps the current snapshot atomically
  (one reference assignment under a lock, with a monotone-epoch guard);
* a query holds the snapshot it started with for its whole lifetime —
  an update landing mid-query advances the *manager*, never the
  snapshot already being read.

This is multi-versioning with exactly two interesting versions: the
published epoch N (readers) and the in-progress epoch N+1 (the single
ingest thread).  No reader ever blocks an ingest and vice versa.

**Read index.**  The first query of a relation at an epoch builds a
:class:`RelationIndex` on the snapshot: every row's guard-substituted
*effective* condition, its c-variable set, a c-variable → row-positions
map, and the positions of the rows whose own ``sat(effective)`` is
definitely SAT.  Later reads of the same epoch reuse it, and it is
dropped with the snapshot — publishing does no index work, and an epoch
nobody reads never builds one.  Within one evaluator *generation* the
evaluator's tables only grow, so the next epoch's index is derived from
the newest built one: appended rows are indexed, rows naming a newly
assigned guard are re-substituted, and everything else is shared.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, AbstractSet, Dict, FrozenSet, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

from ..ctable.condition import FALSE, TRUE, Condition
from ..ctable.table import CTuple, Database
from ..ctable.terms import Constant, CVariable
from ..robustness.verdict import Verdict

if TYPE_CHECKING:
    from ..solver.interface import ConditionSolver

__all__ = ["RelationView", "RelationIndex", "Snapshot", "EpochManager"]


@dataclass(frozen=True)
class RelationView:
    """One relation's immutable contents at a snapshot's epoch."""

    name: str
    schema: Tuple[str, ...]
    tuples: Tuple[CTuple, ...]

    def __len__(self) -> int:
        return len(self.tuples)


Positions = Tuple[int, ...]


def _merged(
    positions: Positions, add: Sequence[int] = (), drop: AbstractSet[int] = frozenset()
) -> Positions:
    """Sorted ``positions`` without ``drop`` and with the sorted ``add``."""
    if drop:
        positions = tuple(p for p in positions if p not in drop)
    if not add:
        return positions
    if not positions or add[0] > positions[-1]:
        return positions + tuple(add)
    return tuple(sorted(positions + tuple(add)))


@dataclass(eq=False)
class RelationIndex:
    """One relation's read index at one epoch.

    Row positions are the snapshot's.  ``effective`` holds each row's
    condition once the epoch's guard assignments are substituted, and
    ``cvars`` that condition's c-variables; a row whose condition folds
    to FALSE is gone (its worlds were withdrawn) and keeps its position
    with no c-variables.  ``positions`` maps every c-variable to the
    sorted positions of the rows naming it, and ``live`` counts the rows
    that are not gone.

    :meth:`settle` fills the row verdicts lazily, under the reading
    request's governor: ``sat`` holds the sorted positions whose
    ``sat(effective)`` is definitely SAT, ``pending`` the live rows not
    yet decided.  UNKNOWN is never stored, so a better-budgeted read
    gets a fresh chance.  The ``verdicts`` pair is replaced whole, never
    mutated, so a reader works from one consistent state.
    """

    generation: int
    epoch: int
    assigned: FrozenSet[CVariable]
    tuples: Tuple[CTuple, ...]
    effective: Tuple[Condition, ...]
    cvars: Tuple[FrozenSet[CVariable], ...]
    positions: Dict[CVariable, Positions]
    live: int
    verdicts: Tuple[Positions, Positions]  # (sat, pending)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __len__(self) -> int:
        return self.live

    def settle(self, solver: "ConditionSolver") -> Tuple[Positions, Positions]:
        """Decide ``sat(effective)`` of the pending rows with ``solver``.

        Definite verdicts are kept for every later read of this index and
        of the indexes carried forward from it; a row the solver leaves
        UNKNOWN stays pending.  Returns the ``(sat, pending)`` positions.
        """
        with self._lock:
            sat, pending = self.verdicts
            if pending:
                fresh, undecided = [], []
                for i in pending:
                    verdict = solver.sat_verdict(self.effective[i])
                    if verdict is Verdict.SAT:
                        fresh.append(i)
                    elif verdict is Verdict.UNKNOWN:
                        undecided.append(i)
                self.verdicts = (_merged(sat, fresh), tuple(undecided))
            return self.verdicts

    def sharing(self, names: AbstractSet[CVariable]) -> Positions:
        """Sorted positions of the rows naming any of ``names``."""
        found: set = set()
        for name in names:
            found.update(self.positions.get(name, ()))
        return tuple(sorted(found))

    def rows(self) -> Iterator[int]:
        """Positions of the live rows, in order."""
        return (i for i, condition in enumerate(self.effective) if condition is not FALSE)

    @classmethod
    def build(
        cls,
        view: RelationView,
        assignments: Mapping[CVariable, Constant],
        base: Optional["RelationIndex"] = None,
        generation: int = 0,
        epoch: int = 0,
    ) -> "RelationIndex":
        """Substitute the guard assignments into every row, or carry ``base`` forward.

        ``substitute`` runs only on rows whose c-variables meet an
        assigned guard; every other row keeps its condition object.
        ``base`` must index an earlier epoch of the same evaluator
        generation, whose rows ``view`` extends and whose assignments
        ``assignments`` extends.  Then only the appended rows and the
        rows naming a newly assigned guard — ``base.positions`` lists
        them — are substituted and await a verdict; everything else,
        decided verdicts included, is shared.  ``base`` itself is never
        modified, so a reader still holding its epoch sees it unchanged.
        """
        assigned = frozenset(assignments)
        tuples = view.tuples

        def substituted(i: int) -> Tuple[Condition, FrozenSet[CVariable]]:
            condition = tuples[i].condition
            names = condition.cvariables()
            if assigned and not names.isdisjoint(assigned):
                condition = condition.substitute(assignments)
                names = condition.cvariables()
            return condition, names

        if base is None:
            effective: List[Condition] = []
            cvars: List[FrozenSet[CVariable]] = []
            positions: Dict[CVariable, Positions] = {}
            (sat, pending), live, changed = ((), ()), 0, frozenset()
        else:
            effective, cvars = list(base.effective), list(base.cvars)
            positions = dict(base.positions)
            (sat, pending), live = base.verdicts, base.live
            changed = frozenset(
                i for name in assigned - base.assigned for i in base.positions.get(name, ())
            )
        added: Dict[CVariable, List[int]] = {}
        dropped: Dict[CVariable, set] = {}
        fresh_sat: List[int] = []
        fresh_pending: List[int] = []

        def place(i: int, condition: Condition, names: FrozenSet[CVariable]) -> int:
            if condition is FALSE:
                return 0  # withdrawn worlds: the row no longer exists
            for name in names:
                added.setdefault(name, []).append(i)
            (fresh_sat if condition is TRUE else fresh_pending).append(i)
            return 1

        for i in sorted(changed):
            condition, names = substituted(i)
            for name in cvars[i]:
                dropped.setdefault(name, set()).add(i)
            effective[i], cvars[i] = condition, names
            live += place(i, condition, names) - 1
        for i in range(len(effective), len(tuples)):
            condition, names = substituted(i)
            effective.append(condition)
            cvars.append(names)
            live += place(i, condition, names)
        for name in dropped.keys() | added.keys():
            kept = _merged(
                positions.get(name, ()), added.get(name, ()), dropped.get(name, frozenset())
            )
            if kept:
                positions[name] = kept
            else:
                del positions[name]
        verdicts = (_merged(sat, fresh_sat, changed), _merged(pending, fresh_pending, changed))
        return cls(
            generation, epoch, assigned, tuples, tuple(effective), tuple(cvars),
            positions, live, verdicts,
        )


@dataclass(frozen=True)
class Snapshot:
    """A consistent, immutable view of every relation at one epoch.

    ``seq`` is the highest WAL sequence number applied when the
    snapshot was taken — the durability watermark a query's answer is
    current *as of*.  ``assignments`` maps withdrawn guard c-variables
    to their assigned constants *as of this epoch*: queries substitute
    them into row conditions, so a withdrawal becoming visible is an
    epoch advance like any other update — a reader holding the prior
    snapshot keeps seeing the prior (consistent) worlds.
    ``generation`` names the evaluator the relations were captured
    from: a rebuild starts a new one, and only an index of the same
    generation is carried forward.
    """

    epoch: int
    seq: int
    relations: Dict[str, RelationView]
    assignments: Dict[CVariable, Constant] = field(default_factory=dict)
    generation: int = 0
    _indexes: Dict[str, RelationIndex] = field(
        default_factory=dict, compare=False, repr=False
    )

    def relation(self, name: str) -> RelationView:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(f"no relation {name!r} in epoch {self.epoch}") from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.relations))

    def read_index(self, name: str, base: Optional[RelationIndex] = None) -> RelationIndex:
        """The relation's read index, built by the first reader of the epoch.

        ``base`` is the newest index built so far.  When it indexes an
        earlier epoch of this snapshot's generation, the index is carried
        forward from it; otherwise it is built from scratch.  Two readers
        racing on a cold index may both build it; the first stored wins
        and both answer from identical contents.
        """
        index = self._indexes.get(name)
        if index is None:
            if base is not None and (
                base.generation != self.generation or base.epoch >= self.epoch
            ):
                base = None
            built = RelationIndex.build(
                self.relation(name), self.assignments, base, self.generation, self.epoch
            )
            index = self._indexes.setdefault(name, built)
        return index

    @classmethod
    def capture(
        cls,
        database: Database,
        epoch: int,
        seq: int,
        assignments: Optional[Dict[CVariable, Constant]] = None,
        generation: int = 0,
    ) -> "Snapshot":
        """Freeze the current contents of every table in ``database``."""
        relations = {
            table.name: RelationView(
                name=table.name,
                schema=tuple(table.schema),
                tuples=table.tuples(),
            )
            for table in database
        }
        return cls(
            epoch=epoch,
            seq=seq,
            relations=relations,
            assignments=dict(assignments) if assignments else {},
            generation=generation,
        )


class EpochManager:
    """Atomic publish/read of the daemon's current snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Snapshot] = None

    def current(self) -> Snapshot:
        """The latest published snapshot (raises before first publish)."""
        snapshot = self._current
        if snapshot is None:
            raise RuntimeError("no snapshot published yet")
        return snapshot

    def publish(self, snapshot: Snapshot) -> None:
        """Swap in a new snapshot; epochs must advance monotonically.

        A full rebuild (crash recovery mid-run) republishes the replayed
        state at a *higher* epoch, so the monotone guard holds across
        recoveries too.
        """
        with self._lock:
            if self._current is not None and snapshot.epoch <= self._current.epoch:
                raise ValueError(
                    f"epoch must advance: {snapshot.epoch} after "
                    f"{self._current.epoch}"
                )
            self._current = snapshot

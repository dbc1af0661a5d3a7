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
*effective* condition, its c-variable set, and a cache of definite
``sat(effective)`` verdicts.  Later reads of the same epoch reuse it, and
it is dropped with the snapshot — publishing does no index work, and an
epoch nobody reads never builds one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..ctable.condition import FALSE, TRUE, Condition
from ..ctable.table import CTuple, Database
from ..ctable.terms import Constant, CVariable

__all__ = ["RelationView", "RelationIndex", "Snapshot", "EpochManager"]


@dataclass(frozen=True)
class RelationView:
    """One relation's immutable contents at a snapshot's epoch."""

    name: str
    schema: Tuple[str, ...]
    tuples: Tuple[CTuple, ...]

    def __len__(self) -> int:
        return len(self.tuples)


@dataclass(frozen=True)
class RelationIndex:
    """One relation's read index at one epoch.

    Holds the rows that still exist once the epoch's guard assignments
    are substituted (a row whose condition folds to FALSE is gone), in
    snapshot order, each with its effective condition and that
    condition's c-variables.  ``verdicts`` caches *definite*
    ``sat(effective)`` answers, filled by readers on demand; UNKNOWN is
    never stored, so a better-budgeted read gets a fresh chance.
    """

    tuples: Tuple[CTuple, ...]
    effective: Tuple[Condition, ...]
    cvars: Tuple[FrozenSet[CVariable], ...]
    verdicts: Dict[Condition, bool]

    def __len__(self) -> int:
        return len(self.tuples)

    @classmethod
    def build(
        cls,
        view: RelationView,
        assignments: Mapping[CVariable, Constant],
        inherited: Optional[Mapping[Condition, bool]] = None,
    ) -> "RelationIndex":
        """Substitute the guard assignments once for every row.

        ``substitute`` runs only on rows whose c-variables meet an
        assigned guard; every other row keeps its condition object.
        ``inherited`` seeds the verdict cache with earlier answers for
        conditions this epoch still holds (a condition's satisfiability
        depends only on the condition and its variables' domains).
        """
        assigned = frozenset(assignments)
        tuples = []
        effective = []
        cvars = []
        for tup in view.tuples:
            condition = tup.condition
            names = condition.cvariables()
            if assigned and not names.isdisjoint(assigned):
                condition = condition.substitute(assignments)
                if condition is FALSE:
                    continue  # withdrawn worlds: the row no longer exists
                names = condition.cvariables()
            tuples.append(tup)
            effective.append(condition)
            cvars.append(names)
        verdicts: Dict[Condition, bool] = {TRUE: True}
        if inherited:
            for condition in effective:
                known = inherited.get(condition)
                if known is not None:
                    verdicts[condition] = known
        return cls(tuple(tuples), tuple(effective), tuple(cvars), verdicts)


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
    """

    epoch: int
    seq: int
    relations: Dict[str, RelationView]
    assignments: Dict[CVariable, Constant] = field(default_factory=dict)
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

    def read_index(
        self, name: str, inherited: Optional[Mapping[Condition, bool]] = None
    ) -> RelationIndex:
        """The relation's read index, built by the first reader of the epoch.

        Two readers racing on a cold index may both build it; the first
        stored wins and both answer from identical contents.
        """
        index = self._indexes.get(name)
        if index is None:
            built = RelationIndex.build(self.relation(name), self.assignments, inherited)
            index = self._indexes.setdefault(name, built)
        return index

    @classmethod
    def capture(
        cls,
        database: Database,
        epoch: int,
        seq: int,
        assignments: Optional[Dict[CVariable, Constant]] = None,
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

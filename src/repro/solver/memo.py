"""Shared solver memoization keyed on canonical condition forms.

Every pipeline stage used to build its own :class:`ConditionSolver`
with a cold structural cache, so the NP-complete decision work was
re-done for every semantically repeated condition.  A :class:`MemoTable`
is a process-wide, bounded-LRU verdict cache shared by *all* solver
instances in a run:

* keys are **canonical forms** (:mod:`repro.solver.canonical`), so the
  same condition reordered, un-folded, or with redundant literals hits
  the same entry;
* keys also carry the **domain fingerprint** of the condition's
  c-variables — verdicts depend on the declared domains (``x = 2`` is
  UNSAT over {0,1} but SAT over 0..9), so solvers over different
  domain maps never share entries;
* only *definite* verdicts are stored.  ``UNKNOWN`` — a budget ran out,
  a fault was injected — is never cached (preserved from the resource
  governor's contract), so a later, better-budgeted call gets a fresh
  chance at a real answer.

Soundness: canonicalization is an equivalence over every assignment and
both solver backends are exact, so a cached verdict for the canonical
form is *the* verdict for every condition in its equivalence class.
Memoization can therefore change how much work a query does, never what
it answers (see docs/SEMANTICS.md).

The default process-wide table is obtained with :func:`shared_memo`;
``ConditionSolver(memo=None)`` (CLI: ``--no-memo``) opts a solver out.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..ctable.condition import Condition, FalseCond, TrueCond
from ..ctable.terms import CVariable
from .canonical import InternTable, canonicalize
from .domains import DomainMap

__all__ = ["MemoTable", "shared_memo", "reset_shared_memo"]


class MemoTable:
    """Bounded-LRU verdict cache over canonical conditions.

    Parameters
    ----------
    max_entries:
        Verdict-entry ceiling; least-recently-used entries are evicted.
    intern_entries:
        Ceiling of the embedded hash-consing :class:`InternTable`.
    canon_entries:
        Ceiling of the original-condition → canonical-form shortcut
        cache (avoids re-canonicalizing hot conditions).
    """

    def __init__(
        self,
        max_entries: int = 1 << 16,
        intern_entries: int = 1 << 18,
        canon_entries: int = 1 << 14,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.canon_entries = canon_entries
        self.interner = InternTable(intern_entries)
        self._entries: "OrderedDict[Tuple, bool]" = OrderedDict()
        self._canon: "OrderedDict[Condition, Condition]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: ``callback(key, value)`` hooks invoked on every :meth:`put` —
        #: the checkpoint journal persists definite verdicts as they are
        #: computed (repro.robustness.checkpoint).
        self.observers: List[Callable[[Tuple, bool], None]] = []

    def __len__(self) -> int:
        return len(self._entries)

    # -- observers ----------------------------------------------------------

    def add_observer(self, callback: Callable[[Tuple, bool], None]) -> None:
        """Subscribe ``callback(key, value)`` to every :meth:`put`."""
        if callback not in self.observers:
            self.observers.append(callback)

    # -- canonicalization ---------------------------------------------------

    def canonical(self, condition: Condition) -> Condition:
        """The interned canonical form of ``condition`` (memoized)."""
        if isinstance(condition, (TrueCond, FalseCond)):
            return condition
        got = self._canon.get(condition)
        if got is not None:
            return got
        canon = canonicalize(condition, intern=self.interner)
        if len(self._canon) >= self.canon_entries:
            self._canon.popitem(last=False)
        self._canon[condition] = canon
        return canon

    # -- keys ---------------------------------------------------------------

    def domain_signature(
        self, domains: DomainMap, cvariables: Iterable[CVariable]
    ) -> Tuple:
        """Hashable fingerprint of the domains the verdict depends on."""
        return domains.fingerprint(cvariables)

    def sat_key(self, canon: Condition, domains: DomainMap) -> Tuple:
        return ("sat", canon, self.domain_signature(domains, canon.cvariables()))

    def implies_key(
        self, canon_a: Condition, canon_b: Condition, domains: DomainMap
    ) -> Tuple:
        cvars = canon_a.cvariables() | canon_b.cvariables()
        return ("implies", canon_a, canon_b, self.domain_signature(domains, cvars))

    # -- verdict storage ----------------------------------------------------

    def get(self, key: Tuple) -> Optional[bool]:
        got = self._entries.get(key)
        if got is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return got

    def peek(self, key: Tuple) -> Optional[bool]:
        """Like :meth:`get`, but a miss is *not* counted as a miss.

        The pruner (:func:`repro.engine.pipeline.solver_prune`) probes
        the memo before deciding whether a condition class needs real
        solving; an absent entry there is followed by a real :meth:`get`
        on the same key, so counting the probe too would double-book
        every miss.
        """
        got = self._entries.get(key)
        if got is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return got

    def put(self, key: Tuple, value: bool) -> None:
        """Record a *definite* verdict.  Callers must never pass UNKNOWN."""
        if not isinstance(value, bool):
            raise TypeError(f"memo stores definite boolean verdicts, got {value!r}")
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        for callback in self.observers:
            callback(key, value)

    # -- bookkeeping --------------------------------------------------------

    def clear(self) -> None:
        self.observers = []
        self._entries.clear()
        self._canon.clear()
        self.interner.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.interner.hits = 0
        self.interner.misses = 0
        self.interner.evictions = 0

    def counters(self) -> Dict[str, int]:
        """A flat snapshot for stats surfaces (explain, CLI, benchmarks)."""
        return {
            "memo_entries": len(self._entries),
            "memo_hits": self.hits,
            "memo_misses": self.misses,
            "memo_evictions": self.evictions,
            "interned": len(self.interner),
            "intern_hits": self.interner.hits,
        }


#: The process-wide table every solver shares by default.
_SHARED: Optional[MemoTable] = None


def shared_memo() -> MemoTable:
    """The process-wide memo table (created on first use)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = MemoTable()
    return _SHARED


def reset_shared_memo() -> MemoTable:
    """Clear and return the process-wide table (test isolation hook)."""
    table = shared_memo()
    table.clear()
    return table

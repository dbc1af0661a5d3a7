"""Indexed storage over c-tables.

The paper implements fauré-log inside PostgreSQL explicitly so that
"existing database structure (e.g., indexing)" accelerates evaluation.
This module provides the equivalent for our in-memory engine: hash
indexes keyed on the tuple of *every* bound column of a probe, one per
bound-column set, over the constant entries of a c-table.  A row with a
c-variable entry in one of the indexed columns cannot be hashed to a
single key — that entry may match anything — so it lives in the index's
wildcard bucket.  A probe returns the key's bucket plus the wildcard rows
whose *constant* indexed entries agree with the key, preserving c-table
matching semantics.

Indexes are built lazily on first probe and maintained incrementally on
insert.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..ctable.condition import TRUE
from ..ctable.table import CTable, CTuple, Database
from ..ctable.terms import Constant

__all__ = ["ColumnIndex", "IndexedTable", "Storage"]


class ColumnIndex:
    """Hash index on a set of columns: key → tuples, plus a wildcard bucket.

    The key of a row is its entry in the one indexed column, or the tuple
    of its entries in several (``operator.itemgetter`` semantics).  Rows
    with a c-variable in any indexed column go to :attr:`wildcard`.
    """

    def __init__(self, columns: Sequence[int]) -> None:
        self.columns: Tuple[int, ...] = tuple(columns)
        #: Row (or probe pattern) → key; a bare entry for one column.
        self.key = itemgetter(*self.columns)
        self.by_constant: Dict[object, List[CTuple]] = {}
        self.wildcard: List[CTuple] = []

    def insert(self, tup: CTuple) -> None:
        values = tup.values
        for col in self.columns:
            if not isinstance(values[col], Constant):
                self.wildcard.append(tup)
                return
        self.by_constant.setdefault(self.key(values), []).append(tup)

    def probe(self, key) -> Iterator[CTuple]:
        """All tuples that could match ``key`` in the indexed columns.

        A live view of the buckets: rows appended to the key's bucket
        while it is being read, or to the wildcard bucket before the
        probe ends, are still returned.
        """
        yield from self.by_constant.get(key, ())
        if len(self.columns) == 1:
            # The key is the bare entry, and a wildcard row's one indexed
            # entry is a c-variable: every wildcard row may match.
            yield from self.wildcard
            return
        # A wildcard row still has to agree with the key on its constant
        # entries: only its c-variable entries match anything.
        for tup in self.wildcard:
            values = tup.values
            for col, want in zip(self.columns, key):
                entry = values[col]
                if entry != want and isinstance(entry, Constant):
                    break
            else:
                yield tup

    def __len__(self) -> int:
        return sum(len(v) for v in self.by_constant.values()) + len(self.wildcard)


class IndexedTable:
    """A c-table plus lazily built indexes, one per bound-column set."""

    def __init__(self, table: CTable):
        self.table = table
        self._indexes: Dict[Tuple[int, ...], ColumnIndex] = {}

    @property
    def name(self) -> str:
        return self.table.name

    @property
    def schema(self) -> Tuple[str, ...]:
        return self.table.schema

    def add(self, row, condition=TRUE) -> bool:
        """Insert (delegates to the table) and maintain live indexes.

        ``row`` may be a :class:`CTuple`, which is then stored and indexed
        as is, or a sequence of values.
        """
        tup = row if isinstance(row, CTuple) else CTuple(row, condition)
        if not self.table.add(tup):
            return False
        for index in self._indexes.values():
            index.insert(tup)
        return True

    def index_on(self, *columns: int) -> ColumnIndex:
        """Get (building if needed) the index on these column positions."""
        index = self._indexes.get(columns)
        if index is None:
            index = ColumnIndex(columns)
            for tup in self.table:
                index.insert(tup)
            self._indexes[columns] = index
        return index

    def candidates(self, pattern: Sequence[Optional[Constant]]) -> Iterable[CTuple]:
        """Tuples possibly matching a pattern of per-column constants.

        ``pattern[i]`` is a :class:`Constant` to match in column ``i`` or
        ``None`` for "anything".  Probes the index on exactly the constant
        positions; a pattern with none is a full scan.
        """
        columns = tuple(col for col, want in enumerate(pattern) if want is not None)
        if not columns:
            return iter(self.table)
        index = self.index_on(*columns)
        return index.probe(index.key(pattern))

    def __iter__(self):
        return iter(self.table)

    def __len__(self) -> int:
        return len(self.table)


class Storage:
    """A database whose tables are wrapped with indexes.

    Acts as a drop-in layer above :class:`~repro.ctable.table.Database`
    for components that want indexed probes (the fauré-log evaluator).
    """

    def __init__(self, db: Optional[Database] = None):
        self.db = db if db is not None else Database()
        self._indexed: Dict[str, IndexedTable] = {}

    def indexed(self, name: str) -> IndexedTable:
        wrapper = self._indexed.get(name)
        table = self.db.table(name)
        if wrapper is None or wrapper.table is not table:
            wrapper = IndexedTable(table)
            self._indexed[name] = wrapper
        return wrapper

    def create_table(self, name: str, schema: Sequence[str]) -> IndexedTable:
        self.db.create_table(name, schema)
        return self.indexed(name)

    def invalidate(self, name: str) -> None:
        """Drop cached indexes after out-of-band table mutation."""
        self._indexed.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self.db

"""Conditional tables (c-tables) — fauré's data model.

A c-table (paper, §3; Imieliński–Lipski) is a relation whose entries may
be c-variables and whose tuples each carry a *condition* restricting the
assignments under which the tuple exists.  One c-table therefore stands
for a whole set of regular relations — one per satisfying assignment —
which is exactly how fauré models an uncertain network in a single
structure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .condition import Condition, TRUE, conjoin
from .terms import Constant, CVariable, SlotPickleMixin, Term, as_term

__all__ = ["CTuple", "CTable", "Schema", "Database"]

#: Attribute names of a relation, in order.
Schema = Tuple[str, ...]


class CTuple(SlotPickleMixin):
    """One conditional tuple: a row of c-domain terms plus a condition."""

    __slots__ = ("values", "condition", "_hash")

    def __init__(self, values: Sequence, condition: Condition = TRUE):
        vals = tuple(as_term(v) for v in values)
        for v in vals:
            if v.is_variable:
                raise ValueError(f"program variable {v} cannot be stored in a c-table")
        if not isinstance(condition, Condition):
            raise TypeError(f"condition must be a Condition, got {condition!r}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("CTuple is immutable")

    @classmethod
    def of_terms(cls, values: Tuple[Term, ...], condition: Condition) -> "CTuple":
        """A tuple over checked values: a tuple of constants and
        c-variables, and a :class:`Condition` (no coercion, no checks)."""
        tup = object.__new__(cls)
        object.__setattr__(tup, "values", values)
        object.__setattr__(tup, "condition", condition)
        object.__setattr__(tup, "_hash", None)
        return tup

    @property
    def arity(self) -> int:
        return len(self.values)

    @property
    def is_certain(self) -> bool:
        """True when the tuple has no c-variables and an empty condition."""
        return isinstance(self.condition, type(TRUE)) and all(
            v.is_constant for v in self.values
        )

    def cvariables(self) -> FrozenSet[CVariable]:
        """C-variables in the data part and in the condition."""
        out = {v for v in self.values if isinstance(v, CVariable)}
        return frozenset(out) | self.condition.cvariables()

    def with_condition(self, condition: Condition) -> "CTuple":
        """Same data part under a different condition."""
        return CTuple(self.values, condition)

    def and_condition(self, extra: Condition) -> "CTuple":
        """Conjoin an extra condition onto this tuple."""
        return CTuple(self.values, conjoin([self.condition, extra]))

    def substitute(self, mapping) -> "CTuple":
        """Apply a c-variable substitution to data part and condition."""
        values = [mapping.get(v, v) if isinstance(v, CVariable) else v for v in self.values]
        return CTuple(values, self.condition.substitute(mapping))

    def data_key(self) -> Tuple[Term, ...]:
        """Hashable key of the data part (ignoring the condition)."""
        return self.values

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CTuple)
            and self.values == other.values
            and self.condition == other.condition
        )

    def __hash__(self) -> int:
        # Cached: one stored row is hashed by its storage table and by
        # the round's delta table (pickling skips the slot).
        h = self._hash
        if h is None:
            h = hash((self.values, self.condition))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"CTuple({list(self.values)!r}, {self.condition!r})"

    def __str__(self) -> str:
        data = ", ".join(str(v) for v in self.values)
        if isinstance(self.condition, type(TRUE)):
            return f"({data})"
        return f"({data})[{self.condition}]"


class CTable:
    """A named c-table: schema + conditional tuples.

    Insertion order is preserved; duplicate (data, condition) pairs are
    collapsed.  The table is mutable (it is the storage unit of the
    engine) but its tuples are immutable.
    """

    def __init__(self, name: str, schema: Sequence[str], tuples: Optional[Iterable] = None):
        if not name:
            raise ValueError("table name must be non-empty")
        self.name = name
        self.schema: Schema = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise ValueError(f"duplicate attribute names in schema {self.schema}")
        self._tuples: List[CTuple] = []
        self._seen: set = set()
        if tuples:
            for t in tuples:
                self.add(t)

    @property
    def arity(self) -> int:
        return len(self.schema)

    def add(self, row, condition: Condition = TRUE) -> bool:
        """Add a tuple; returns False when an identical tuple existed.

        ``row`` may be a :class:`CTuple` (then ``condition`` must be left
        at the default) or a sequence of values.
        """
        if isinstance(row, CTuple):
            if condition is not TRUE:
                raise ValueError("pass the condition inside the CTuple")
            tup = row
        else:
            tup = CTuple(row, condition)
        if tup.arity != self.arity:
            raise ValueError(
                f"arity mismatch for {self.name}: expected {self.arity}, got {tup.arity}"
            )
        seen = self._seen
        before = len(seen)
        seen.add(tup)  # one probe: the set grows only for a new tuple
        if len(seen) == before:
            return False
        self._tuples.append(tup)
        return True

    def extend(self, rows: Iterable) -> None:
        for row in rows:
            self.add(row)

    def tuples(self) -> Tuple[CTuple, ...]:
        return tuple(self._tuples)

    def cvariables(self) -> FrozenSet[CVariable]:
        out: set = set()
        for t in self._tuples:
            out |= t.cvariables()
        return frozenset(out)

    def is_regular(self) -> bool:
        """True when this is an ordinary relation (no partial information)."""
        return all(t.is_certain for t in self._tuples)

    def data_parts(self) -> FrozenSet[Tuple[Term, ...]]:
        return frozenset(t.data_key() for t in self._tuples)

    def copy(self, name: Optional[str] = None) -> "CTable":
        clone = CTable(name or self.name, self.schema)
        clone._tuples = list(self._tuples)
        clone._seen = set(self._seen)
        return clone

    def attribute_index(self, attribute: str) -> int:
        try:
            return self.schema.index(attribute)
        except ValueError:
            raise KeyError(f"{self.name} has no attribute {attribute!r}") from None

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[CTuple]:
        return iter(self._tuples)

    def __contains__(self, tup: CTuple) -> bool:
        return tup in self._seen

    def __repr__(self) -> str:
        return f"CTable({self.name!r}, {list(self.schema)!r}, {len(self)} tuples)"

    def pretty(self, max_rows: Optional[int] = 30) -> str:
        """Render in the paper's Table 2/3 layout (condition column last)."""
        headers = list(self.schema) + ["condition"]
        rows = []
        shown = self._tuples if max_rows is None else self._tuples[:max_rows]
        for t in shown:
            cond = "" if isinstance(t.condition, type(TRUE)) else str(t.condition)
            rows.append([str(v) for v in t.values] + [cond])
        widths = [len(h) for h in headers]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.name]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if max_rows is not None and len(self._tuples) > max_rows:
            lines.append(f"... ({len(self._tuples) - max_rows} more)")
        return "\n".join(lines)


class Database:
    """A named collection of c-tables (e.g. PATH' = {P^i, C})."""

    def __init__(self, tables: Optional[Iterable[CTable]] = None):
        self._tables: Dict[str, CTable] = {}
        if tables:
            for t in tables:
                self.add_table(t)

    def add_table(self, table: CTable) -> None:
        if table.name in self._tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table

    def create_table(self, name: str, schema: Sequence[str]) -> CTable:
        table = CTable(name, schema)
        self.add_table(table)
        return table

    def table(self, name: str) -> CTable:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    def drop_table(self, name: str) -> None:
        self._tables.pop(name, None)

    def replace_table(self, table: CTable) -> None:
        self._tables[table.name] = table

    def names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def cvariables(self) -> FrozenSet[CVariable]:
        out: set = set()
        for t in self._tables.values():
            out |= t.cvariables()
        return frozenset(out)

    def copy(self) -> "Database":
        return Database(t.copy() for t in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[CTable]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return f"Database({list(self._tables)!r})"

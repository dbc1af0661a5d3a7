"""A mini-SQL front-end for c-tables.

The paper implements fauré-log by rewriting onto PostgreSQL.  This module
is the stand-in for that surface: a small SQL dialect whose SELECT
queries run against c-tables with the extended (condition-aware)
semantics of §3.  Supported statements::

    CREATE TABLE name (col1, col2, ...)
    DROP TABLE name
    INSERT INTO name VALUES (term, term, ...) [CONDITION <condition>]
    DELETE FROM name [WHERE <condition over columns>]
    UPDATE name SET col = term [, col = term ...] [WHERE <condition>]
    SELECT <cols | *> FROM t1 [a1] [, t2 [a2] ...]
        [WHERE <condition over columns>]
        [INTO result_name]

DELETE and UPDATE follow c-table semantics: a row whose entries only
*conditionally* match the WHERE clause splits — the affected version
exists under ``condition ∧ match`` and (for UPDATE) the untouched
original survives under ``condition ∧ ¬match``.

Terms and conditions use the shared syntax of
:mod:`repro.ctable.parse`; inside WHERE, identifiers resolve to columns
of the FROM relations (qualified ``alias.col`` or unqualified when
unambiguous), and anything else is a constant.  ``$x`` is a c-variable
wherever it appears — including inserted VALUES, which is how partial
rows enter the database.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ctable.condition import Condition, TRUE
from ..ctable.parse import ParseError, TokenStream, parse_condition, parse_term, tokenize
from ..ctable.table import CTable, Database
from ..ctable.terms import Constant, Term
from ..solver.interface import ConditionSolver
from .algebra import (
    ColumnRef,
    ConditionSelection,
    PlanNode,
    Product,
    Projection,
    Rename,
    Scan,
    evaluate_plan,
)
from .stats import EvalStats

__all__ = ["SqlEngine", "SqlError"]


class SqlError(ValueError):
    """Statement-level error (unknown table, ambiguous column, ...)."""


class _Scope:
    """Column-name resolution for one FROM clause."""

    def __init__(self, relations: Sequence[Tuple[str, Tuple[str, ...]]]):
        # relations: (alias, schema) pairs; exported columns are
        # "alias.col"; unqualified names allowed when unambiguous.
        self.qualified: List[str] = []
        self.unqualified: Dict[str, Optional[str]] = {}
        for alias, schema in relations:
            for col in schema:
                q = f"{alias}.{col}"
                self.qualified.append(q)
                if col in self.unqualified:
                    self.unqualified[col] = None  # ambiguous
                else:
                    self.unqualified[col] = q

    def resolve(self, name: str) -> Optional[str]:
        if name in self.qualified:
            return name
        target = self.unqualified.get(name)
        if target is None and name in self.unqualified:
            raise SqlError(f"ambiguous column {name!r}")
        return target


class SqlEngine:
    """Executes mini-SQL statements against a c-table database."""

    def __init__(
        self,
        db: Optional[Database] = None,
        solver: Optional[ConditionSolver] = None,
        prune: bool = True,
    ):
        self.db = db if db is not None else Database()
        self.solver = solver
        self.prune = prune
        self.stats = EvalStats()

    # -- public API --------------------------------------------------------

    def execute(self, statement: str) -> Optional[CTable]:
        """Run one statement; SELECT returns a result c-table."""
        stream = TokenStream(tokenize(statement), statement)
        tok = stream.peek()
        if tok[0] != "ident":
            raise SqlError(f"expected a statement keyword, got {tok[1]!r}")
        keyword = tok[1].upper()
        if keyword == "CREATE":
            self._create(stream)
            return None
        if keyword == "DROP":
            self._drop(stream)
            return None
        if keyword == "INSERT":
            self._insert(stream)
            return None
        if keyword == "DELETE":
            self._delete(stream)
            return None
        if keyword == "UPDATE":
            self._update(stream)
            return None
        if keyword == "SELECT":
            return self._select(stream)
        raise SqlError(f"unsupported statement {keyword!r}")

    def script(self, statements: str) -> Optional[CTable]:
        """Run ``;``-separated statements; returns the last SELECT result."""
        result = None
        for stmt in statements.split(";"):
            if stmt.strip():
                out = self.execute(stmt)
                if out is not None:
                    result = out
        return result

    # -- statement handlers ---------------------------------------------------

    def _ident(self, stream: TokenStream, what: str) -> str:
        tok = stream.peek()
        if tok[0] not in ("ident", "addr"):
            raise SqlError(f"expected {what}, got {tok[1]!r}")
        stream.next()
        return tok[1]

    def _keyword(self, stream: TokenStream, word: str) -> None:
        tok = stream.peek()
        if tok[0] != "ident" or tok[1].upper() != word:
            raise SqlError(f"expected {word}, got {tok[1]!r}")
        stream.next()

    def _create(self, stream: TokenStream) -> None:
        self._keyword(stream, "CREATE")
        self._keyword(stream, "TABLE")
        name = self._ident(stream, "table name")
        stream.expect("op", "(")
        columns = []
        while True:
            columns.append(self._ident(stream, "column name"))
            if stream.accept("op", ")"):
                break
            stream.expect("op", ",")
        if name in self.db:
            raise SqlError(f"table {name!r} already exists")
        self.db.create_table(name, columns)

    def _drop(self, stream: TokenStream) -> None:
        self._keyword(stream, "DROP")
        self._keyword(stream, "TABLE")
        name = self._ident(stream, "table name")
        self.db.drop_table(name)

    def _insert(self, stream: TokenStream) -> None:
        self._keyword(stream, "INSERT")
        self._keyword(stream, "INTO")
        name = self._ident(stream, "table name")
        self._keyword(stream, "VALUES")
        stream.expect("op", "(")
        values: List[Term] = []
        while True:
            values.append(parse_term(stream, resolve_ident=lambda n: Constant(n)))
            if stream.accept("op", ")"):
                break
            stream.expect("op", ",")
        condition: Condition = TRUE
        tok = stream.peek()
        if tok[0] == "ident" and tok[1].upper() == "CONDITION":
            stream.next()
            condition = parse_condition(stream, resolve_ident=lambda n: Constant(n))
        if not stream.exhausted:
            raise SqlError(f"trailing input after INSERT: {stream.peek()[1]!r}")
        table = self.db.table(name)
        table.add(values, condition)

    def _table_resolver(self, table: CTable):
        """Identifier resolution scoped to one table (DELETE/UPDATE WHERE)."""
        columns = set(table.schema)

        def resolver(name: str) -> Term:
            bare = name.split(".")[-1]
            if name in columns:
                return ColumnRef(name)
            if bare in columns and name == f"{table.name}.{bare}":
                return ColumnRef(bare)
            return Constant(name)

        return resolver

    def _where_template(self, stream: TokenStream, table: CTable) -> Optional[Condition]:
        tok = stream.peek()
        if tok[0] == "ident" and tok[1].upper() == "WHERE":
            stream.next()
            return parse_condition(stream, resolve_ident=self._table_resolver(table))
        return None

    def _keep(self, condition: Condition) -> bool:
        from ..ctable.condition import FalseCond

        if isinstance(condition, FalseCond):
            return False
        if self.solver is not None and self.prune:
            return self.solver.is_satisfiable(condition)
        return True

    def _delete(self, stream: TokenStream) -> None:
        from ..ctable.condition import conjoin
        from .algebra import resolve_condition

        self._keyword(stream, "DELETE")
        self._keyword(stream, "FROM")
        name = self._ident(stream, "table name")
        table = self.db.table(name)
        template = self._where_template(stream, table)
        if not stream.exhausted:
            raise SqlError(f"trailing input after DELETE: {stream.peek()[1]!r}")
        replacement = CTable(table.name, table.schema)
        schema = list(table.schema)
        for tup in table:
            match = (
                TRUE
                if template is None
                else resolve_condition(template, schema, tup.values)
            )
            survived = conjoin([tup.condition, match.negate()])
            if self._keep(survived):
                replacement.add(tup.values, survived)
        self.db.replace_table(replacement)

    def _update(self, stream: TokenStream) -> None:
        from ..ctable.condition import conjoin
        from .algebra import resolve_condition

        self._keyword(stream, "UPDATE")
        name = self._ident(stream, "table name")
        table = self.db.table(name)
        self._keyword(stream, "SET")
        assignments: List[Tuple[int, Term]] = []
        while True:
            column = self._ident(stream, "column name")
            index = table.attribute_index(column.split(".")[-1])
            stream.expect("op", "=")
            value = parse_term(stream, resolve_ident=lambda n: Constant(n))
            assignments.append((index, value))
            if not stream.accept("op", ","):
                break
        template = self._where_template(stream, table)
        if not stream.exhausted:
            raise SqlError(f"trailing input after UPDATE: {stream.peek()[1]!r}")
        replacement = CTable(table.name, table.schema)
        schema = list(table.schema)
        for tup in table:
            match = (
                TRUE
                if template is None
                else resolve_condition(template, schema, tup.values)
            )
            updated_cond = conjoin([tup.condition, match])
            if self._keep(updated_cond):
                values = list(tup.values)
                for index, value in assignments:
                    values[index] = value
                replacement.add(values, updated_cond)
            original_cond = conjoin([tup.condition, match.negate()])
            if self._keep(original_cond):
                replacement.add(tup.values, original_cond)
        self.db.replace_table(replacement)

    def _select(self, stream: TokenStream) -> CTable:
        self._keyword(stream, "SELECT")
        # -- output list
        star = stream.accept("op", "*") is not None
        outputs: List[Tuple[str, str]] = []  # (source column expr, output name)
        if not star:
            while True:
                col = self._ident(stream, "column")
                out_name = col.split(".")[-1]
                tok = stream.peek()
                if tok[0] == "ident" and tok[1].upper() == "AS":
                    stream.next()
                    out_name = self._ident(stream, "output name")
                outputs.append((col, out_name))
                if not stream.accept("op", ","):
                    break
        # -- FROM
        self._keyword(stream, "FROM")
        relations: List[Tuple[str, str]] = []  # (table, alias)
        while True:
            table = self._ident(stream, "table name")
            alias = table
            tok = stream.peek()
            if tok[0] == "ident" and tok[1].upper() not in ("WHERE", "INTO", "AS"):
                alias = self._ident(stream, "alias")
            elif tok[0] == "ident" and tok[1].upper() == "AS":
                stream.next()
                alias = self._ident(stream, "alias")
            relations.append((table, alias))
            if not stream.accept("op", ","):
                break

        plan = self._from_plan(relations)
        scope = _Scope(
            [(alias, self.db.table(table).schema) for table, alias in relations]
        )

        # -- WHERE
        tok = stream.peek()
        if tok[0] == "ident" and tok[1].upper() == "WHERE":
            stream.next()

            def resolver(name: str) -> Term:
                col = scope.resolve(name)
                if col is not None:
                    return ColumnRef(col)
                return Constant(name)

            template = parse_condition(stream, resolve_ident=resolver)
            plan = ConditionSelection(plan, template)

        # -- output projection
        if star:
            columns = list(plan.schema(self.db))
            out_names = [c.split(".")[-1] for c in columns]
            if len(set(out_names)) != len(out_names):
                out_names = columns  # keep qualified names on clash
        else:
            columns = []
            out_names = []
            for col, out_name in outputs:
                resolved = scope.resolve(col)
                if resolved is None:
                    raise SqlError(f"unknown column {col!r}")
                columns.append(resolved)
                out_names.append(out_name)
        plan = Projection(plan, columns)
        plan = Rename(plan, dict(zip(columns, out_names)), name="result")

        # -- INTO
        into: Optional[str] = None
        tok = stream.peek()
        if tok[0] == "ident" and tok[1].upper() == "INTO":
            stream.next()
            into = self._ident(stream, "result table name")
        if not stream.exhausted:
            raise SqlError(f"trailing input after SELECT: {stream.peek()[1]!r}")

        result = evaluate_plan(
            plan, self.db, solver=self.solver, prune=self.prune, stats=self.stats
        )
        if into is not None:
            stored = CTable(into, result.schema)
            for tup in result:
                stored.add(tup)
            if into in self.db:
                self.db.drop_table(into)
            self.db.add_table(stored)
        return result

    def _from_plan(self, relations: List[Tuple[str, str]]) -> PlanNode:
        plans: List[PlanNode] = []
        for table, alias in relations:
            if table not in self.db:
                raise SqlError(f"unknown table {table!r}")
            schema = self.db.table(table).schema
            scan = Scan(table, alias)
            renamed = Rename(scan, {c: f"{alias}.{c}" for c in schema}, name=alias)
            plans.append(renamed)
        plan = plans[0]
        for nxt in plans[1:]:
            plan = Product(plan, nxt)
        return plan

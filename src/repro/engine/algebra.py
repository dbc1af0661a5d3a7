"""Extended relational algebra over c-tables.

The straightforward SQL extension of the c-table literature (paper, §3):
every operator manipulates (data part, condition) pairs —

* **selection** over an entry that is a c-variable does not filter, it
  *conjoins* the predicate (instantiated with that c-variable) onto the
  tuple's condition;
* **join** concatenates tuples and conjoins both conditions plus the
  equalities between join attributes (symbolic when a side is a
  c-variable);
* **projection** keeps conditions; tuples that collapse to the same data
  part are merged by disjoining their conditions.

Operators are plan nodes evaluated against a
:class:`~repro.ctable.table.Database`.  When a
:class:`~repro.solver.ConditionSolver` is supplied, operators prune
tuples whose conditions are unsatisfiable (the paper's step 3); the
pruning time is charged to ``stats.solver_seconds`` so the SQL/Z3 split
of Table 4 is measurable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ctable.condition import (
    Comparison,
    Condition,
    FALSE,
    FalseCond,
    TRUE,
    TrueCond,
    conjoin,
    disjoin,
)
from ..ctable.table import CTable, CTuple, Database
from ..ctable.terms import Constant, CVariable, Term, as_term
from ..robustness.verdict import Verdict
from ..solver.interface import ConditionSolver
from .stats import EvalStats, Stopwatch

__all__ = [
    "Col",
    "ColumnRef",
    "Pred",
    "PlanNode",
    "Scan",
    "Selection",
    "ConditionSelection",
    "Projection",
    "Join",
    "AntiJoin",
    "Product",
    "Union",
    "Rename",
    "Distinct",
    "ExecutionContext",
    "evaluate_plan",
    "resolve_condition",
]


class ColumnRef(Term):
    """A term standing for "the value of column *name*" in a row.

    Only appears inside condition *templates* (e.g. a parsed SQL WHERE
    clause); :func:`resolve_condition` replaces it with the actual entry
    before the condition ever reaches a c-table or the solver.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("ColumnRef is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ColumnRef) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("colref", self.name))

    def __repr__(self) -> str:
        return f"ColumnRef({self.name!r})"

    def __str__(self) -> str:
        return self.name


def _resolve_term(term: Term, schema: Sequence[str], values: Sequence[Term]) -> Term:
    if isinstance(term, ColumnRef):
        try:
            return values[list(schema).index(term.name)]
        except ValueError:
            raise KeyError(f"unknown column {term.name!r} in schema {tuple(schema)}") from None
    return term


def resolve_condition(
    template: Condition, schema: Sequence[str], values: Sequence[Term]
) -> Condition:
    """Instantiate a condition template against one row.

    Every :class:`ColumnRef` leaf is replaced with the row's entry for
    that column; constant comparisons fold away.
    """
    from ..ctable.condition import And, LinearAtom, Not, Or

    if isinstance(template, Comparison):
        lhs = _resolve_term(template.lhs, schema, values)
        rhs = _resolve_term(template.rhs, schema, values)
        return Comparison(lhs, template.op, rhs).constant_fold()
    if isinstance(template, And):
        return conjoin([resolve_condition(c, schema, values) for c in template.children])
    if isinstance(template, Or):
        return disjoin([resolve_condition(c, schema, values) for c in template.children])
    if isinstance(template, Not):
        return resolve_condition(template.child, schema, values).negate()
    if isinstance(template, LinearAtom):
        if any(isinstance(v, ColumnRef) for v, _ in template.coeffs):
            raise ValueError("linear atoms over columns are not supported")
        return template
    return template


class Col:
    """A reference to an attribute by name in a plan's schema."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other) -> bool:
        return isinstance(other, Col) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("col", self.name))

    def __repr__(self) -> str:
        return f"Col({self.name!r})"


class Pred:
    """A comparison predicate ``lhs op rhs`` over columns and constants.

    Column sides may be written as :class:`Col` or :class:`ColumnRef`
    interchangeably.
    """

    __slots__ = ("lhs", "op", "rhs")

    @staticmethod
    def _side(x):
        if isinstance(x, ColumnRef):
            return Col(x.name)
        if isinstance(x, Col):
            return x
        return as_term(x)

    def __init__(self, lhs: Union[Col, Term, object], op: str, rhs: Union[Col, Term, object]):
        self.lhs = self._side(lhs)
        self.op = op
        self.rhs = self._side(rhs)

    def resolve(self, schema: Sequence[str], values: Sequence[Term]) -> Condition:
        """Instantiate against a concrete tuple, yielding a condition.

        Constant-vs-constant comparisons fold to TRUE/FALSE; anything
        touching a c-variable stays symbolic.
        """

        def side(x):
            if isinstance(x, Col):
                try:
                    return values[schema.index(x.name)]
                except ValueError:
                    raise KeyError(f"unknown column {x.name!r} in schema {schema}") from None
            return x

        return Comparison(side(self.lhs), self.op, side(self.rhs)).constant_fold()

    def __repr__(self) -> str:
        return f"Pred({self.lhs!r}, {self.op!r}, {self.rhs!r})"


class ExecutionContext:
    """Carries the solver, pruning policy, and timing accumulators."""

    def __init__(
        self,
        solver: Optional[ConditionSolver] = None,
        prune: bool = True,
        stats: Optional[EvalStats] = None,
    ):
        self.solver = solver
        self.prune = prune and solver is not None
        self.stats = stats if stats is not None else EvalStats()
        self._solver_watch = Stopwatch()

    def keep(self, condition: Condition) -> bool:
        """Solver-check a condition; charge time to the solver bucket.

        Three-valued degradation: an ``UNKNOWN`` verdict under a
        resource governor keeps the tuple (sound — pruning is only an
        optimisation) and is counted in ``stats.unknown_kept``.
        """
        if isinstance(condition, FalseCond):
            self.stats.tuples_pruned += 1
            return False
        if not self.prune:
            return True
        start_seconds = self._solver_watch.seconds
        with self._solver_watch.measure():
            verdict = self.solver.sat_verdict(condition)
        self.stats.solver_seconds += self._solver_watch.seconds - start_seconds
        if verdict is Verdict.UNSAT:
            self.stats.tuples_pruned += 1
            return False
        if verdict is Verdict.UNKNOWN:
            self.stats.unknown_kept += 1
        return True


class PlanNode:
    """Base class of algebra plan nodes."""

    def schema(self, db: Database) -> Tuple[str, ...]:
        raise NotImplementedError

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        raise NotImplementedError


class Scan(PlanNode):
    """Read a stored table, optionally renaming it."""

    def __init__(self, table_name: str, alias: Optional[str] = None):
        self.table_name = table_name
        self.alias = alias or table_name

    def schema(self, db: Database) -> Tuple[str, ...]:
        return db.table(self.table_name).schema

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        src = db.table(self.table_name)
        out = CTable(self.alias, src.schema)
        for tup in src:
            out.add(tup)
        return out


class Selection(PlanNode):
    """σ_preds(child): conjoin predicate conditions tuple-by-tuple."""

    def __init__(self, child: PlanNode, predicates: Sequence[Pred]):
        self.child = child
        self.predicates = list(predicates)

    def schema(self, db: Database) -> Tuple[str, ...]:
        return self.child.schema(db)

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        src = self.child.execute(db, ctx)
        out = CTable(src.name, src.schema)
        schema = list(src.schema)
        for tup in src:
            conds = [tup.condition]
            dead = False
            for pred in self.predicates:
                c = pred.resolve(schema, tup.values)
                if isinstance(c, FalseCond):
                    dead = True
                    break
                conds.append(c)
            if dead:
                continue
            combined = conjoin(conds)
            if ctx.keep(combined):
                out.add(tup.values, combined)
                ctx.stats.tuples_generated += 1
        return out


class ConditionSelection(PlanNode):
    """Selection by an arbitrary boolean condition template.

    More general than :class:`Selection`: the template may mix AND/OR/NOT
    freely over column references, constants, and c-variables.  Used by
    the SQL front-end's WHERE clause.
    """

    def __init__(self, child: PlanNode, template: Condition):
        self.child = child
        self.template = template

    def schema(self, db: Database) -> Tuple[str, ...]:
        return self.child.schema(db)

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        src = self.child.execute(db, ctx)
        out = CTable(src.name, src.schema)
        schema = list(src.schema)
        for tup in src:
            cond = resolve_condition(self.template, schema, tup.values)
            combined = conjoin([tup.condition, cond])
            if isinstance(combined, FalseCond):
                ctx.stats.tuples_pruned += 1
                continue
            if ctx.keep(combined):
                out.add(tup.values, combined)
                ctx.stats.tuples_generated += 1
        return out


class Projection(PlanNode):
    """π_columns(child); same-data tuples merge by disjunction."""

    def __init__(self, child: PlanNode, columns: Sequence[str], merge: bool = True):
        self.child = child
        self.columns = list(columns)
        self.merge = merge

    def schema(self, db: Database) -> Tuple[str, ...]:
        return tuple(self.columns)

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        src = self.child.execute(db, ctx)
        idx = [src.attribute_index(c) for c in self.columns]
        out = CTable(src.name, self.columns)
        if not self.merge:
            for tup in src:
                vals = [tup.values[i] for i in idx]
                out.add(vals, tup.condition)
                ctx.stats.tuples_generated += 1
            return out
        merged: Dict[Tuple[Term, ...], List[Condition]] = {}
        order: List[Tuple[Term, ...]] = []
        for tup in src:
            key = tuple(tup.values[i] for i in idx)
            if key not in merged:
                merged[key] = []
                order.append(key)
            merged[key].append(tup.condition)
        for key in order:
            cond = disjoin(merged[key])
            if ctx.keep(cond):
                out.add(key, cond)
                ctx.stats.tuples_generated += 1
        return out


class Rename(PlanNode):
    """ρ: rename attributes (and optionally the relation)."""

    def __init__(self, child: PlanNode, mapping: Dict[str, str], name: Optional[str] = None):
        self.child = child
        self.mapping = dict(mapping)
        self.name = name

    def schema(self, db: Database) -> Tuple[str, ...]:
        return tuple(self.mapping.get(a, a) for a in self.child.schema(db))

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        src = self.child.execute(db, ctx)
        out = CTable(self.name or src.name, [self.mapping.get(a, a) for a in src.schema])
        for tup in src:
            out.add(tup)
        return out


class Product(PlanNode):
    """Cartesian product; conditions conjoin."""

    def __init__(self, left: PlanNode, right: PlanNode, name: str = "product"):
        self.left = left
        self.right = right
        self.name = name

    def schema(self, db: Database) -> Tuple[str, ...]:
        ls, rs = self.left.schema(db), self.right.schema(db)
        clash = set(ls) & set(rs)
        if clash:
            raise ValueError(f"ambiguous attributes in product: {sorted(clash)}")
        return ls + rs

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        left = self.left.execute(db, ctx)
        right = self.right.execute(db, ctx)
        out = CTable(self.name, self.schema(db))
        for lt in left:
            for rt in right:
                cond = conjoin([lt.condition, rt.condition])
                if ctx.keep(cond):
                    out.add(tuple(lt.values) + tuple(rt.values), cond)
                    ctx.stats.tuples_generated += 1
        return out


class Join(PlanNode):
    """Equi-join on named attribute pairs, with hash acceleration.

    For each pair ``(left_attr, right_attr)``: constant-vs-constant
    entries must agree; any side that is a c-variable contributes a
    symbolic equality to the output condition (the c-table join of §3).
    The hash index buckets right-hand tuples by their constant join keys
    so constant-constant matches don't scan; tuples with c-variable keys
    go to a wildcard bucket probed for every left tuple.  Mixed left
    keys probe a lazily-built partial-key index over their constant
    positions instead of scanning every bucket.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        on: Sequence[Tuple[str, str]],
        name: str = "join",
        project_right: Optional[Sequence[str]] = None,
    ):
        self.left = left
        self.right = right
        self.on = list(on)
        self.name = name
        self.project_right = list(project_right) if project_right is not None else None

    def schema(self, db: Database) -> Tuple[str, ...]:
        ls = self.left.schema(db)
        rs = self.right.schema(db)
        keep_right = self.project_right if self.project_right is not None else [
            a for a in rs if a not in {r for _, r in self.on}
        ]
        clash = set(ls) & set(keep_right)
        if clash:
            raise ValueError(f"ambiguous attributes in join output: {sorted(clash)}")
        return ls + tuple(keep_right)

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        left = self.left.execute(db, ctx)
        right = self.right.execute(db, ctx)
        l_idx = [left.attribute_index(a) for a, _ in self.on]
        r_idx = [right.attribute_index(b) for _, b in self.on]
        rs = right.schema
        keep_right = self.project_right if self.project_right is not None else [
            a for a in rs if a not in {r for _, r in self.on}
        ]
        keep_idx = [right.attribute_index(a) for a in keep_right]

        # Bucket right tuples: all-constant join keys hash directly;
        # tuples with any c-variable key are wildcard candidates.
        right_rows = list(right)
        buckets: Dict[Tuple[Term, ...], List[int]] = {}
        wildcards: List[int] = []
        for j, rt in enumerate(right_rows):
            key = tuple(rt.values[i] for i in r_idx)
            if all(isinstance(v, Constant) for v in key):
                buckets.setdefault(key, []).append(j)
            else:
                wildcards.append(j)

        # Mixed left keys (some positions constant, some c-variable)
        # probe a partial-key index over just their constant positions,
        # built lazily per distinct position mask: a right tuple can only
        # match if it agrees on those constants or is symbolic there.
        # Right tuples disagreeing on a constant position would have
        # produced a constant-folded FALSE equality anyway, so skipping
        # them never changes the output — it only avoids the full scan.
        partial: Dict[Tuple[int, ...], Tuple[Dict[Tuple[Term, ...], List[int]], List[int]]] = {}

        def candidates_for(lkey: Tuple[Term, ...]) -> Sequence[int]:
            mask = tuple(i for i, v in enumerate(lkey) if isinstance(v, Constant))
            if len(mask) == len(lkey):
                return list(buckets.get(lkey, ())) + wildcards
            if not mask:
                return range(len(right_rows))
            index = partial.get(mask)
            if index is None:
                exact: Dict[Tuple[Term, ...], List[int]] = {}
                symbolic: List[int] = []
                for j, rt in enumerate(right_rows):
                    sub = tuple(rt.values[r_idx[i]] for i in mask)
                    if all(isinstance(v, Constant) for v in sub):
                        exact.setdefault(sub, []).append(j)
                    else:
                        symbolic.append(j)
                index = (exact, symbolic)
                partial[mask] = index
            exact, symbolic = index
            sub = tuple(lkey[i] for i in mask)
            return sorted(exact.get(sub, []) + symbolic)

        out = CTable(self.name, tuple(left.schema) + tuple(keep_right))
        for lt in left:
            lkey = tuple(lt.values[i] for i in l_idx)
            for j in candidates_for(lkey):
                rt = right_rows[j]
                conds = [lt.condition, rt.condition]
                dead = False
                for li, ri in zip(l_idx, r_idx):
                    lv, rv = lt.values[li], rt.values[ri]
                    c = Comparison(lv, "=", rv).constant_fold()
                    if isinstance(c, FalseCond):
                        dead = True
                        break
                    conds.append(c)
                if dead:
                    continue
                cond = conjoin(conds)
                if ctx.keep(cond):
                    row = tuple(lt.values) + tuple(rt.values[i] for i in keep_idx)
                    out.add(row, cond)
                    ctx.stats.tuples_generated += 1
        return out


class AntiJoin(PlanNode):
    """NOT EXISTS with c-table semantics (the complement condition).

    Keeps every left tuple, conjoining the condition that *no* right
    tuple matches it on the join attributes: for each potentially
    matching right tuple, ¬(join equalities ∧ right condition).  Right
    tuples ruled out by constant mismatch contribute nothing.  This is
    the algebraic form of fauré-log's negated literal.
    """

    def __init__(self, left: PlanNode, right: PlanNode, on: Sequence[Tuple[str, str]]):
        self.left = left
        self.right = right
        self.on = list(on)

    def schema(self, db: Database) -> Tuple[str, ...]:
        return self.left.schema(db)

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        left = self.left.execute(db, ctx)
        right = self.right.execute(db, ctx)
        l_idx = [left.attribute_index(a) for a, _ in self.on]
        r_idx = [right.attribute_index(b) for _, b in self.on]
        out = CTable(left.name, left.schema)
        right_tuples = list(right)
        for lt in left:
            parts = [lt.condition]
            dead = False
            for rt in right_tuples:
                eqs = []
                mismatch = False
                for li, ri in zip(l_idx, r_idx):
                    cond = Comparison(lt.values[li], "=", rt.values[ri]).constant_fold()
                    if isinstance(cond, FalseCond):
                        mismatch = True
                        break
                    if not isinstance(cond, TrueCond):
                        eqs.append(cond)
                if mismatch:
                    continue
                match_cond = conjoin(eqs + [rt.condition])
                if isinstance(match_cond, FalseCond):
                    continue
                negated = match_cond.negate()
                if isinstance(negated, FalseCond):
                    dead = True
                    break
                parts.append(negated)
            if dead:
                ctx.stats.tuples_pruned += 1
                continue
            combined = conjoin(parts)
            if ctx.keep(combined):
                out.add(lt.values, combined)
                ctx.stats.tuples_generated += 1
        return out


class Union(PlanNode):
    """Set union of union-compatible children."""

    def __init__(self, children: Sequence[PlanNode], name: str = "union"):
        if not children:
            raise ValueError("union of zero children")
        self.children = list(children)
        self.name = name

    def schema(self, db: Database) -> Tuple[str, ...]:
        schemas = [c.schema(db) for c in self.children]
        if any(len(s) != len(schemas[0]) for s in schemas):
            raise ValueError("union children have different arities")
        return schemas[0]

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        out = CTable(self.name, self.schema(db))
        for child in self.children:
            for tup in child.execute(db, ctx):
                out.add(tup)
        return out


class Distinct(PlanNode):
    """Merge tuples with identical data parts by disjoining conditions."""

    def __init__(self, child: PlanNode):
        self.child = child

    def schema(self, db: Database) -> Tuple[str, ...]:
        return self.child.schema(db)

    def execute(self, db: Database, ctx: ExecutionContext) -> CTable:
        src = self.child.execute(db, ctx)
        merged: Dict[Tuple[Term, ...], List[Condition]] = {}
        order: List[Tuple[Term, ...]] = []
        for tup in src:
            key = tup.data_key()
            if key not in merged:
                merged[key] = []
                order.append(key)
            merged[key].append(tup.condition)
        out = CTable(src.name, src.schema)
        for key in order:
            cond = disjoin(merged[key])
            if ctx.keep(cond):
                out.add(key, cond)
        return out


def evaluate_plan(
    plan: PlanNode,
    db: Database,
    solver: Optional[ConditionSolver] = None,
    prune: bool = True,
    stats: Optional[EvalStats] = None,
) -> CTable:
    """Execute a plan, timing relational work as "sql" seconds.

    Solver time is subtracted out of the wall measurement so the two
    buckets are disjoint, matching Table 4's reporting.
    """
    ctx = ExecutionContext(solver=solver, prune=prune, stats=stats)
    solver_before = ctx.stats.solver_seconds
    watch = Stopwatch()
    with watch.measure():
        result = plan.execute(db, ctx)
    solver_delta = ctx.stats.solver_seconds - solver_before
    ctx.stats.sql_seconds += max(0.0, watch.seconds - solver_delta)
    return result

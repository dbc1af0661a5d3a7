"""The condition language attached to c-table tuples.

A condition (paper, §3) is a boolean combination of *atoms* over the
c-domain.  Two atom forms cover everything the paper uses:

* :class:`Comparison` — ``t1 op t2`` with ``op`` one of
  ``= != < <= > >=`` and ``t1``/``t2`` constants or c-variables
  (e.g. ``ȳ ≠ 1.2.3.4``);
* :class:`LinearAtom` — ``c1·x̄1 + … + cn·x̄n op k`` over numeric
  c-variables (e.g. the failure-pattern condition ``x̄ + ȳ + z̄ = 1``).

Conditions are immutable trees.  :data:`TRUE` is the empty condition of
the paper's third Table 2 tuple.  Satisfiability, implication and
simplification live in :mod:`repro.solver`; this module only provides
structure: construction, substitution, free variables, evaluation under a
total assignment, and normalization helpers.

Conjunctions of boolean pins (``u = 0`` / ``u = 1``) with at most one
unit-coefficient bound ``Σ u op k`` — every RIB condition — also carry
a *cube* (:func:`cube_of`), which :func:`conjoin` combines by OR and the
solver's bit rung decides; like ``_hash`` it is a process-local cache,
never pickled, journaled or used as a memo key (docs/SEMANTICS.md §5).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .terms import Constant, CVariable, SlotPickleMixin, Term, Variable, as_term

__all__ = [
    "Condition",
    "Comparison",
    "LinearAtom",
    "And",
    "Or",
    "Not",
    "TrueCond",
    "FalseCond",
    "TRUE",
    "FALSE",
    "Op",
    "NEGATED_OP",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "conjoin",
    "disjoin",
]

#: Comparison operators in canonical spelling.
Op = str

_OPS: Tuple[Op, ...] = ("=", "!=", "<", "<=", ">", ">=")

#: Operator produced by negating the key operator.
NEGATED_OP: Dict[Op, Op] = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

_FLIPPED_OP: Dict[Op, Op] = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


def _apply_op(op: Op, a, b) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    # Ordering comparisons require mutually comparable payloads.
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown operator {op!r}")


#: Process-local slot per c-variable (assigned on first encoding) and the
#: reverse list.  Cube masks are relative to their lowest slot, and a
#: conjunction spanning more than ``_CUBE_SPAN`` slots stays a plain tree,
#: so fresh variables (a daemon's ``__g<seq>`` guards) never widen cubes.
_SLOTS: Dict[CVariable, int] = {}
SLOT_VARS: List[CVariable] = []
_SLOT_LOCK = threading.Lock()  # serve threads encode concurrently
_CUBE_SPAN = 256


def _slot(var: CVariable) -> int:
    slot = _SLOTS.get(var)
    if slot is None:
        with _SLOT_LOCK:
            slot = _SLOTS.get(var)
            if slot is None:
                slot = len(SLOT_VARS)
                SLOT_VARS.append(var)  # before publishing the slot
                _SLOTS[var] = slot
    return slot


def cube_of(condition: "Condition"):
    """The condition's cube, or ``None`` when it lies outside the fragment.

    A cube is ``(lo, zeros, ones, card, card_mask)``: bit ``i`` of
    ``zeros`` / ``ones`` means the conjunction pins the c-variable in
    slot ``lo + i`` to 0 / 1 (both bits: the ``u = 0 ∧ u = 1`` conflict,
    kept, never folded), ``card`` is the one cardinality
    :class:`LinearAtom` (or ``None``) and ``card_mask`` its variables.
    """
    try:
        cube = condition._cube
    except AttributeError:
        return None  # TRUE / FALSE / Or / Not
    if cube is None:
        cube = condition._encode()
        object.__setattr__(condition, "_cube", cube)
    return cube or None


def _join(cubes: Sequence[tuple]) -> object:
    """The cube of a conjunction of cubes (``False`` past the span cap)."""
    lo, zeros, ones, card, card_mask = cubes[0]
    for i in range(1, len(cubes)):
        at, z, o, c, m = cubes[i]
        if at < lo:  # rebase the accumulated masks onto the lower slot
            shift = lo - at
            zeros, ones, card_mask = zeros << shift | z, ones << shift | o, card_mask << shift
            lo = at
        else:
            shift = at - lo
            zeros |= z << shift
            ones |= o << shift
            m <<= shift
        if c is not None:
            if card is None:
                card, card_mask = c, m
            elif c != card:
                return False  # a second cardinality bound
    if (zeros | ones | card_mask).bit_length() > _CUBE_SPAN:
        return False
    return (lo, zeros, ones, card, card_mask)


class Condition(SlotPickleMixin):
    """Abstract base of condition trees."""

    __slots__ = ()

    def cvariables(self) -> FrozenSet[CVariable]:
        """All c-variables occurring in this condition (cached)."""
        cached = getattr(self, "_cvars", None)
        if cached is not None:
            return cached
        out: set = set()
        self._collect_cvars(out)
        result = frozenset(out)
        try:
            object.__setattr__(self, "_cvars", result)
        except AttributeError:
            pass  # TrueCond/FalseCond carry no cache slot
        return result

    def _collect_cvars(self, out: set) -> None:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[CVariable, Term]) -> "Condition":
        """Replace c-variables by other terms (used by valuation)."""
        raise NotImplementedError

    def evaluate(self, assignment: Mapping[CVariable, Constant]) -> bool:
        """Truth value under a *total* assignment of the free c-variables.

        Raises ``KeyError`` if some free c-variable is unassigned.
        """
        raise NotImplementedError

    def atoms(self) -> Iterator["Condition"]:
        """Yield the atomic sub-conditions (comparisons and linear atoms)."""
        raise NotImplementedError

    def negate(self) -> "Condition":
        """Structural negation with atom-level push-down where trivial."""
        return Not(self)

    # -- convenience boolean composition ---------------------------------

    def __and__(self, other: "Condition") -> "Condition":
        return conjoin([self, other])

    def __or__(self, other: "Condition") -> "Condition":
        return disjoin([self, other])

    def __invert__(self) -> "Condition":
        return self.negate()


class TrueCond(Condition):
    """The empty (always-true) condition."""

    __slots__ = ()

    def _collect_cvars(self, out: set) -> None:
        pass

    def substitute(self, mapping) -> "Condition":
        return self

    def evaluate(self, assignment) -> bool:
        return True

    def atoms(self):
        return iter(())

    def negate(self) -> "Condition":
        return FALSE

    def __eq__(self, other) -> bool:
        return isinstance(other, TrueCond)

    def __hash__(self) -> int:
        return hash("TRUE")

    def __repr__(self) -> str:
        return "TRUE"

    def __str__(self) -> str:
        return "⊤"


class FalseCond(Condition):
    """The unsatisfiable condition."""

    __slots__ = ()

    def _collect_cvars(self, out: set) -> None:
        pass

    def substitute(self, mapping) -> "Condition":
        return self

    def evaluate(self, assignment) -> bool:
        return False

    def atoms(self):
        return iter(())

    def negate(self) -> "Condition":
        return TRUE

    def __eq__(self, other) -> bool:
        return isinstance(other, FalseCond)

    def __hash__(self) -> int:
        return hash("FALSE")

    def __repr__(self) -> str:
        return "FALSE"

    def __str__(self) -> str:
        return "⊥"


TRUE = TrueCond()
FALSE = FalseCond()


def _restore_true() -> TrueCond:
    return TRUE


def _restore_false() -> FalseCond:
    return FALSE


# Pickle round-trips preserve the singletons, so identity checks like
# ``condition is TRUE`` keep working across process boundaries.
TrueCond.__reduce__ = lambda self: (_restore_true, ())  # type: ignore[assignment]
FalseCond.__reduce__ = lambda self: (_restore_false, ())  # type: ignore[assignment]


class Comparison(Condition):
    """An atomic comparison ``lhs op rhs`` over the c-domain.

    During rule processing a side may transiently hold a program
    :class:`~repro.ctable.terms.Variable`; stored c-tables must not
    contain variables (the valuation removes them).
    """

    __slots__ = ("lhs", "op", "rhs", "_hash", "_cvars", "_cube")

    def __init__(self, lhs, op: Op, rhs):
        if op not in _OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        lhs = as_term(lhs)
        rhs = as_term(rhs)
        # Canonical orientation: constants on the right when possible, and
        # symmetric operators over two non-constants sorted by repr for
        # structural dedup.  (The repr sort must not touch var-vs-const
        # atoms, or the two construction orders would orient differently
        # and negation would not round-trip structurally.)
        if lhs.is_constant and not rhs.is_constant:
            lhs, rhs = rhs, lhs
            op = _FLIPPED_OP[op]
        elif op in ("=", "!=") and not rhs.is_constant and repr(rhs) < repr(lhs):
            lhs, rhs = rhs, lhs
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cvars", None)
        object.__setattr__(self, "_cube", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Comparison is immutable")

    def _collect_cvars(self, out: set) -> None:
        for t in (self.lhs, self.rhs):
            if isinstance(t, CVariable):
                out.add(t)

    def substitute(self, mapping) -> Condition:
        lhs = (
            mapping.get(self.lhs, self.lhs)
            if isinstance(self.lhs, (CVariable, Variable))
            else self.lhs
        )
        rhs = (
            mapping.get(self.rhs, self.rhs)
            if isinstance(self.rhs, (CVariable, Variable))
            else self.rhs
        )
        if lhs is self.lhs and rhs is self.rhs:
            return self
        new = Comparison(lhs, self.op, rhs)
        return new.constant_fold()

    def constant_fold(self) -> Condition:
        """Reduce to TRUE/FALSE when both sides are constants or identical."""
        if isinstance(self.lhs, Constant) and isinstance(self.rhs, Constant):
            try:
                return TRUE if _apply_op(self.op, self.lhs.value, self.rhs.value) else FALSE
            except TypeError:
                # Incomparable payloads: = is False, != is True; order
                # comparisons stay symbolic (the solver rejects them).
                if self.op == "=":
                    return FALSE
                if self.op == "!=":
                    return TRUE
                return self
        if self.lhs == self.rhs:
            if self.op in ("=", "<=", ">="):
                return TRUE
            if self.op in ("!=", "<", ">"):
                return FALSE
        return self

    def evaluate(self, assignment) -> bool:
        lhs, rhs = self.lhs, self.rhs
        if isinstance(lhs, Constant):
            a = lhs.value
        elif isinstance(lhs, CVariable):
            a = assignment[lhs].value
        else:
            raise TypeError(f"cannot evaluate program variable {lhs!r}")
        if isinstance(rhs, Constant):
            b = rhs.value
        elif isinstance(rhs, CVariable):
            b = assignment[rhs].value
        else:
            raise TypeError(f"cannot evaluate program variable {rhs!r}")
        op = self.op
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        return _apply_op(op, a, b)

    def atoms(self):
        yield self

    def _encode(self):
        # Only ``var = 0`` / ``var = 1`` over int payloads: ``u = True``
        # or ``u = 1.0`` compare equal but print differently.
        rhs = self.rhs
        if (
            self.op == "="
            and isinstance(self.lhs, CVariable)
            and isinstance(rhs, Constant)
            and type(rhs.value) is int
            and rhs.value in (0, 1)
        ):
            return (_slot(self.lhs), 1 - rhs.value, rhs.value, None, 0)
        return False

    def negate(self) -> Condition:
        return Comparison(self.lhs, NEGATED_OP[self.op], self.rhs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Comparison)
            and self.op == other.op
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        # Immutable nodes cache their hash: the memo/canonicalization
        # layers hash the same (often large) trees over and over, and
        # recomputing structurally is the solver hot path's top cost.
        h = self._hash
        if h is None:
            h = hash(("cmp", self.lhs, self.op, self.rhs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Comparison({self.lhs!r}, {self.op!r}, {self.rhs!r})"

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


class LinearAtom(Condition):
    """A linear constraint ``sum(coeff_i * cvar_i) op constant``.

    Models failure-pattern conditions such as ``x̄ + ȳ + z̄ = 1``
    (Listing 2).  Coefficients and the bound are numbers; the c-variables
    must range over numeric domains.
    """

    __slots__ = ("coeffs", "op", "bound", "_hash", "_cvars", "_cube")

    def __init__(self, coeffs, op: Op, bound):
        if op not in _OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = [(v, 1) for v in coeffs]
        norm: Dict[CVariable, float] = {}
        for v, c in items:
            if not isinstance(v, CVariable):
                raise TypeError(f"LinearAtom over non-c-variable {v!r}")
            if not isinstance(c, (int, float)):
                raise TypeError(f"non-numeric coefficient {c!r}")
            norm[v] = norm.get(v, 0) + c
        norm = {v: c for v, c in norm.items() if c != 0}
        if not isinstance(bound, (int, float)):
            raise TypeError(f"non-numeric bound {bound!r}")
        frozen = tuple(sorted(norm.items(), key=lambda item: item[0].name))
        object.__setattr__(self, "coeffs", frozen)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cvars", None)
        object.__setattr__(self, "_cube", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("LinearAtom is immutable")

    def _collect_cvars(self, out: set) -> None:
        for v, _ in self.coeffs:
            out.add(v)

    def substitute(self, mapping) -> Condition:
        if not any(v in mapping for v, _ in self.coeffs):
            return self
        residual: Dict[CVariable, float] = {}
        shift = 0.0
        for v, c in self.coeffs:
            target = mapping.get(v, v)
            if isinstance(target, Constant):
                if not isinstance(target.value, (int, float)) or isinstance(target.value, bool):
                    if not isinstance(target.value, (int, float)):
                        raise TypeError(
                            f"cannot substitute non-numeric {target!r} into linear atom"
                        )
                shift += c * target.value
            elif isinstance(target, CVariable):
                residual[target] = residual.get(target, 0) + c
            else:
                raise TypeError(f"cannot substitute {target!r} into linear atom")
        new_bound = self.bound - shift
        if not residual:
            return TRUE if _apply_op(self.op, 0, new_bound) else FALSE
        return LinearAtom(residual, self.op, new_bound)

    def evaluate(self, assignment) -> bool:
        total = 0.0
        for v, c in self.coeffs:
            val = assignment[v].value
            if not isinstance(val, (int, float)):
                raise TypeError(f"non-numeric value {val!r} for {v!r} in linear atom")
            total += c * val
        return _apply_op(self.op, total, self.bound)

    def atoms(self):
        yield self

    def _encode(self):
        # A cardinality bound: unit coefficients (over the boolean
        # variables the solver's bit rung checks the domains of).
        if not self.coeffs or any(c != 1 for _, c in self.coeffs):
            return False
        slots = [_slot(v) for v, _ in self.coeffs]
        lo = min(slots)
        mask = 0
        for slot in slots:
            mask |= 1 << (slot - lo)
        if mask.bit_length() > _CUBE_SPAN:
            return False
        return (lo, 0, 0, self, mask)

    def negate(self) -> Condition:
        return LinearAtom(dict(self.coeffs), NEGATED_OP[self.op], self.bound)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearAtom)
            and self.coeffs == other.coeffs
            and self.op == other.op
            and self.bound == other.bound
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("lin", self.coeffs, self.op, self.bound))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"LinearAtom({dict(self.coeffs)!r}, {self.op!r}, {self.bound!r})"

    def __str__(self) -> str:
        parts = []
        for v, c in self.coeffs:
            parts.append(str(v) if c == 1 else f"{c}*{v}")
        return f"{' + '.join(parts) or '0'} {self.op} {self.bound}"


def _flatten(kind: type, children: Sequence[Condition]) -> Tuple[Condition, ...]:
    """Inline same-kind children, then dedup structurally, keeping order."""
    flat = []
    for child in children:
        if not isinstance(child, Condition):
            raise TypeError(f"non-condition child {child!r}")
        if type(child) is kind:
            flat.extend(child.children)
        else:
            flat.append(child)
    seen: set = set()
    uniq = []
    for child in flat:
        if child not in seen:
            seen.add(child)
            uniq.append(child)
    return tuple(uniq)


class _NaryCondition(Condition):
    """Shared machinery of :class:`And` / :class:`Or`."""

    __slots__ = ("_hash", "_cvars")
    _symbol = "?"

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("condition nodes are immutable")

    def _collect_cvars(self, out: set) -> None:
        for child in self.children:
            cached = getattr(child, "_cvars", None)
            if cached is not None:
                out.update(cached)
            else:
                child._collect_cvars(out)

    def atoms(self):
        for child in self.children:
            yield from child.atoms()

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.children == other.children

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((type(self).__name__, self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.children)!r})"

    def __str__(self) -> str:
        sep = f" {self._symbol} "
        return "(" + sep.join(str(c) for c in self.children) + ")"


class And(_NaryCondition):
    """Conjunction.  Prefer the :func:`conjoin` smart constructor.

    A conjunction of cubes (see :func:`cube_of`) built by :func:`conjoin`
    keeps its operands and renders the flat conjunct tuple only when
    something reads :attr:`children` — printing, serialization, the
    general solver ladder — in exactly the order an eager build gives.
    Its hash and equality are those of its cube, so the same conjunct
    set compares equal however it was built or ordered; and they agree
    for a conjunction held lazily and its twin built from children.
    """

    __slots__ = ("_kids", "_parts", "_cube")
    _symbol = "∧"

    def __init__(self, children: Sequence[Condition], _cube=None):
        # With a cube (from conjoin) the operands stay unflattened.
        lazy = _cube is not None
        object.__setattr__(self, "_kids", None if lazy else _flatten(And, children))
        object.__setattr__(self, "_parts", tuple(children) if lazy else None)
        object.__setattr__(self, "_cube", _cube)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cvars", None)

    @property
    def children(self) -> Tuple[Condition, ...]:
        kids = self._kids
        if kids is None:
            parts = self._parts
            if parts is None:  # another thread rendered it meanwhile
                return self._kids
            kids = _flatten(And, parts)
            object.__setattr__(self, "_kids", kids)
            object.__setattr__(self, "_parts", None)
        return kids

    def _encode(self):
        cubes = [cube_of(child) for child in self.children]
        return _join(cubes) if cubes and None not in cubes else False

    def __getstate__(self):
        return {"children": self.children}

    def __setstate__(self, state) -> None:
        for name in ("_parts", "_cube", "_hash", "_cvars"):
            object.__setattr__(self, name, None)
        object.__setattr__(self, "_kids", state["children"])

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not And:
            return False
        cube = cube_of(self)
        if cube is not None:
            return cube == cube_of(other)
        return cube_of(other) is None and self.children == other.children

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            cube = cube_of(self)
            h = hash(cube) if cube is not None else hash(("And", self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def substitute(self, mapping) -> Condition:
        return conjoin([c.substitute(mapping) for c in self.children])

    def evaluate(self, assignment) -> bool:
        for c in self.children:
            if not c.evaluate(assignment):
                return False
        return True

    def negate(self) -> Condition:
        return disjoin([c.negate() for c in self.children])


class Or(_NaryCondition):
    """Disjunction.  Prefer the :func:`disjoin` smart constructor."""

    __slots__ = ("children",)
    _symbol = "∨"

    def __init__(self, children: Sequence[Condition]):
        object.__setattr__(self, "children", _flatten(Or, children))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cvars", None)

    def substitute(self, mapping) -> Condition:
        return disjoin([c.substitute(mapping) for c in self.children])

    def evaluate(self, assignment) -> bool:
        for c in self.children:
            if c.evaluate(assignment):
                return True
        return False

    def negate(self) -> Condition:
        return conjoin([c.negate() for c in self.children])


class Not(Condition):
    """Negation of a compound condition (atoms negate into atoms)."""

    __slots__ = ("child", "_hash", "_cvars")

    def __init__(self, child: Condition):
        if not isinstance(child, Condition):
            raise TypeError(f"non-condition child {child!r}")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cvars", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Not is immutable")

    def _collect_cvars(self, out: set) -> None:
        self.child._collect_cvars(out)

    def substitute(self, mapping) -> Condition:
        return self.child.substitute(mapping).negate()

    def evaluate(self, assignment) -> bool:
        return not self.child.evaluate(assignment)

    def atoms(self):
        yield from self.child.atoms()

    def negate(self) -> Condition:
        return self.child

    def __eq__(self, other) -> bool:
        return isinstance(other, Not) and self.child == other.child

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("not", self.child))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Not({self.child!r})"

    def __str__(self) -> str:
        return f"¬{self.child}"


def conjoin(conditions: Iterable[Condition]) -> Condition:
    """Smart conjunction: flattens, dedups, short-circuits TRUE/FALSE.

    Cube operands combine by OR into a lazy :class:`And`; a conflicting
    cube (``u = 0 ∧ u = 1``) stays a conjunction — only the solver
    decides it is unsatisfiable.
    """
    parts = []
    cubes = []
    for cond in conditions:
        if isinstance(cond, FalseCond):
            return FALSE
        if isinstance(cond, TrueCond):
            continue
        parts.append(cond)
        if cubes is not None:
            cube = getattr(cond, "_cube", False)
            if cube is None:
                cube = cube_of(cond)
            if cube:
                cubes.append(cube)
            else:
                cubes = None
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    if cubes is not None:
        cube = _join(cubes)
        # One distinct conjunct renders as itself, not as an And.
        if cube and cube[1].bit_count() + cube[2].bit_count() + (cube[3] is not None) > 1:
            return And(parts, cube)
    merged = And(parts)
    if not merged.children:
        return TRUE
    if len(merged.children) == 1:
        return merged.children[0]
    if any(isinstance(c, FalseCond) for c in merged.children):
        return FALSE
    return merged


def disjoin(conditions: Iterable[Condition]) -> Condition:
    """Smart disjunction: flattens, dedups, short-circuits TRUE/FALSE."""
    parts = []
    for cond in conditions:
        if isinstance(cond, TrueCond):
            return TRUE
        if isinstance(cond, FalseCond):
            continue
        parts.append(cond)
    merged = Or(parts)
    if not merged.children:
        return FALSE
    if len(merged.children) == 1:
        return merged.children[0]
    if any(isinstance(c, TrueCond) for c in merged.children):
        return TRUE
    return merged


# -- tiny comparison constructors -----------------------------------------


def eq(lhs, rhs) -> Condition:
    """``lhs = rhs`` with constant folding."""
    return Comparison(lhs, "=", rhs).constant_fold()


def ne(lhs, rhs) -> Condition:
    """``lhs != rhs`` with constant folding."""
    return Comparison(lhs, "!=", rhs).constant_fold()


def lt(lhs, rhs) -> Condition:
    """``lhs < rhs`` with constant folding."""
    return Comparison(lhs, "<", rhs).constant_fold()


def le(lhs, rhs) -> Condition:
    """``lhs <= rhs`` with constant folding."""
    return Comparison(lhs, "<=", rhs).constant_fold()


def gt(lhs, rhs) -> Condition:
    """``lhs > rhs`` with constant folding."""
    return Comparison(lhs, ">", rhs).constant_fold()


def ge(lhs, rhs) -> Condition:
    """``lhs >= rhs`` with constant folding."""
    return Comparison(lhs, ">=", rhs).constant_fold()

"""Canonical normal forms and hash-consing for conditions.

Condition satisfiability is the NP-complete inner loop of every
fauré-log query, yet the solver's structural caches only recognise
*syntactically identical* conditions.  Semantically identical conditions
— the same atoms reordered, un-folded constants, ``x = 5 ∧ x ≥ 3``
versus ``x = 5`` — re-enter the decision machinery on every occurrence.
This module rewrites every condition into a **canonical form** so that
equivalence classes produced by mechanical condition composition
collapse to a single representative:

* negation is pushed to the atoms (atoms absorb it; no ``Not`` nodes
  survive);
* atoms are constant-folded and oriented (symmetric/order comparisons
  over two c-variables are flipped into a fixed orientation);
* within a conjunction, comparison literals over the same c-variable
  are *tightened*: duplicate and subsumed literals dropped, intervals
  intersected, ``x ≥ 5 ∧ x ≤ 5`` collapsed to ``x = 5``, contradictory
  literal sets collapsed to ``FALSE``;
* within a disjunction, the dual: intervals unioned, literals absorbed,
  tautological literal sets collapsed to ``TRUE``;
* absorption (``a ∧ (a ∨ b) → a`` and ``a ∨ (a ∧ b) → a``) is applied
  structurally;
* children of ``∧``/``∨`` are deduplicated and sorted under a total
  order, so the form is permutation-invariant.

Every rewrite is **domain-generic**: it is an equivalence over *any*
assignment of the c-variables (order reasoning is only applied when the
constants involved are mutually comparable), so the canonical form can
be used as a cache key regardless of the domain declarations in play —
the memo layer (:mod:`repro.solver.memo`) adds the domain fingerprint
to its keys separately.

The :class:`InternTable` hash-conses canonical conditions: structurally
equal canonical forms become the *same object*, which makes repeated
equality checks (fixpoint dedup, memo keys) effectively O(1) — Python's
tuple comparison short-circuits on identity for shared subtrees.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ctable.condition import (
    And,
    Comparison,
    Condition,
    FALSE,
    FalseCond,
    LinearAtom,
    NEGATED_OP,
    Not,
    Op,
    Or,
    TRUE,
    TrueCond,
)
from ..ctable.terms import Constant, CVariable

__all__ = ["canonicalize", "InternTable"]

#: Flip map for re-orienting order comparisons (mirror of the private
#: table in :mod:`repro.ctable.condition`).
_FLIP: Dict[Op, Op] = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: Class rank used by the total order over conditions.
_RANKS = {Comparison: 0, LinearAtom: 1, And: 2, Or: 3}


def _sort_key(cond: Condition) -> Tuple[int, str]:
    """A total order over canonical conditions (class rank, then repr)."""
    return (_RANKS.get(type(cond), 9), repr(cond))


class InternTable:
    """Bounded hash-consing table mapping conditions to shared objects.

    ``intern`` returns the previously stored structurally-equal
    condition when one exists, so equal canonical forms share identity.
    The table is bounded: past ``max_entries`` the oldest entries are
    evicted (canonicalization stays correct — eviction only loses
    sharing, never meaning).
    """

    __slots__ = ("max_entries", "_table", "hits", "misses", "evictions")

    def __init__(self, max_entries: int = 1 << 18):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._table: Dict[Condition, Condition] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, cond: Condition) -> Condition:
        if isinstance(cond, (TrueCond, FalseCond)):
            return TRUE if isinstance(cond, TrueCond) else FALSE
        got = self._table.get(cond)
        if got is not None:
            self.hits += 1
            return got
        self.misses += 1
        if len(self._table) >= self.max_entries:
            # dicts preserve insertion order: drop the oldest entry.
            self._table.pop(next(iter(self._table)))
            self.evictions += 1
        self._table[cond] = cond
        return cond

    def clear(self) -> None:
        self._table.clear()


# -- value comparability ----------------------------------------------------


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float))


def _comparable(values: Sequence) -> bool:
    """True when order reasoning over these constants is well-defined."""
    all_numeric = True
    all_str = True
    for v in values:
        if all_numeric and not isinstance(v, (int, float)):
            all_numeric = False
        if all_str and not isinstance(v, str):
            all_str = False
        if not all_numeric and not all_str:
            return False
    return True


def _cmp(op: Op, a, b) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b  # ">="


# -- per-variable literal groups --------------------------------------------


class _Group:
    """The ``var op constant`` literals of one c-variable, classified."""

    __slots__ = ("var", "eqs", "neqs", "lowers", "uppers")

    def __init__(self, var: CVariable):
        self.var = var
        self.eqs: List = []  # raw constant values
        self.neqs: List = []
        self.lowers: List[Tuple[object, bool]] = []  # (value, strict)
        self.uppers: List[Tuple[object, bool]] = []

    def add(self, op: Op, value) -> None:
        if op == "=":
            if value not in self.eqs:
                self.eqs.append(value)
        elif op == "!=":
            if value not in self.neqs:
                self.neqs.append(value)
        elif op == ">":
            self.lowers.append((value, True))
        elif op == ">=":
            self.lowers.append((value, False))
        elif op == "<":
            self.uppers.append((value, True))
        else:  # "<="
            self.uppers.append((value, False))

    def values(self) -> List:
        out = list(self.eqs) + list(self.neqs)
        out.extend(v for v, _ in self.lowers)
        out.extend(v for v, _ in self.uppers)
        return out

    # -- atom construction ------------------------------------------------

    def _atom(self, op: Op, value) -> Comparison:
        return Comparison(self.var, op, Constant(value))

    def _bound_atoms(self, lower, upper) -> List[Comparison]:
        out = []
        if lower is not None:
            out.append(self._atom(">" if lower[1] else ">=", lower[0]))
        if upper is not None:
            out.append(self._atom("<" if upper[1] else "<=", upper[0]))
        return out

    # -- conjunction tightening -------------------------------------------

    def tighten_and(self) -> Optional[List[Condition]]:
        """The tightened conjuncts for this variable; ``None`` means ⊥."""
        if len(self.eqs) == 1 and not self.neqs and not self.lowers and not self.uppers:
            # Dominant shape — one pinned equality.  The comparable and
            # the generic paths both reduce to exactly this atom, so the
            # classification work can be skipped outright.
            return [self._atom("=", self.eqs[0])]
        if not _comparable(self.values()):
            return self._generic_and()
        if len(self.eqs) >= 2:
            return None
        if self.eqs:
            v = self.eqs[0]
            if any(v == w for w in self.neqs):
                return None
            for c, strict in self.lowers:
                if v < c or (v == c and strict):
                    return None
            for c, strict in self.uppers:
                if v > c or (v == c and strict):
                    return None
            return [self._atom("=", v)]
        lower = None  # strongest: highest value, strict beats non-strict
        for c, strict in self.lowers:
            if lower is None or c > lower[0] or (c == lower[0] and strict):
                lower = (c, strict)
        upper = None  # strongest: lowest value, strict beats non-strict
        for c, strict in self.uppers:
            if upper is None or c < upper[0] or (c == upper[0] and strict):
                upper = (c, strict)
        if lower is not None and upper is not None:
            if lower[0] > upper[0]:
                return None
            if lower[0] == upper[0]:
                if lower[1] or upper[1]:
                    return None
                v = lower[0]  # x ≥ v ∧ x ≤ v  →  x = v
                if any(v == w for w in self.neqs):
                    return None
                return [self._atom("=", v)]
        neqs = []
        for v in self.neqs:
            if lower is not None:
                if v < lower[0]:
                    continue  # excluded by the bound already
                if v == lower[0]:
                    if lower[1]:
                        continue
                    lower = (lower[0], True)  # x ≥ v ∧ x ≠ v → x > v
                    continue
            if upper is not None:
                if v > upper[0]:
                    continue
                if v == upper[0]:
                    if upper[1]:
                        continue
                    upper = (upper[0], True)
                    continue
            neqs.append(v)
        out: List[Condition] = self._bound_atoms(lower, upper)
        out.extend(self._atom("!=", v) for v in neqs)
        return out

    def _generic_and(self) -> Optional[List[Condition]]:
        """Equality/disequality reasoning only (incomparable constants)."""
        if len(self.eqs) >= 2:
            return None
        order = self._bound_atoms_raw()
        if self.eqs:
            v = self.eqs[0]
            if any(v == w for w in self.neqs):
                return None
            return [self._atom("=", v)] + order
        return [self._atom("!=", v) for v in self.neqs] + order

    def _bound_atoms_raw(self) -> List[Comparison]:
        out = [self._atom(">" if s else ">=", v) for v, s in self.lowers]
        out.extend(self._atom("<" if s else "<=", v) for v, s in self.uppers)
        return out

    # -- disjunction weakening --------------------------------------------

    def tighten_or(self) -> Optional[List[Condition]]:
        """The weakened disjuncts for this variable; ``None`` means ⊤."""
        if not _comparable(self.values()):
            return self._generic_or()
        if len(self.neqs) >= 2:
            return None  # x ≠ a ∨ x ≠ b (a ≠ b) is a tautology
        if self.neqs:
            v = self.neqs[0]
            if any(v == w for w in self.eqs):
                return None  # x ≠ v ∨ x = v
            for c, strict in self.lowers:
                if _cmp(">" if strict else ">=", v, c):
                    return None  # the bound covers v → union is total
            for c, strict in self.uppers:
                if _cmp("<" if strict else "<=", v, c):
                    return None
            return [self._atom("!=", v)]  # everything else is absorbed
        lower = None  # weakest: lowest value, non-strict beats strict
        for c, strict in self.lowers:
            if lower is None or c < lower[0] or (c == lower[0] and not strict):
                lower = (c, strict)
        upper = None  # weakest: highest value, non-strict beats strict
        for c, strict in self.uppers:
            if upper is None or c > upper[0] or (c == upper[0] and not strict):
                upper = (c, strict)
        if lower is not None and upper is not None:
            if upper[0] > lower[0]:
                return None  # the two rays overlap → total
            if upper[0] == lower[0]:
                if not (lower[1] and upper[1]):
                    return None  # x ≤ v ∨ x ≥ v
                v = lower[0]  # x < v ∨ x > v  →  x ≠ v
                if any(v == w for w in self.eqs):
                    return None
                return [self._atom("!=", v)]
        out: List[Condition] = self._bound_atoms(lower, upper)
        for v in self.eqs:
            if lower is not None and _cmp(">" if lower[1] else ">=", v, lower[0]):
                continue  # x = v absorbed by the lower ray
            if upper is not None and _cmp("<" if upper[1] else "<=", v, upper[0]):
                continue
            out.append(self._atom("=", v))
        return out

    def _generic_or(self) -> Optional[List[Condition]]:
        if len(self.neqs) >= 2:
            return None
        order = self._bound_atoms_raw()
        if self.neqs:
            v = self.neqs[0]
            if any(v == w for w in self.eqs):
                return None
            return [self._atom("!=", v)] + order
        return [self._atom("=", v) for v in self.eqs] + order


# -- the canonicalizer ------------------------------------------------------


def _is_var_const(cond: Condition) -> bool:
    return (
        isinstance(cond, Comparison)
        and isinstance(cond.lhs, CVariable)
        and isinstance(cond.rhs, Constant)
    )


def _canon_comparison(cmp: Comparison) -> Condition:
    folded = cmp.constant_fold()
    if not isinstance(folded, Comparison):
        return folded
    # Orient symmetric-in-meaning order comparisons over two variables:
    # y > x and x < y must canonicalize identically.  (=/!= are already
    # oriented by the Comparison constructor.)
    if (
        folded.op not in ("=", "!=")
        and not isinstance(folded.rhs, Constant)
        and repr(folded.rhs) < repr(folded.lhs)
    ):
        folded = Comparison(folded.rhs, _FLIP[folded.op], folded.lhs)
    return folded


def _canon_linear(atom: LinearAtom) -> Condition:
    if not atom.coeffs:
        return TRUE if _cmp(atom.op, 0, atom.bound) else FALSE
    return atom


def _assemble(
    children: List[Condition],
    conjunction: bool,
    mk,
) -> Condition:
    """Shared ∧/∨ assembly: flatten, short-circuit, tighten, sort."""
    short = FALSE if conjunction else TRUE
    neutral = TRUE if conjunction else FALSE
    box = And if conjunction else Or

    flat: List[Condition] = []
    for child in children:
        if isinstance(child, type(short)):
            return short
        if isinstance(child, type(neutral)):
            continue
        if isinstance(child, box):
            flat.extend(child.children)
        else:
            flat.append(child)

    # Dedup structurally, then detect complementary atom pairs.  For
    # comparisons the complement test runs on (op, lhs, rhs) key tuples
    # — same structural identity as ``child.negate() in seen`` without
    # constructing a fresh negated atom per literal.
    seen = set()
    cmp_keys = set()
    lin_keys = set()
    uniq: List[Condition] = []
    for child in flat:
        if child not in seen:
            seen.add(child)
            uniq.append(child)
            if isinstance(child, Comparison):
                cmp_keys.add((child.op, child.lhs, child.rhs))
            elif isinstance(child, LinearAtom):
                lin_keys.add((child.coeffs, child.op, child.bound))
    for child in uniq:
        if isinstance(child, Comparison):
            if (NEGATED_OP[child.op], child.lhs, child.rhs) in cmp_keys:
                return short  # a ∧ ¬a → ⊥ / a ∨ ¬a → ⊤
        elif isinstance(child, LinearAtom):
            # Same structural identity as ``child.negate() in seen``
            # (negate flips only the operator) without rebuilding the
            # normalized atom per literal.
            if (child.coeffs, NEGATED_OP[child.op], child.bound) in lin_keys:
                return short

    # Per-variable literal tightening over var-op-constant comparisons.
    groups: Dict[CVariable, _Group] = {}
    rest: List[Condition] = []
    for child in uniq:
        if _is_var_const(child):
            groups.setdefault(child.lhs, _Group(child.lhs)).add(
                child.op, child.rhs.value
            )
        else:
            rest.append(child)
    tightened: List[Condition] = []
    for var in groups:
        out = groups[var].tighten_and() if conjunction else groups[var].tighten_or()
        if out is None:
            return short
        # Tightening builds fresh atoms; intern them so they share
        # identity with equal atoms from other conditions.
        tightened.extend(mk(c) for c in out)

    members: List[Condition] = []
    member_set = set()
    for child in tightened + rest:
        if child not in member_set:
            member_set.add(child)
            members.append(child)

    # Absorption: in a conjunction, a ∧ (a ∨ b) → a; dually for ∨.
    other = Or if conjunction else And
    kept: List[Condition] = []
    for child in members:
        if isinstance(child, other) and any(
            c in member_set for c in child.children
        ):
            continue
        kept.append(child)

    if not kept:
        return neutral
    if len(kept) == 1:
        return mk(kept[0])
    kept.sort(key=_sort_key)
    return mk(box(kept))


def _identity(cond: Condition) -> Condition:
    return cond


def _walk(cond: Condition, mk) -> Condition:
    """:func:`canonicalize`'s recursion, ``mk`` hash-consing each node.

    Module-level, not a closure over ``mk``: a closure that recurses
    through its own cell is a reference cycle that would keep the intern
    table alive until a full garbage collection.
    """
    if isinstance(cond, (TrueCond, FalseCond)):
        return TRUE if isinstance(cond, TrueCond) else FALSE
    if isinstance(cond, Comparison):
        out = _canon_comparison(cond)
        return mk(out) if isinstance(out, Comparison) else out
    if isinstance(cond, LinearAtom):
        out = _canon_linear(cond)
        return mk(out) if isinstance(out, LinearAtom) else out
    if isinstance(cond, Not):
        # Push the negation through (atoms absorb it, ∧/∨ flip).
        return _walk(cond.child.negate(), mk)
    if isinstance(cond, And):
        return _assemble([_walk(c, mk) for c in cond.children], True, mk)
    if isinstance(cond, Or):
        return _assemble([_walk(c, mk) for c in cond.children], False, mk)
    raise TypeError(f"cannot canonicalize {cond!r}")


def canonicalize(condition: Condition, intern: Optional[InternTable] = None) -> Condition:
    """The canonical form of ``condition``.

    The result is equivalent to the input over every assignment of its
    c-variables, idempotent (``canonicalize(canonicalize(c)) ==
    canonicalize(c)``), and permutation-invariant (reordering ∧/∨
    children yields the identical form).  With an :class:`InternTable`,
    every node of the result is hash-consed so equal forms share
    identity.
    """
    return _walk(condition, intern.intern if intern is not None else _identity)

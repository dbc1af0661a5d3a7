"""Interval/atom semi-decision procedure — the solver's fast path.

This module is the shared home of the sound interval + equality
abstract domain that used to live in :mod:`repro.analysis.abstract`
(which now re-exports it), promoted into the solver package as the
first tier of :class:`~repro.solver.interface.ConditionSolver`'s
decision ladder.

Two layers live here:

* the **domain-generic** one-sided provers :func:`prove_unsat` /
  :func:`prove_valid` / :func:`abstract_sat` — sound for *every* domain
  map, used unchanged by the lint pipeline (F010/F011); and
* the **domain-aware** semi-decision procedures :func:`raw_sat` /
  :func:`fast_implies` (on raw conditions) and :func:`fast_sat` (on
  canonical forms), which additionally consult a
  :class:`~repro.solver.domains.DomainMap` to answer definite
  SAT/UNSAT on the common-case conditions of the c-table hot path
  without any search, in the spirit of Delta-net's
  range atomization: equality chains collapse under a union-find,
  ``var op const`` literals pool into one interval per equivalence
  class, declared domains contribute their own interval/value atoms,
  and unit-coefficient linear atoms (the §4 failure-pattern encodings
  ``Σ x̄ᵢ op k``) reduce to integer interval arithmetic over the
  achievable-sum range.

Soundness contract of :func:`fast_sat` (see docs/PERFORMANCE.md):

* ``False`` (UNSAT) is only returned from checks that are pointwise
  refutations — the structural contradictions of the generic layer,
  pinned constants outside a member's declared domain, equivalence
  classes whose candidate value set is exactly computed and empty, and
  linear atoms whose bound falls outside the achievable-sum interval;
* ``True`` (SAT) is only returned after a *witness* assignment has
  been constructed and verified with ``Condition.evaluate`` — a bug in
  the witness builder can therefore only cause a miss (``None``),
  never a wrong verdict;
* ``None`` means "outside the fast fragment": the caller falls back to
  enumeration/DPLL exactly as before.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ctable.condition import (
    _FLIPPED_OP,
    And,
    Comparison,
    Condition,
    FALSE,
    FalseCond,
    LinearAtom,
    Or,
    TrueCond,
    conjoin,
)
from ..ctable.terms import Constant, CVariable, Term, Variable
from .canonical import _Group, _cmp, canonicalize
from .domains import Domain, DomainMap, FiniteDomain, IntRange

__all__ = [
    "AbstractResult",
    "abstract_sat",
    "prove_unsat",
    "prove_valid",
    "fast_sat",
    "fast_implies",
    "raw_sat",
]

#: Maximum case splits (product of disjunct counts) expanded inside one
#: conjunction before the verdict degrades to UNKNOWN.
_SPLIT_BUDGET = 64

#: Maximum recursion depth through nested ∧/∨ alternations.
_DEPTH_BUDGET = 6

#: Maximum candidate values scanned per equivalence class when the fast
#: path intersects declared domains with the pooled interval literals.
_CANDIDATE_BUDGET = 128


class AbstractResult(enum.Enum):
    """Verdict of the abstract analysis; UNKNOWN is always permitted."""

    UNSAT = "unsat"
    VALID = "valid"
    UNKNOWN = "unknown"


class _UnionFind:
    """Union-find over terms (program variables and c-variables alike)."""

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        parent = self._parent.get(term, term)
        if parent is term:
            return term
        root = self.find(parent)
        self._parent[term] = root
        return root

    def union(self, a: Term, b: Term) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is not rb and ra != rb:
            self._parent[ra] = rb


def _identity(term: Term) -> Term:
    return term


def _is_unknown_term(term: Term) -> bool:
    return isinstance(term, (CVariable, Variable))


def _strict_cycle(
    edges: List[Tuple[Term, Term, bool]], uf: _UnionFind
) -> bool:
    """True when the </≤ graph has a cycle through a strict edge.

    Edges are (smaller, larger, strict) over union-find representatives.
    A strict self-loop (x < x after equality merging) is the degenerate
    case.  The search is a DFS reachability check per strict edge —
    fine at lint scale (conditions have tens of atoms).
    """
    adjacency: Dict[Term, Set[Term]] = {}
    for lo, hi, _ in edges:
        adjacency.setdefault(uf.find(lo), set()).add(uf.find(hi))
    for lo, hi, strict in edges:
        if not strict:
            continue
        lo, hi = uf.find(lo), uf.find(hi)
        if lo == hi:
            return True  # x < x
        # strict edge lo -> hi: contradiction if hi reaches lo again.
        seen: Set[Term] = set()
        stack = [hi]
        while stack:
            node = stack.pop()
            if node == lo:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
    return False


def _conjunction_unsat(children: Sequence[Condition], depth: int) -> bool:
    """Sound unsatisfiability check for a conjunction of canonical facts."""
    uf = _UnionFind()
    var_const: List[Comparison] = []
    neq_pairs: List[Tuple[Term, Term]] = []
    order_edges: List[Tuple[Term, Term, bool]] = []  # (lo, hi, strict)
    linear: List[LinearAtom] = []
    disjunctions: List[Or] = []

    for child in children:
        if isinstance(child, FalseCond):
            return True
        if isinstance(child, TrueCond):
            continue
        if isinstance(child, Or):
            disjunctions.append(child)
            continue
        if isinstance(child, And):  # canonical forms are flat, but be safe
            if _conjunction_unsat(child.children, depth):
                return True
            continue
        if isinstance(child, LinearAtom):
            linear.append(child)
            continue
        if not isinstance(child, Comparison):
            continue  # unknown node kind: ignore, stays sound
        lhs, op, rhs = child.lhs, child.op, child.rhs
        if isinstance(lhs, Constant) and _is_unknown_term(rhs):
            # Normalize constant-left atoms so the pooling below sees
            # every var-vs-const fact in one orientation.
            lhs, op, rhs = rhs, _FLIPPED_OP[op], lhs
            child = Comparison(lhs, op, rhs)
            lhs, op, rhs = child.lhs, child.op, child.rhs
        if _is_unknown_term(lhs) and isinstance(rhs, Constant):
            var_const.append(child)
        elif _is_unknown_term(lhs) and _is_unknown_term(rhs):
            if op == "=":
                uf.union(lhs, rhs)
            elif op == "!=":
                neq_pairs.append((lhs, rhs))
            elif op == "<":
                order_edges.append((lhs, rhs, True))
            elif op == "<=":
                order_edges.append((lhs, rhs, False))
            elif op == ">":
                order_edges.append((rhs, lhs, True))
            elif op == ">=":
                order_edges.append((rhs, lhs, False))
        # Constant-vs-constant atoms were folded away by canonicalize.

    # Pool the var-op-const literals of each equivalence class.
    groups: Dict[Term, _Group] = {}
    for cmp_atom in var_const:
        rep = uf.find(cmp_atom.lhs)
        group = groups.get(rep)
        if group is None:
            anchor = rep if isinstance(rep, CVariable) else CVariable(f"_class_{id(rep)}")
            group = _Group(anchor)
            groups[rep] = group
        assert isinstance(cmp_atom.rhs, Constant)
        group.add(cmp_atom.op, cmp_atom.rhs.value)
    for group in groups.values():
        if group.tighten_and() is None:
            return True

    # Disequalities: within one class, or between constant-pinned classes.
    def pinned(rep: Term) -> Optional[object]:
        group = groups.get(rep)
        if group is not None and group.eqs:
            return group.eqs[0]
        return None

    for a, b in neq_pairs:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return True  # x = y ∧ x ≠ y
        va, vb = pinned(ra), pinned(rb)
        if va is not None and vb is not None and va == vb:
            return True  # both pinned to the same constant

    # Order comparisons between constant-pinned classes, plus equal
    # classes under a strict order, plus strict cycles.
    for lo, hi, strict in order_edges:
        rlo, rhi = uf.find(lo), uf.find(hi)
        if rlo == rhi and strict:
            return True  # x = y ∧ x < y
        vlo, vhi = pinned(rlo), pinned(rhi)
        if vlo is not None and vhi is not None:
            try:
                holds = _cmp("<" if strict else "<=", vlo, vhi)
            except TypeError:
                holds = True  # incomparable payloads: no conclusion
            if not holds:
                return True
    if _strict_cycle(order_edges, uf):
        return True

    # Linear atoms: pool by coefficient vector, treat the linear form as
    # one pseudo-variable and reuse the interval tightening.
    by_coeffs: Dict[Tuple, _Group] = {}
    for atom in linear:
        group = by_coeffs.get(atom.coeffs)
        if group is None:
            group = _Group(CVariable(f"_lin_{len(by_coeffs)}"))
            by_coeffs[atom.coeffs] = group
        group.add(atom.op, atom.bound)
    for group in by_coeffs.values():
        if group.tighten_and() is None:
            return True

    # Case-split over nested disjunctions, under budget.
    if disjunctions and depth < _DEPTH_BUDGET:
        splits = 1
        for dis in disjunctions:
            splits *= len(dis.children)
        if splits <= _SPLIT_BUDGET:
            plain = [c for c in children if not isinstance(c, Or)]
            for combo in itertools.product(*[d.children for d in disjunctions]):
                arm = canonicalize(conjoin(plain + list(combo)))
                if not _unsat(arm, depth + 1):
                    return False
            return True
    return False


def _unsat(canonical: Condition, depth: int) -> bool:
    """Unsatisfiability of an already-canonical condition."""
    if isinstance(canonical, FalseCond):
        return True
    if isinstance(canonical, (TrueCond, Comparison, LinearAtom)):
        # canonicalize folds every decidable atom; a surviving atom has a
        # free unknown, hence a satisfying assignment over *some* value.
        # (Its domain might still rule it out — that is the solver's
        # business, and answering False here keeps us sound.)
        return False
    if depth >= _DEPTH_BUDGET:
        return False
    if isinstance(canonical, Or):
        return all(_unsat(child, depth + 1) for child in canonical.children)
    if isinstance(canonical, And):
        return _conjunction_unsat(canonical.children, depth)
    return False


def prove_unsat(condition: Condition) -> bool:
    """True only when ``condition`` is unsatisfiable over every domain."""
    return _unsat(canonicalize(condition), 0)


def prove_valid(condition: Condition) -> bool:
    """True only when ``condition`` holds under every assignment."""
    return _unsat(canonicalize(condition.negate()), 0)


def abstract_sat(condition: Condition) -> AbstractResult:
    """Classify a condition: proven UNSAT, proven VALID, else UNKNOWN."""
    if prove_unsat(condition):
        return AbstractResult.UNSAT
    if prove_valid(condition):
        return AbstractResult.VALID
    return AbstractResult.UNKNOWN


# ---------------------------------------------------------------------------
# Domain-aware fast path
# ---------------------------------------------------------------------------

#: Sentinel distinguishing "proven unsatisfiable" from "no conclusion"
#: in the internal search (a witness dict means satisfiable).
_UNSAT = object()


def _domain_admits(domain: Domain, value) -> bool:
    """Whether some element of ``domain`` equals ``value`` under ``==``.

    Deliberately *not* ``Domain.contains``: an :class:`IntRange` rejects
    ``5.0`` on type, but ``x = 5.0`` is satisfied by the in-range
    element ``5`` under numeric equality — and an unsound UNSAT here
    would be a wrong answer, not a miss.
    """
    if isinstance(domain, FiniteDomain):
        # Set-backed `==` membership over raw payloads: same semantics
        # as the Constant-wrapped test, minus the wrapper construction
        # (this runs per candidate on the dedup hot path).
        return domain.admits_raw(value)
    if isinstance(domain, IntRange):
        if isinstance(value, bool):
            value = int(value)  # True == 1: numeric equality applies
        if not isinstance(value, (int, float)):
            return False
        return domain.lo <= value <= domain.hi and float(value).is_integer()
    return domain.contains(value)


def _value_satisfies(group: _Group, value) -> bool:
    """Whether ``value`` satisfies every pooled literal of the group.

    Raises ``TypeError`` on incomparable payloads; the caller treats
    that class as outside the fast fragment.
    """
    # Every pooled equality must hold — with conflicting pins (the
    # tighten pass already failed by the time we scan) no value passes,
    # which surfaces as an empty candidate list rather than a bogus one.
    for w in group.eqs:
        if not value == w:
            return False
    for w in group.neqs:
        if value == w:
            return False
    for c, strict in group.lowers:
        if not _cmp(">" if strict else ">=", value, c):
            return False
    for c, strict in group.uppers:
        if not _cmp("<" if strict else "<=", value, c):
            return False
    return True


class _Class:
    """One union-find equivalence class of c-variables, atomized.

    ``pinned`` is the constant the whole class must equal (when some
    ``var = const`` literal exists); ``candidates`` is the *exact* list
    of values the class may take — the intersection of every member's
    declared domain with the pooled interval/disequality literals — or
    ``None`` when that set could not be computed exactly (unbounded
    domain, incomparable payloads, or over budget).  An empty candidate
    list is therefore a sound UNSAT.
    """

    __slots__ = ("members", "group", "pinned", "candidates")

    def __init__(self, members: List[CVariable]):
        self.members = members
        self.group: Optional[_Group] = None
        self.pinned = None
        self.candidates: Optional[List] = None


def _atomize(
    classes: Dict[Term, _Class], domains: DomainMap
) -> Optional[bool]:
    """Fill pinned values / candidate lists; ``False`` means UNSAT.

    Returns ``None`` on success, ``False`` when some class admits no
    value (a pointwise refutation over the declared domains).
    """
    domain_of = domains.domain_of
    for info in classes.values():
        group = info.group
        if group is not None:
            if group.tighten_and() is None:
                return False
            if group.eqs:
                info.pinned = group.eqs[0]
                for var in info.members:
                    if not _domain_admits(domain_of(var), info.pinned):
                        return False
                info.candidates = [info.pinned]
                continue
        # Unpinned: intersect the members' domains with the literals.
        members = info.members
        base = domain_of(members[0])
        base_size = base.size()
        doms = None
        if len(members) > 1:
            doms = [base]
            unbounded = base_size is None
            for var in members[1:]:
                d = domain_of(var)
                size = d.size()
                if size is None:
                    unbounded = True
                elif base_size is None or size < base_size:
                    base, base_size = d, size
                doms.append(d)
            if unbounded and base_size is None:
                continue  # candidates stay None: outside the fast fragment
        elif base_size is None:
            continue  # candidates stay None: outside the fast fragment
        if base_size > _CANDIDATE_BUDGET:
            continue
        if group is None and doms is None and isinstance(base, FiniteDomain):
            # No literals on a lone variable: candidates are exactly the
            # domain, precomputed on the domain object (non-empty by
            # FiniteDomain's constructor, so never an UNSAT signal).
            info.candidates = base.sorted_raw()
            continue
        candidates = []
        try:
            for value in base.raw_values():
                if group is not None and not _value_satisfies(group, value):
                    continue
                if doms is not None:
                    admitted = True
                    for d in doms:
                        if d is not base and not _domain_admits(d, value):
                            admitted = False
                            break
                    if not admitted:
                        continue
                candidates.append(value)
        except TypeError:
            continue  # incomparable payloads: no conclusion for this class
        if not candidates:
            return False  # exact intersection is empty: UNSAT
        info.candidates = candidates
    return None


def _linear_profile(
    atom: LinearAtom, uf: _UnionFind, classes: Dict[Term, _Class]
) -> Optional[Tuple[float, List[Tuple[Term, float, List[int]]]]]:
    """Resolve a linear atom against the classes.

    Returns ``(pinned_part, free)`` where ``free`` lists
    ``(rep, coeff, int_candidates)`` per unpinned class (coefficients
    merged across members of one class), or ``None`` when any unpinned
    class lacks an all-integer candidate list — outside the fragment.
    """
    pinned_part = 0.0
    merged: Dict[Term, float] = {}
    for var, coeff in atom.coeffs:
        rep = uf.find(var)
        info = classes[rep]
        if info.pinned is not None:
            value = info.pinned
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return None
            pinned_part += coeff * value
        else:
            merged[rep] = merged.get(rep, 0.0) + coeff
    free: List[Tuple[Term, float, List[int]]] = []
    for rep, coeff in merged.items():
        if coeff == 0:
            continue
        cands = classes[rep].candidates
        if cands is None or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in cands
        ):
            return None
        free.append((rep, coeff, sorted(cands)))
    return pinned_part, free


def _linear_unsat(atom: LinearAtom, pinned_part: float,
                  free: List[Tuple[Term, float, List[int]]]) -> bool:
    """Bound check: is the atom unachievable over the candidate ranges?"""
    lo = hi = pinned_part
    for _, coeff, cands in free:
        lo += coeff * (cands[0] if coeff > 0 else cands[-1])
        hi += coeff * (cands[-1] if coeff > 0 else cands[0])
    bound = atom.bound
    if atom.op == "=":
        return bound < lo or bound > hi
    if atom.op == "!=":
        return lo == hi == bound
    if atom.op == "<=":
        return lo > bound
    if atom.op == "<":
        return lo >= bound
    if atom.op == ">=":
        return hi < bound
    return hi <= bound  # ">"


def _contiguous(cands: List[int]) -> bool:
    return cands[-1] - cands[0] + 1 == len(cands)


def _solve_linear(atom: LinearAtom, pinned_part: float,
                  free: List[Tuple[Term, float, List[int]]],
                  choices: Dict[Term, object]) -> bool:
    """Greedy witness for one linear atom over unit-coefficient classes.

    Only attempts the fragment where every free class has coefficient 1
    and a contiguous integer candidate range (the §4 failure encodings:
    bool link variables under ``Σ x̄ᵢ op k``).  Returns False on any
    shape it does not handle — the caller falls back; a wrong choice is
    caught by the final ``evaluate`` verification either way.
    """
    if any(coeff != 1 or not _contiguous(cands) for _, coeff, cands in free):
        return False
    if any(rep in choices for rep, _, _ in free):
        return False  # already fixed by an earlier atom: just verify later
    lo_sum = pinned_part + sum(cands[0] for _, _, cands in free)
    hi_sum = pinned_part + sum(cands[-1] for _, _, cands in free)
    op, bound = atom.op, atom.bound
    if op in ("=", "!=") and float(bound).is_integer():
        bound = int(bound)
    if op == "=":
        if not isinstance(bound, int) or not (lo_sum <= bound <= hi_sum):
            return False
        surplus = bound - lo_sum
        for rep, _, cands in free:
            step = min(surplus, cands[-1] - cands[0])
            choices[rep] = cands[0] + step
            surplus -= step
        return surplus == 0
    if op in ("<=", "<"):
        if not _cmp(op, lo_sum, bound):
            return False
        for rep, _, cands in free:
            choices[rep] = cands[0]
        return True
    if op in (">=", ">"):
        if not _cmp(op, hi_sum, bound):
            return False
        for rep, _, cands in free:
            choices[rep] = cands[-1]
        return True
    # "!=": all-low unless that lands exactly on the bound.
    total = lo_sum
    picks = {rep: cands[0] for rep, _, cands in free}
    if total == bound:
        for rep, _, cands in free:
            if cands[-1] > cands[0]:
                picks[rep] = cands[0] + 1
                total += 1
                break
        else:
            return False
    choices.update(picks)
    return True


def _solve_conjunction(
    children: Sequence[Condition], domains: DomainMap
):
    """Decide a flat conjunction of atoms against the domain map.

    Returns ``_UNSAT``, a witness dict ``{CVariable: Constant}``, or
    ``None`` (no conclusion).  Every UNSAT return is a pointwise
    refutation; the witness is verified by the caller.
    """
    uf = _UnionFind()
    seen_vars: Dict[CVariable, None] = {}
    var_const: List[Tuple[CVariable, str, object]] = []
    neq_pairs: List[Tuple[Term, Term]] = []
    order_edges: List[Tuple[Term, Term, bool]] = []
    linear: List[LinearAtom] = []

    queue = list(children)
    i = 0
    while i < len(queue):
        child = queue[i]
        i += 1
        if isinstance(child, FalseCond):
            return _UNSAT
        if isinstance(child, TrueCond):
            continue
        if isinstance(child, And):
            queue.extend(child.children)
            continue
        if isinstance(child, Or):
            return None  # caller case-splits; reaching here is a miss
        if isinstance(child, LinearAtom):
            linear.append(child)
            for var, _ in child.coeffs:
                seen_vars.setdefault(var, None)
            continue
        if not isinstance(child, Comparison):
            return None
        lhs, op, rhs = child.lhs, child.op, child.rhs
        if isinstance(lhs, Constant) and isinstance(rhs, CVariable):
            lhs, op, rhs = rhs, _FLIPPED_OP[op], lhs
        if isinstance(lhs, CVariable) and isinstance(rhs, Constant):
            var_const.append((lhs, op, rhs.value))
            seen_vars.setdefault(lhs, None)
        elif isinstance(lhs, CVariable) and isinstance(rhs, CVariable):
            seen_vars.setdefault(lhs, None)
            seen_vars.setdefault(rhs, None)
            if op == "=":
                uf.union(lhs, rhs)
            elif op == "!=":
                neq_pairs.append((lhs, rhs))
            elif op == "<":
                order_edges.append((lhs, rhs, True))
            elif op == "<=":
                order_edges.append((lhs, rhs, False))
            elif op == ">":
                order_edges.append((rhs, lhs, True))
            elif op == ">=":
                order_edges.append((rhs, lhs, False))
        else:
            return None  # program variables / exotic terms: not ours

    # Build the equivalence classes and pool their constant literals.
    classes: Dict[Term, _Class] = {}
    for var in seen_vars:
        rep = uf.find(var)
        info = classes.get(rep)
        if info is None:
            classes[rep] = info = _Class([])
        info.members.append(var)
    for var, op, value in var_const:
        rep = uf.find(var)
        info = classes[rep]
        if info.group is None:
            anchor = rep if isinstance(rep, CVariable) else CVariable("_class")
            info.group = _Group(anchor)
        info.group.add(op, value)

    if _atomize(classes, domains) is False:
        return _UNSAT

    # Var-var disequality and order facts between classes.
    loose_edges = False  # some edge touches an unpinned class
    for a, b in neq_pairs:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return _UNSAT
        va, vb = classes[ra].pinned, classes[rb].pinned
        if va is not None and vb is not None:
            if va == vb:
                return _UNSAT
        else:
            loose_edges = True
    for lo, hi, strict in order_edges:
        rlo, rhi = uf.find(lo), uf.find(hi)
        if rlo == rhi and strict:
            return _UNSAT
        vlo, vhi = classes[rlo].pinned, classes[rhi].pinned
        if vlo is not None and vhi is not None:
            try:
                if not _cmp("<" if strict else "<=", vlo, vhi):
                    return _UNSAT
            except TypeError:
                loose_edges = True
        else:
            loose_edges = True
    if _strict_cycle(order_edges, uf):
        return _UNSAT

    # Linear atoms: achievable-sum bound checks (sound UNSAT) ...
    profiles = []
    for atom in linear:
        profile = _linear_profile(atom, uf, classes)
        if profile is not None:
            pinned_part, free = profile
            if _linear_unsat(atom, pinned_part, free):
                return _UNSAT
        profiles.append(profile)

    # ... then witness construction (verified by the caller).
    if loose_edges:
        return None
    choices: Dict[Term, object] = {}
    for atom, profile in zip(linear, profiles):
        if profile is None:
            continue  # unverifiable shape: let evaluate() arbitrate
        pinned_part, free = profile
        _solve_linear(atom, pinned_part, free, choices)
    witness: Dict[CVariable, Constant] = {}
    for rep, info in classes.items():
        if info.pinned is not None:
            value = info.pinned
        elif rep in choices:
            value = choices[rep]
        elif info.candidates:
            value = info.candidates[0]
        else:
            return None  # no exact candidate set: cannot construct
        for var in info.members:
            witness[var] = Constant(value)
    return witness


def _candidate_classes(
    plain: Sequence[Condition], domains: DomainMap
) -> Optional[List[Tuple[List[CVariable], List]]]:
    """Atomize plain conjuncts into (class members, exact candidates).

    Each equivalence class (union-find over ``var = var`` chains) gets
    the *exact* list of values its members may take — the intersection
    of every member's declared finite domain with the pooled
    ``var op const`` literals.  Three narrowing sources combine:

    * ``var = const`` literals pin a class to one value;
    * the domain/literal intersection itself may be a singleton;
    * linear atoms achievable only at an extreme of their candidate
      ranges (``Σ x̄ᵢ = k`` where the already-pinned part leaves zero
      slack — the §4 shape where a pinned failure plus ``Σ = 1`` forces
      every other link variable to 0), propagated to a fixpoint.

    Soundness invariant: any satisfying assignment (over the declared
    domains) gives every class a value from its candidate list, and one
    value per class (members are equal).  An empty list is therefore a
    proof of UNSAT (``u = 1 ∧ u = 0``, or a pin outside a member's
    domain): the result is then just that one empty class.  Returns
    ``None`` when some class's exact candidate set cannot be computed
    (unbounded domain, over budget, or a shape outside the fragment).
    """
    uf = _UnionFind()
    seen_vars: Dict[CVariable, None] = {}
    var_const: List[Tuple[CVariable, str, object]] = []
    linear: List[LinearAtom] = []
    for child in plain:
        if isinstance(child, TrueCond):
            continue
        if isinstance(child, LinearAtom):
            linear.append(child)
            for var, _ in child.coeffs:
                seen_vars.setdefault(var, None)
            continue
        if not isinstance(child, Comparison):
            return None
        lhs, op, rhs = child.lhs, child.op, child.rhs
        if isinstance(lhs, Constant) and isinstance(rhs, CVariable):
            lhs, op, rhs = rhs, _FLIPPED_OP[op], lhs
        if isinstance(lhs, CVariable) and isinstance(rhs, Constant):
            seen_vars.setdefault(lhs, None)
            var_const.append((lhs, op, rhs.value))
        elif isinstance(lhs, CVariable) and isinstance(rhs, CVariable):
            seen_vars.setdefault(lhs, None)
            seen_vars.setdefault(rhs, None)
            if op == "=":
                uf.union(lhs, rhs)
            # != / < / ... never force values; evaluate re-checks them.
        else:
            return None
    # With no var=var chains every variable is its own class — skip the
    # union-find lookups entirely (the dominant Table-4 shape).
    find = uf.find if uf._parent else _identity
    classes: Dict[Term, _Class] = {}
    for var in seen_vars:
        rep = find(var)
        info = classes.get(rep)
        if info is None:
            classes[rep] = info = _Class([])
        info.members.append(var)
    for var, op, value in var_const:
        info = classes[find(var)]
        if info.group is None:
            info.group = _Group(var)
        info.group.add(op, value)

    # Per-class exact candidate list (pinned classes get a singleton).
    # Plain loops throughout: this runs per insert on the dedup hot
    # path, where generator-expression frames dominate at these sizes.
    domain_of = domains.domain_of
    numeric_ok: Dict[Term, bool] = {}
    for rep, info in classes.items():
        group = info.group
        if group is not None and group.eqs and (
            # Lone equality literal: trivially consistent, no need to run
            # the full tightening pass (the dominant Table-4 shape).
            (len(group.eqs) == 1
             and not group.neqs and not group.lowers and not group.uppers)
            or group.tighten_and() is not None
        ):
            value = group.eqs[0]
            for v in info.members:
                if not _domain_admits(domain_of(v), value):
                    return [(info.members, [])]  # pin outside a domain
            info.candidates = [value]
            numeric_ok[rep] = isinstance(value, (int, float)) and not isinstance(
                value, bool
            )
            continue
        members = info.members
        base = domain_of(members[0])
        base_size = base.size()
        if base_size is None:
            return None
        doms = None
        if len(members) > 1:
            doms = [base]
            for v in members[1:]:
                d = domain_of(v)
                size = d.size()
                if size is None:
                    return None
                if size < base_size:
                    base, base_size = d, size
                doms.append(d)
        if base_size > _CANDIDATE_BUDGET:
            return None
        if group is None and doms is None and isinstance(base, FiniteDomain):
            # A lone variable with no literals on it: the candidate list
            # is the whole (sorted-when-numeric) domain, precomputed on
            # the domain object — no per-insert rescan.
            info.candidates = base.sorted_raw()
            numeric_ok[rep] = base.numeric
            continue
        candidates = []
        numeric = True
        try:
            for v in base.raw_values():
                if group is not None and not _value_satisfies(group, v):
                    continue
                if doms is not None:
                    admitted = True
                    for d in doms:
                        if d is not base and not _domain_admits(d, v):
                            admitted = False
                            break
                    if not admitted:
                        continue
                candidates.append(v)
                if numeric and (
                    not isinstance(v, (int, float)) or isinstance(v, bool)
                ):
                    numeric = False
        except TypeError:
            return None
        if not candidates:
            return [(members, [])]  # literals leave the class no value
        if numeric and len(candidates) > 1:
            candidates.sort()
        info.candidates = candidates
        numeric_ok[rep] = numeric

    # Zero-slack propagation through linear atoms: when an atom is
    # achievable only with every multi-candidate class at one extreme of
    # its (sorted numeric) candidate range, those extremes become pinned
    # too.  Loop to a fixpoint (each pass pins at least one more class
    # or stops).  Numeric-ness per class is computed once — propagation
    # only ever shrinks a candidate list to one of its own values.
    changed = bool(linear)
    while changed:
        changed = False
        for atom in linear:
            pinned_part = 0.0
            merged: Dict[Term, float] = {}
            usable = True
            for var, coeff in atom.coeffs:
                rep = find(var)
                if not numeric_ok[rep]:
                    usable = False
                    break
                cands = classes[rep].candidates
                if len(cands) == 1:
                    pinned_part += coeff * cands[0]
                else:
                    merged[rep] = merged.get(rep, 0.0) + coeff
            if not usable or not merged:
                continue
            if any(coeff == 0 for coeff in merged.values()):
                continue
            lo = hi = pinned_part
            for rep, coeff in merged.items():
                cands = classes[rep].candidates
                lo += coeff * (cands[0] if coeff > 0 else cands[-1])
                hi += coeff * (cands[-1] if coeff > 0 else cands[0])
            op, bound = atom.op, atom.bound
            at_min = (op == "=" and bound == lo) or (op == "<=" and bound == lo)
            at_max = (op == "=" and bound == hi) or (op == ">=" and bound == hi)
            if at_min == at_max:  # neither extreme (lo < hi strictly here)
                continue
            for rep, coeff in merged.items():
                cands = classes[rep].candidates
                take_low = (coeff > 0) == at_min
                classes[rep].candidates = [cands[0] if take_low else cands[-1]]
                changed = True

    return [(info.members, info.candidates) for info in classes.values()]


#: Maximum assignments enumerated over a condition's atomized candidate
#: space before the fast path gives up (falls back to the backends).
_PRODUCT_BUDGET = 64


def _candidate_space(
    cvars: Set[CVariable],
    plain: Sequence[Condition],
    domains: DomainMap,
) -> Optional[List[Tuple[List[CVariable], List]]]:
    """The full atomized space covering ``cvars``: classes + loose vars.

    Variables in ``cvars`` not mentioned by any plain conjunct get their
    whole (finite) domain as candidates.  Returns ``None`` when the
    space is not exactly computable or its product exceeds
    ``_PRODUCT_BUDGET``.  A space holding an empty class has no
    assignment at all: the conjuncts are UNSAT.
    """
    space = _candidate_classes(plain, domains)
    if space is None:
        return None
    product = 1
    covered = set()
    for members, values in space:
        if not values:
            return space  # no model: loose variables cannot add one
        covered.update(members)
        product *= len(values)
        if product > _PRODUCT_BUDGET:
            return None
    # Budget-check the loose variables on domain *sizes* before
    # materializing any value list — an over-budget product must cost
    # nothing (at large RIB sizes whole-domain lists run to hundreds of
    # values, and giving up after building them dominated this path).
    domain_of = domains.domain_of
    loose = []
    for var in cvars:
        if var in covered:
            continue
        domain = domain_of(var)
        size = domain.size()
        if size is None or size > _CANDIDATE_BUDGET:
            return None
        product *= size
        if product > _PRODUCT_BUDGET:
            return None
        loose.append((var, domain))
    for var, domain in loose:
        space.append(([var], list(domain.raw_values())))
    return space


#: Interned Constants for candidate payloads.  Candidate lists repeat
#: massively across fast-path calls (mostly {0, 1} link-state values),
#: so wrapper construction amortizes to a dict hit.  Keyed by payload
#: type too: 1 and True pool separately even though they compare equal.
_CONST_CACHE: Dict[Tuple[type, object], Constant] = {}


def _const(value) -> Constant:
    try:
        key = (value.__class__, value)
        const = _CONST_CACHE.get(key)
    except TypeError:  # unhashable payload (nested-list tuple)
        return Constant(value)
    if const is None:
        if len(_CONST_CACHE) > 4096:
            _CONST_CACHE.clear()
        const = Constant(value)
        _CONST_CACHE[key] = const
    return const


def _assignments(space: List[Tuple[List[CVariable], List]]):
    """Yield every total assignment over the atomized candidate space."""
    consts = [[_const(v) for v in values] for _, values in space]
    for combo in itertools.product(*consts):
        assignment: Dict[CVariable, Constant] = {}
        for (members, _), const in zip(space, combo):
            for var in members:
                assignment[var] = const
        yield assignment


def _search(canon: Condition, domains: DomainMap, depth: int):
    """Recursive decision: ``_UNSAT``, a witness dict, or ``None``."""
    if isinstance(canon, TrueCond):
        return {}
    if isinstance(canon, FalseCond):
        return _UNSAT
    if isinstance(canon, (Comparison, LinearAtom)):
        return _solve_conjunction([canon], domains)
    if depth >= _DEPTH_BUDGET:
        return None
    if isinstance(canon, Or):
        if len(canon.children) > _SPLIT_BUDGET:
            return None
        all_unsat = True
        for child in canon.children:
            sub = _search(child, domains, depth + 1)
            if isinstance(sub, dict):
                return sub
            if sub is not _UNSAT:
                all_unsat = False
        return _UNSAT if all_unsat else None
    if isinstance(canon, And):
        disjunctions = [c for c in canon.children if isinstance(c, Or)]
        plain = [c for c in canon.children if not isinstance(c, Or)]
        if not disjunctions:
            return _solve_conjunction(plain, domains)
        # Atomized-space shortcut: when the plain conjuncts narrow every
        # variable of the condition to a small exact candidate space,
        # exhaustive evaluation over that space decides the whole
        # conjunction — Or children and all — regardless of how large
        # the case-split product is.  (This is the dominant q6/q8
        # shape: per-path equalities plus the §4 failure-pattern
        # disjunctions over the same variables; the equalities shrink
        # the space to a handful of assignments.)  Completeness: every
        # model assigns each class a value from its candidate list, so
        # an exhausted space with no accepting assignment is UNSAT.
        space = _candidate_space(set(canon.cvariables()), plain, domains)
        if space is not None:
            try:
                for assignment in _assignments(space):
                    if canon.evaluate(assignment):
                        return assignment
                return _UNSAT
            except (KeyError, TypeError):
                pass
        splits = 1
        for dis in disjunctions:
            splits *= len(dis.children)
        if splits > _SPLIT_BUDGET:
            return None
        all_unsat = True
        for combo in itertools.product(*[d.children for d in disjunctions]):
            arm = canonicalize(conjoin(plain + list(combo)))
            sub = _search(arm, domains, depth + 1)
            if isinstance(sub, dict):
                return sub
            if sub is not _UNSAT:
                all_unsat = False
        return _UNSAT if all_unsat else None
    return None


def fast_sat(
    condition: Condition,
    domains: DomainMap,
    assume_canonical: bool = False,
) -> Optional[bool]:
    """Semi-decide satisfiability under the declared domains.

    ``True``/``False`` are definite (see the module docstring for the
    soundness argument); ``None`` sends the caller to the complete
    backends.  Pass ``assume_canonical=True`` when the input is already
    in the canonical normal form of :mod:`repro.solver.canonical` (the
    memoized solver path) to skip re-canonicalization.
    """
    canon = condition if assume_canonical else canonicalize(condition)
    if isinstance(canon, TrueCond):
        return True
    if isinstance(canon, FalseCond):
        return False
    result = _search(canon, domains, 0)
    if result is _UNSAT:
        return False
    if not isinstance(result, dict):
        return None
    # Verify the witness on the full condition: fill variables the
    # chosen branch left free with arbitrary in-domain values, then
    # require evaluate() to accept.  A rejected or unevaluable witness
    # is a miss, never a verdict.
    assignment = dict(result)
    for var in canon.cvariables():
        if var in assignment:
            continue
        domain = domains.domain_of(var)
        if domain.is_finite:
            assignment[var] = domain.values()[0]
        else:
            assignment[var] = Constant(0)
    try:
        satisfied = canon.evaluate(assignment)
    except (KeyError, TypeError):
        return None
    return True if satisfied else None


#: Countermodel cache for :func:`fast_implies`, keyed per antecedent.
#: The c-table dedup loop re-asks the *same* antecedent against a
#: growing disjunction of stored conditions; an assignment that
#: satisfied the antecedent while falsifying the old consequent usually
#: still falsifies the new one, and re-checking a candidate countermodel
#: is a handful of ``evaluate`` calls instead of a full atomization.
#: The cache is deliberately global (not per DomainMap): every reuse is
#: re-verified from scratch — antecedent satisfaction, consequent
#: falsification, and membership in the *caller's current* domains — so
#: a witness recorded under one domain map is safely consulted under
#: another, and a stale entry can only cost a fallthrough, never a
#: wrong answer.
_WITNESS_CACHE: Dict[Condition, Dict[CVariable, Constant]] = {}
_WITNESS_LIMIT = 8192


def _check_witness(
    witness: Dict[CVariable, Constant],
    antecedent: Condition,
    consequent: Condition,
    domains: DomainMap,
) -> bool:
    """Whether ``witness`` is a valid countermodel for ``A ⊨ C`` now.

    Validity is re-established in full: the assignment must falsify the
    consequent, satisfy the antecedent, and lie inside every variable's
    *current* declared domain (the map may have been re-declared since
    the witness was recorded).  ``KeyError``/``TypeError`` — a new
    variable or an incomparable payload — simply reject the witness.
    """
    try:
        if consequent.evaluate(witness) or not antecedent.evaluate(witness):
            return False
    except (KeyError, TypeError):
        return False
    domain_of = domains.domain_of
    for var, const in witness.items():
        if not _domain_admits(domain_of(var), const.value):
            return False
    return True


def _remember_witness(
    antecedent: Condition,
    witness: Dict[CVariable, Constant],
) -> None:
    if len(_WITNESS_CACHE) >= _WITNESS_LIMIT:
        _WITNESS_CACHE.clear()
    _WITNESS_CACHE[antecedent] = witness


def fast_implies(
    antecedent: Condition,
    consequent: Condition,
    domains: DomainMap,
) -> Optional[bool]:
    """Semi-decide entailment without canonicalizing either side.

    The c-table hot path (:meth:`CTable` dedup / ``is_new``) asks
    ``new ⊨ Or(stored)`` for conditions whose plain equality conjuncts
    narrow the variables to a small exact candidate space — the §4
    per-path shape.  Entailment is then decided exhaustively: the
    implication holds iff no assignment in the antecedent's atomized
    space satisfies the antecedent but falsifies the consequent.
    Completeness of the space (every model of the antecedent lies in
    it, and it covers the consequent's variables too) makes both the
    ``True`` and the ``False`` answer definite; a ``False`` comes with
    an explicit countermodel having been evaluated.

    Returns ``None`` (no conclusion) on any other shape; the caller
    proceeds with the memoized conjoin-and-refute path unchanged.
    """
    witness = _WITNESS_CACHE.get(antecedent)
    if witness is not None and _check_witness(
        witness, antecedent, consequent, domains
    ):
        return False  # the cached countermodel still refutes A ⊨ C
    return _space_entails(antecedent, consequent, domains)


def raw_sat(condition: Condition, domains: DomainMap) -> Optional[bool]:
    """Semi-decide satisfiability of a raw (uncanonicalized) condition.

    sat(A) = not (A ⊨ ⊥), decided by the same atomized candidate-space
    check :func:`fast_implies` runs: definite when the condition's plain
    conjuncts narrow every variable to a small exact space, ``None``
    otherwise.  This is the solver's first rung, tried before any
    canonical form is built.
    """
    entailed = _space_entails(condition, FALSE, domains)
    return None if entailed is None else not entailed


def _space_entails(
    antecedent: Condition,
    consequent: Condition,
    domains: DomainMap,
) -> Optional[bool]:
    """``A ⊨ C`` by exhausting the antecedent's atomized candidate space.

    ``True`` when no assignment in the space satisfies ``A`` and
    falsifies ``C`` (an empty space means ``A`` has no model); ``False``
    with the countermodel remembered for :func:`fast_implies`; ``None``
    when the space is not exactly computable.
    """
    children = (
        antecedent.children if isinstance(antecedent, And) else (antecedent,)
    )
    plain: List[Condition] = []
    residue: List[Condition] = []
    for child in children:
        if isinstance(child, FalseCond):
            return True  # ⊥ entails everything
        if isinstance(child, TrueCond):
            continue
        if isinstance(child, Comparison):
            plain.append(child)
            # Space assignments satisfy the pooled var-const literals
            # and var = var chains by construction (candidates are
            # filtered through the class group; class members share one
            # constant) — only the shapes the atomizer does not consume
            # as constraints need re-evaluation per assignment.
            if (
                isinstance(child.lhs, CVariable)
                and isinstance(child.rhs, CVariable)
                and child.op != "="
            ):
                residue.append(child)
            continue
        if isinstance(child, LinearAtom):
            plain.append(child)
            residue.append(child)
            continue
        # Or / Not / nested And children narrow nothing by themselves;
        # they are re-checked per assignment below, so skipping them in
        # the atomization is sound.
        residue.append(child)
    cvars = antecedent.cvariables() | consequent.cvariables()
    space = _candidate_space(cvars, plain, domains)
    if space is None:
        return None
    try:
        singleton = True
        for _, values in space:
            if len(values) != 1:
                if not values:
                    return True  # an empty class: A has no model
                singleton = False
                break
        if singleton:
            # Dominant Table-4 shape: the equalities pin every class, so
            # the space is one assignment — build and test it directly
            # (no product/generator machinery on the per-insert path).
            assignment = {}
            for members, values in space:
                const = _const(values[0])
                for var in members:
                    assignment[var] = const
            for child in residue:
                if not child.evaluate(assignment):
                    return True  # antecedent unsat: entails everything
            if consequent.evaluate(assignment):
                return True
            _remember_witness(antecedent, assignment)
            return False
        for assignment in _assignments(space):
            ok = True
            for child in residue:
                if not child.evaluate(assignment):
                    ok = False
                    break
            if ok and not consequent.evaluate(assignment):
                _remember_witness(antecedent, assignment)
                return False
        return True  # no countermodel in the complete space (or A unsat)
    except (KeyError, TypeError):
        return None

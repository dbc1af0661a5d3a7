"""Canonicalizer properties and hash-consing.

The load-bearing claims of :mod:`repro.solver.canonical`:

* **equivalence** — ``canonical(c)`` has the same models as ``c``;
* **idempotence** — canonicalizing a canonical form is the identity;
* **permutation invariance** — reordering ∧/∨ children (at any depth)
  yields the identical canonical form;
* **interning** — equal canonical forms are the *same object*, and the
  governor's size ceiling fires before anything reaches the table.
"""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctable.condition import (
    And,
    Comparison,
    FALSE,
    LinearAtom,
    Not,
    Or,
    TRUE,
    conjoin,
    disjoin,
    eq,
    ne,
)
from repro.ctable.terms import Constant, CVariable
from repro.robustness.errors import ConditionTooLarge
from repro.robustness.governor import Governor
from repro.solver.canonical import InternTable, canonicalize
from repro.solver.domains import DomainMap, IntRange, Unbounded
from repro.solver.interface import ConditionSolver
from repro.solver.memo import MemoTable

X, Y, Z = CVariable("x"), CVariable("y"), CVariable("z")
DOMAINS = DomainMap({v: IntRange(0, 3) for v in (X, Y, Z)})


def _solver():
    # memo=None: the solver must not consult the machinery under test.
    return ConditionSolver(DOMAINS, memo=None)


class TestRewrites:
    """Pinned examples of the individual normalization rules."""

    def test_interval_tightening_to_equality(self):
        assert canonicalize(conjoin([eq(X, 2), Comparison(X, ">=", Constant(1))])) == eq(X, 2)
        got = canonicalize(
            conjoin([Comparison(X, ">=", Constant(2)), Comparison(X, "<=", Constant(2))])
        )
        assert got == eq(X, 2)

    def test_contradictory_literals_collapse(self):
        assert canonicalize(conjoin([eq(X, 1), eq(X, 2)])) is FALSE
        assert canonicalize(conjoin([eq(X, 1), ne(X, 1)])) is FALSE
        assert canonicalize(
            conjoin([Comparison(X, ">", Constant(2)), Comparison(X, "<", Constant(1))])
        ) is FALSE

    def test_tautological_disjunction_collapses(self):
        assert canonicalize(disjoin([ne(X, 1), ne(X, 2)])) is TRUE
        assert canonicalize(disjoin([eq(X, 1), ne(X, 1)])) is TRUE
        assert canonicalize(
            disjoin([Comparison(X, "<=", Constant(2)), Comparison(X, ">", Constant(1))])
        ) is TRUE

    def test_punctured_line_becomes_disequality(self):
        got = canonicalize(
            disjoin([Comparison(X, "<", Constant(2)), Comparison(X, ">", Constant(2))])
        )
        assert got == ne(X, 2)

    def test_subsumed_bound_dropped(self):
        got = canonicalize(
            conjoin([Comparison(X, ">=", Constant(1)), Comparison(X, ">", Constant(2))])
        )
        assert got == Comparison(X, ">", Constant(2))

    def test_strict_bound_absorbs_disequality(self):
        # x ≥ 1 ∧ x ≠ 1  →  x > 1
        got = canonicalize(conjoin([Comparison(X, ">=", Constant(1)), ne(X, 1)]))
        assert got == Comparison(X, ">", Constant(1))

    def test_complementary_atoms(self):
        assert canonicalize(conjoin([eq(X, 1), Not(eq(X, 1))])) is FALSE
        assert canonicalize(disjoin([eq(X, 1), Not(eq(X, 1))])) is TRUE

    def test_negation_pushed_into_atoms(self):
        got = canonicalize(Not(conjoin([eq(X, 1), eq(Y, 2)])))
        assert got == canonicalize(disjoin([ne(X, 1), ne(Y, 2)]))

    def test_absorption(self):
        a, b = eq(X, 1), eq(Y, 2)
        assert canonicalize(conjoin([a, disjoin([a, b])])) == a
        assert canonicalize(disjoin([a, conjoin([a, b])])) == a

    def test_constant_folding(self):
        assert canonicalize(Comparison(Constant(1), "<", Constant(2))) is TRUE
        assert canonicalize(LinearAtom([], "=", 1)) is FALSE

    def test_var_var_orientation(self):
        assert canonicalize(Comparison(Y, ">", X)) == canonicalize(Comparison(X, "<", Y))

    def test_incomparable_constants_keep_order_atoms(self):
        # Mixed str/int constants: order reasoning must not fire, but
        # equality logic still does.
        cond = conjoin([Comparison(X, ">", Constant("a")), eq(X, 1), eq(X, 2)])
        assert canonicalize(cond) is FALSE
        kept = canonicalize(conjoin([Comparison(X, ">", Constant("a")), ne(X, 1)]))
        assert Comparison(X, ">", Constant("a")) in kept.children


class TestInterning:
    def test_equal_forms_share_identity(self):
        table = InternTable()
        a = canonicalize(conjoin([eq(X, 2), Comparison(X, ">=", Constant(1))]), intern=table)
        b = canonicalize(eq(X, 2), intern=table)
        assert a is b

    def test_nested_nodes_interned(self):
        table = InternTable()
        a = canonicalize(conjoin([eq(X, 1), eq(Y, 2)]), intern=table)
        b = canonicalize(conjoin([eq(Y, 2), eq(X, 1)]), intern=table)
        assert a is b

    def test_bounded_eviction(self):
        table = InternTable(max_entries=2)
        for i in range(5):
            canonicalize(eq(X, i), intern=table)
        assert len(table) <= 2
        assert table.evictions >= 3

    def test_singletons_pass_through(self):
        table = InternTable()
        assert table.intern(TRUE) is TRUE
        assert table.intern(FALSE) is FALSE
        assert len(table) == 0

    def test_no_reference_cycles(self):
        """Canonicalizing leaves no garbage only a full collection frees
        (a self-recursive closure would keep each intern table alive)."""
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for i in range(100):
                cond = disjoin(
                    [conjoin([eq(X, i), ne(Y, 2)]), conjoin([eq(Z, 3), Not(eq(X, i + 1))])]
                )
                canonicalize(cond, intern=InternTable())
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_size_ceiling_fires_before_interning(self):
        governor = Governor(max_condition_atoms=2, on_budget="fail")
        governor.start()
        memo = MemoTable()
        solver = ConditionSolver(DOMAINS, governor=governor, memo=memo)
        big = conjoin([eq(X, 1), eq(Y, 2), ne(Z, 0)])
        with pytest.raises(ConditionTooLarge):
            solver.sat_verdict(big)
        assert len(memo.interner) == 0
        assert len(memo) == 0


# -- property-based ----------------------------------------------------------


def conditions():
    var_const = st.builds(
        lambda v, op, c: Comparison(v, op, Constant(c)),
        st.sampled_from([X, Y, Z]),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(min_value=0, max_value=3),
    )
    var_var = st.builds(
        lambda i, op: Comparison([X, Y, Z][i], op, [Y, Z, X][i]),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["=", "!=", "<", ">"]),
    )
    linear = st.builds(
        lambda vs, b: LinearAtom(list(vs), "<=", b),
        st.lists(st.sampled_from([X, Y, Z]), min_size=1, max_size=2, unique=True),
        st.integers(min_value=0, max_value=4),
    )
    atoms = st.one_of(var_const, var_var, linear)
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(lambda cs: conjoin(cs), st.lists(sub, min_size=1, max_size=3)),
            st.builds(lambda cs: disjoin(cs), st.lists(sub, min_size=1, max_size=3)),
            st.builds(Not, sub),
        ),
        max_leaves=8,
    )


@settings(max_examples=150, deadline=None)
@given(conditions())
def test_canonical_is_equivalent(cond):
    assert _solver().equivalent(cond, canonicalize(cond))


@settings(max_examples=150, deadline=None)
@given(conditions())
def test_canonical_is_idempotent(cond):
    canon = canonicalize(cond)
    assert canonicalize(canon) == canon


def _shuffle(cond, rng):
    if isinstance(cond, (And, Or)):
        children = [_shuffle(c, rng) for c in cond.children]
        rng.shuffle(children)
        return And(children) if isinstance(cond, And) else Or(children)
    if isinstance(cond, Not):
        return Not(_shuffle(cond.child, rng))
    return cond


@settings(max_examples=150, deadline=None)
@given(conditions(), st.integers(min_value=0, max_value=10_000))
def test_canonical_is_permutation_invariant(cond, seed):
    shuffled = _shuffle(cond, random.Random(seed))
    assert canonicalize(shuffled) == canonicalize(cond)


@settings(max_examples=80, deadline=None)
@given(conditions())
def test_interned_equals_plain(cond):
    assert canonicalize(cond, intern=InternTable()) == canonicalize(cond)

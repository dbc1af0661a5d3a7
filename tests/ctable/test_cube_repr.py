"""Representation independence of cube-encoded conditions.

:func:`~repro.ctable.condition.conjoin` keeps conjunctions of boolean
pins (plus at most one cardinality bound) as a lazy cube; everything
that reads a condition — equality, hashing, printing, pickling, the
checkpoint and snapshot serializers — must not be able to tell it from
the same conjunction built as a plain tree, for example one parsed back
from a journal on restart.  A conflicting cube is kept, never folded to
FALSE, so the ``prune=False`` ablation still prints it.
"""

import json
import pickle

import pytest

from repro.ctable.condition import And, LinearAtom, Or, conjoin, cube_of, eq
from repro.ctable.io import condition_from_obj, condition_to_obj, database_to_obj
from repro.ctable.table import CTable, CTuple, Database
from repro.ctable.terms import CVariable, Variable
from repro.faurelog.ast import Atom, Literal, Program, Rule
from repro.faurelog.evaluation import FaureEvaluator
from repro.robustness.checkpoint import table_to_obj
from repro.solver.domains import BOOL_DOMAIN, DomainMap
from repro.solver.interface import ConditionSolver

R = [CVariable(f"r{i}") for i in range(5)]


def _encoded():
    """Conditions built the hot-path way: nested conjoins of cubes."""
    path = conjoin([eq(R[0], 0), eq(R[1], 1)])
    hop = conjoin([eq(R[1], 1), eq(R[2], 0)])  # shares r1 = 1 with path
    joined = conjoin([path, hop])
    bound = LinearAtom(R[:4], "<=", 2)
    return [
        path,
        joined,
        conjoin([joined, bound]),
        conjoin([bound, conjoin([eq(R[3], 1), eq(R[4], 0)])]),
        conjoin([eq(R[0], 0), eq(R[0], 1)]),  # the conflict, kept as is
        conjoin([joined, conjoin([eq(R[2], 1), eq(R[4], 1)])]),
    ]


def _twins(condition):
    """The same conjunction as plain trees: read back from the interchange
    format (as a journal replay does), eagerly built over the same leaf
    objects, and unpickled."""
    return [
        condition_from_obj(condition_to_obj(condition)),
        And(list(condition.children)),
        pickle.loads(pickle.dumps(condition)),
    ]


@pytest.mark.parametrize("index", range(len(_encoded())))
def test_encoded_and_twin_agree(index):
    encoded = _encoded()[index]
    assert cube_of(encoded) is not None
    for twin in _twins(encoded):
        assert twin == encoded and encoded == twin
        assert hash(twin) == hash(encoded)
        assert str(twin) == str(encoded)
        assert repr(twin) == repr(encoded)
        assert condition_to_obj(twin) == condition_to_obj(encoded)
    # Pickle bytes also reflect which leaves are shared objects, so they
    # are compared between twins sharing the encoded condition's leaves.
    for twin in _twins(encoded)[1:]:
        assert pickle.dumps(twin) == pickle.dumps(encoded)


def test_tables_serialize_byte_identically():
    """Checkpoint payloads and snapshot bytes do not see the encoding."""
    encoded = CTable("T", ["k"])
    twins = CTable("T", ["k"])
    for i, condition in enumerate(_encoded()):
        encoded.add(CTuple([i], condition))
        twins.add(CTuple([i], _twins(condition)[0]))
    assert table_to_obj(encoded) == table_to_obj(twins)
    # The serve snapshot serializer, with the snapshot writer's settings.
    as_bytes = [
        json.dumps(database_to_obj(Database([t])), separators=(",", ":"), sort_keys=True)
        for t in (encoded, twins)
    ]
    assert as_bytes[0] == as_bytes[1]


def test_order_is_rendered_not_compared():
    """Conjunct order is kept for rendering; equality is that of the
    conjunct set, for cubes and for disjunctions over them alike."""
    a = conjoin([eq(R[0], 0), eq(R[1], 1)])
    b = conjoin([eq(R[1], 1), eq(R[0], 0)])
    assert str(a) != str(b)
    assert a == b and hash(a) == hash(b)
    assert Or([a, eq(R[2], 1)]) == Or([b, eq(R[2], 1)])


def test_conflicting_cube_is_kept_and_printed_without_pruning():
    """``u = 0 ∧ u = 1`` survives conjoin; only the solver refutes it."""
    u = CVariable("u")
    x = Variable("x")
    db = Database([
        CTable("A", ["c0"], [CTuple(["n"], eq(u, 0))]),
        CTable("B", ["c0"], [CTuple(["n"], eq(u, 1))]),
    ])
    program = Program([Rule(Atom("P", [x]), [Literal(Atom("A", [x])), Literal(Atom("B", [x]))])])
    solver = ConditionSolver(DomainMap({u: BOOL_DOMAIN}))
    kept = FaureEvaluator(db, solver=solver, prune=False).evaluate(program).table("P")
    assert [str(t) for t in kept] == ["(n)[(u\u0304 = 0 ∧ u\u0304 = 1)]"]
    pruned = FaureEvaluator(db, solver=solver).evaluate(program).table("P")
    assert len(pruned) == 0


def test_concurrent_encoding_and_rendering():
    """Serve threads encode and render conditions concurrently: every
    c-variable must get exactly one slot, and a lazily held conjunction
    must render the same conjunct tuple in every thread."""
    import sys
    import threading

    from repro.ctable.condition import _SLOTS, SLOT_VARS

    links = [CVariable(f"tl_{i}") for i in range(60)]
    chain = conjoin([eq(links[0], 1), eq(links[1], 0)])
    for i in range(2, 10):
        chain = conjoin([chain, eq(links[i], i % 2)])
    lazy = [conjoin([chain, eq(v, 1)]) for v in links[10:]]
    assert all(c._kids is None for c in lazy)  # held as cubes, not yet rendered
    own = [[CVariable(f"t{k}_{i}") for i in range(2000)] for k in range(8)]
    shared = [CVariable(f"ts_{i}") for i in range(2000)]
    rendered = [[] for _ in own]

    def work(k):
        for a, b in zip(own[k], shared):
            conjoin([eq(a, 1), eq(b, 0)])
        rendered[k] = [str(c) for c in lazy]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(own))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    for var in [v for vs in own for v in vs] + shared:
        assert SLOT_VARS[_SLOTS[var]] == var
    assert len(set(SLOT_VARS)) == len(SLOT_VARS)
    assert all(r == rendered[0] for r in rendered) and len(rendered[0]) == 50
    assert rendered[0] == [str(And(list(c.children))) for c in lazy]

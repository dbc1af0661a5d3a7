"""Terms, conditions, c-tables and their companions pickle faithfully.

The immutable ``__slots__`` hierarchy pickles via ``SlotPickleMixin``
(the ``copy`` module uses the same protocol), and the ``TRUE``/``FALSE``
singletons must survive as *the* singletons — the engine tests
conditions with ``is``.
"""

import pickle

from repro.ctable import CTable, CTuple, Database
from repro.ctable.condition import (
    And,
    Comparison,
    FALSE,
    LinearAtom,
    Not,
    Or,
    TRUE,
)
from repro.ctable.terms import Constant, CVariable, Variable
from repro.network.reachability import PatternQuery
from repro.robustness.faultinject import FaultPlan
from repro.solver import BOOL_DOMAIN, DomainMap


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_terms_roundtrip():
    for term in (Constant(3), Constant("A"), Variable("n1"), CVariable("x")):
        assert roundtrip(term) == term


def test_singletons_stay_singletons():
    assert roundtrip(TRUE) is TRUE
    assert roundtrip(FALSE) is FALSE
    # ... even nested inside a compound condition.
    cond = And([TRUE, Comparison(CVariable("x"), "=", Constant(1))])
    assert roundtrip(cond).children[0] is TRUE


def test_conditions_roundtrip():
    x, y = CVariable("x"), CVariable("y")
    conds = [
        Comparison(x, "=", Constant(1)),
        And([Comparison(x, "=", Constant(1)), Comparison(y, "!=", Constant(0))]),
        Or([Comparison(x, "<", y), Not(Comparison(y, ">=", Constant(2)))]),
        LinearAtom([x, y], "<=", 1),
    ]
    for cond in conds:
        back = roundtrip(cond)
        assert back == cond
        assert hash(back) == hash(cond)


def test_ctable_roundtrip():
    x = CVariable("x")
    table = CTable("T", ("a", "b"))
    table.add([Constant(1), Constant(2)], Comparison(x, "=", Constant(1)))
    table.add(CTuple((Constant(3), x), TRUE))
    back = roundtrip(table)
    assert back.name == table.name and back.schema == table.schema
    assert list(back) == list(table)
    # The dedup set must survive too: re-adding an existing tuple no-ops.
    assert not back.add([Constant(1), Constant(2)], Comparison(x, "=", Constant(1)))


def test_database_roundtrip():
    table = CTable("T", ("a",))
    table.add([Constant(1)])
    db = Database([table])
    assert list(roundtrip(db).table("T")) == list(table)


def test_pattern_query_roundtrip():
    q = PatternQuery(
        LinearAtom([CVariable("x"), CVariable("y")], "=", 1),
        name="T1",
        flow="10.0.0.0/24",
        source="A",
        dest="C",
    )
    assert roundtrip(q) == q


def test_domain_map_roundtrip():
    domains = DomainMap({CVariable("x"): BOOL_DOMAIN})
    back = roundtrip(domains)
    assert back.domain_of(CVariable("x")) == BOOL_DOMAIN


def test_fault_plan_roundtrip():
    plan = FaultPlan(timeout_every=3, failure_every=5, start_after=2)
    assert roundtrip(plan) == plan

"""Indexed storage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctable.condition import eq
from repro.ctable.table import CTable, CTuple, Database
from repro.ctable.terms import Constant, CVariable
from repro.engine.storage import ColumnIndex, IndexedTable, Storage
from repro.faurelog.valuation import unify_value

X = CVariable("x")


@pytest.fixture
def table():
    t = CTable("T", ["a", "b"])
    t.add([1, "p"])
    t.add([2, "q"])
    t.add([X, "r"], eq(X, 1))
    return t


class TestColumnIndex:
    def test_probe_returns_constants_and_wildcards(self, table):
        idx = ColumnIndex((0,))
        for tup in table:
            idx.insert(tup)
        hits = list(idx.probe(Constant(1)))
        assert len(hits) == 2  # the 1-row and the x̄ wildcard
        assert len(idx) == 3

    def test_probe_missing_constant_still_returns_wildcards(self, table):
        idx = ColumnIndex((0,))
        for tup in table:
            idx.insert(tup)
        hits = list(idx.probe(Constant(99)))
        assert len(hits) == 1

    def test_composite_key_probe(self, table):
        idx = ColumnIndex((0, 1))
        for tup in table:
            idx.insert(tup)
        assert [t.values for t in idx.probe((Constant(1), Constant("p")))] == [
            (Constant(1), Constant("p"))
        ]
        # x̄ sits in the wildcard bucket, but its constant "r" must agree
        assert [t.values[1] for t in idx.probe((Constant(5), Constant("r")))] == [
            Constant("r")
        ]
        assert list(idx.probe((Constant(1), Constant("q")))) == []

    def test_one_column_index_keys_on_the_bare_constant(self, table):
        """perfbench's traced run sizes probes through these attributes."""
        wrapped = IndexedTable(table)
        index = wrapped.index_on(0)
        assert len(index.by_constant.get(Constant(2), ())) == 1
        assert len(index.wildcard) == 1


class TestIndexedTable:
    def test_lazy_index_built_on_probe(self, table):
        wrapped = IndexedTable(table)
        hits = list(wrapped.candidates([Constant(2), None]))
        assert len(hits) == 2  # (2,q) + wildcard

    def test_index_maintained_on_insert(self, table):
        wrapped = IndexedTable(table)
        list(wrapped.candidates([Constant(1), None]))  # build index
        wrapped.add([1, "new"])
        hits = list(wrapped.candidates([Constant(1), None]))
        data = {tuple(v.value if not isinstance(v, CVariable) else "?" for v in t.values) for t in hits}
        assert (1, "new") in data

    def test_full_scan_without_constants(self, table):
        wrapped = IndexedTable(table)
        assert len(list(wrapped.candidates([None, None]))) == 3

    def test_most_selective_column_chosen(self, table):
        wrapped = IndexedTable(table)
        hits = list(wrapped.candidates([Constant(1), Constant("zzz")]))
        # b="zzz" has no matches: selective index returns nothing
        assert len(hits) == 0

    def test_duplicate_insert_not_double_indexed(self, table):
        wrapped = IndexedTable(table)
        wrapped.index_on(0)
        assert not wrapped.add([1, "p"])  # duplicate
        hits = list(wrapped.candidates([Constant(1), None]))
        assert len([h for h in hits if h.values[1] == Constant("p")]) == 1

    def test_one_index_per_bound_column_set(self, table):
        wrapped = IndexedTable(table)
        list(wrapped.candidates([Constant(1), Constant("p")]))
        list(wrapped.candidates([None, Constant("p")]))
        list(wrapped.candidates([Constant(2), Constant("q")]))
        assert sorted(wrapped._indexes) == [(0, 1), (1,)]

    def test_added_ctuple_is_stored_and_indexed_as_is(self, table):
        wrapped = IndexedTable(table)
        wrapped.index_on(0, 1)
        tup = CTuple([3, "s"])
        assert wrapped.add(tup)
        assert table.tuples()[-1] is tup
        assert list(wrapped.candidates([Constant(3), Constant("s")]))[0] is tup

    def test_rows_appended_during_a_probe_are_seen(self, table):
        wrapped = IndexedTable(table)
        seen = []
        for tup in wrapped.candidates([Constant(1), None]):
            seen.append(tup)
            if len(seen) == 1:
                wrapped.add([1, "late"])
        assert Constant("late") in {t.values[1] for t in seen}


ENTRIES = [Constant(0), Constant(1), Constant(2), X, CVariable("y")]
rows = st.lists(st.sampled_from(ENTRIES), min_size=3, max_size=3)
patterns = st.lists(
    st.one_of(st.none(), st.sampled_from([Constant(0), Constant(1), Constant(3)])),
    min_size=3,
    max_size=3,
)
#: A probe, then the rows added before its result is consumed.
probes = st.tuples(patterns, st.lists(rows, max_size=3))


def matches(pattern, tup):
    """Brute force: the row unifies with every probed constant."""
    return all(
        want is None or unify_value(want, entry) is not None
        for want, entry in zip(pattern, tup.values)
    )


class TestCandidatesProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        initial=st.lists(rows, max_size=12),
        steps=st.lists(st.one_of(rows, probes), max_size=10),
    )
    def test_candidates_agree_with_brute_force(self, initial, steps):
        table = CTable("T", ["a", "b", "c"])
        for row in initial:
            table.add(row)
        wrapped = IndexedTable(table)
        for step in steps:
            if isinstance(step, list):
                wrapped.add(step)
                continue
            pattern, later = step
            probe = wrapped.candidates(pattern)
            for row in later:
                wrapped.add(row)  # a live view: still returned below
            got = list(probe)
            assert len({id(t) for t in got}) == len(got)  # no duplicates
            got_ids = {id(t) for t in got}
            for tup in table:
                if matches(pattern, tup):
                    assert id(tup) in got_ids, (pattern, tup)
            for tup in got:
                for want, entry in zip(pattern, tup.values):
                    if want is not None and isinstance(entry, Constant):
                        assert entry == want, (pattern, tup)


class TestStorage:
    def test_wraps_database_tables(self, table):
        storage = Storage(Database([table]))
        assert "T" in storage
        assert storage.indexed("T").name == "T"

    def test_create_table(self):
        storage = Storage()
        wrapped = storage.create_table("N", ["a"])
        wrapped.add([1])
        assert len(storage.db.table("N")) == 1

    def test_invalidate_rebuilds(self, table):
        storage = Storage(Database([table]))
        first = storage.indexed("T")
        storage.invalidate("T")
        second = storage.indexed("T")
        assert first is not second

    def test_rewrap_after_table_replacement(self, table):
        db = Database([table])
        storage = Storage(db)
        storage.indexed("T")
        replacement = CTable("T", ["a", "b"])
        replacement.add([9, "z"])
        db.replace_table(replacement)
        assert len(list(storage.indexed("T"))) == 1

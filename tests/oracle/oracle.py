"""The differential world-enumeration oracle.

A fauré-log answer is a c-table; its meaning is the *set of regular
answers across every possible world*.  The oracle makes that meaning
executable: expand a small uncertain database into all of its worlds,
run the query per world with the independent ground evaluator
(:class:`repro.verify.baseline.GroundEvaluator` — plain datalog, no
conditions, no solver), and demand that instantiating the c-table answer
in each world yields exactly the ground answer.

Used by ``test_differential.py`` to pin down the memoization layer: the
per-world semantics must hold with the shared memo on, off, and under
heavy fault injection (where the solver degrades to UNKNOWN on a large
fraction of calls).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.ctable.condition import TRUE, conjoin, disjoin, eq, ne
from repro.ctable.table import CTable, Database
from repro.ctable.terms import CVariable
from repro.ctable.worlds import instantiate_database, iter_assignments
from repro.faurelog.evaluation import FaureEvaluator
from repro.faurelog.parser import parse_program
from repro.solver.domains import BOOL_DOMAIN, DomainMap, FiniteDomain
from repro.solver.interface import ConditionSolver
from repro.verify.baseline import GroundEvaluator

__all__ = ["CASES", "OracleCase", "run_faure", "render_result", "assert_matches_worlds"]


class OracleCase:
    """One program + uncertain database + its finite world space."""

    def __init__(self, name: str, program_text: str, database: Database,
                 domains: DomainMap, outputs: Tuple[str, ...]):
        self.name = name
        self.program = parse_program(program_text)
        self.database = database
        self.domains = domains
        self.outputs = outputs

    def __repr__(self) -> str:
        return f"OracleCase({self.name})"


def _relational_db() -> Tuple[Database, DomainMap]:
    """A(x), B(x, y) over {0,1,2} with two uncertainty variables."""
    w0, w1 = CVariable("w0"), CVariable("w1")
    db = Database()
    a = db.create_table("A", ["x"])
    a.add([0], eq(w0, 0))
    a.add([1], ne(w0, 1))
    a.add([w1])
    b = db.create_table("B", ["x", "y"])
    b.add([0, 1])
    b.add([1, 2], disjoin([eq(w0, 1), eq(w1, 1)]))
    b.add([2, 0], conjoin([eq(w0, 0), ne(w1, 0)]))
    b.add([w0, w1], ne(w0, w1))
    domains = DomainMap({w0: FiniteDomain([0, 1, 2]), w1: FiniteDomain([0, 1, 2])})
    return db, domains


def _link_db() -> Tuple[Database, DomainMap]:
    """A §4-style network: Link(n1, n2) gated by {0,1} link states."""
    x, y, z = CVariable("x"), CVariable("y"), CVariable("z")
    db = Database()
    link = db.create_table("Link", ["n1", "n2"])
    link.add(["a", "b"], eq(x, 1))
    link.add(["b", "c"], eq(y, 1))
    link.add(["a", "d"], eq(x, 0))  # backup route when a-b is down
    link.add(["d", "c"], eq(z, 1))
    link.add(["c", "e"])
    domains = DomainMap({v: BOOL_DOMAIN for v in (x, y, z)})
    return db, domains


def _build_cases() -> List[OracleCase]:
    rel_db, rel_domains = _relational_db()
    link_db, link_domains = _link_db()
    return [
        OracleCase(
            "join",
            "Out(x, z) :- B(x, y), B(y, z).",
            rel_db, rel_domains, ("Out",),
        ),
        OracleCase(
            "filter-compare",
            "Out(x, y) :- B(x, y), A(x), x != y.",
            rel_db, rel_domains, ("Out",),
        ),
        OracleCase(
            "negation",
            "Out(x) :- A(x), not Blocked(x). Blocked(x) :- B(x, x).",
            rel_db, rel_domains, ("Out", "Blocked"),
        ),
        OracleCase(
            "recursion",
            "Reach(u, v) :- Link(u, v). Reach(u, v) :- Link(u, w), Reach(w, v).",
            link_db, link_domains, ("Reach",),
        ),
        OracleCase(
            "recursion-negation",
            """
            Cut(u) :- Node(u), not Reach(u, "e").
            Node(u) :- Link(u, v).
            Reach(u, v) :- Link(u, v).
            Reach(u, v) :- Link(u, w), Reach(w, v).
            """,
            link_db, link_domains, ("Cut", "Reach"),
        ),
    ]


#: The representative programs the oracle sweeps.
CASES: List[OracleCase] = _build_cases()


def run_faure(case: OracleCase, memo, governor=None, fast_path=True) -> Database:
    """Evaluate the case's program with the given memo/governor setup."""
    solver = ConditionSolver(
        case.domains, governor=governor, memo=memo, fast_path=fast_path
    )
    evaluator = FaureEvaluator(case.database, solver=solver, governor=governor)
    return evaluator.evaluate(case.program)


def render_result(result: Database, outputs: Iterable[str]) -> str:
    """Deterministic full rendering of the answer tables (byte-compare)."""
    parts = []
    for name in outputs:
        table = result.table(name) if name in result else CTable(name, [])
        parts.append(table.pretty(max_rows=None))
    return "\n".join(parts)


def assert_matches_worlds(case: OracleCase, result: Database) -> int:
    """Per-world differential check; returns the number of worlds swept."""
    cvars = sorted(case.database.cvariables(), key=lambda v: v.name)
    worlds = 0
    for assignment in iter_assignments(cvars, case.domains):
        ground = GroundEvaluator(instantiate_database(case.database, assignment))
        truth = ground.run(case.program)
        for output in case.outputs:
            expected = truth.get(output, set())
            table = result.table(output) if output in result else CTable(output, [])
            got = set()
            for tup in table:
                if tup.condition.evaluate(assignment):
                    got.add(tuple(
                        assignment[v] if isinstance(v, CVariable) else v
                        for v in tup.values
                    ))
            assert got == expected, (
                f"{case.name}/{output} diverged in world {assignment}: "
                f"faure={sorted(got)} ground={sorted(expected)}"
            )
        worlds += 1
    return worlds

"""Condition decision procedures — fauré's substitute for Z3.

The paper invokes Z3 in step (3) of its PostgreSQL pipeline to remove
tuples with contradictory conditions.  Z3 is unavailable offline, so this
package implements the decidable fragment fauré actually needs:

* :mod:`~repro.solver.domains` — per-c-variable domain declarations;
* :mod:`~repro.solver.theory` — conjunction-level consistency
  (equality/disequality union–find, finite-domain intersection,
  difference-logic orderings, interval linear reasoning);
* :mod:`~repro.solver.enumerate` — exact finite-domain model enumeration;
* :mod:`~repro.solver.dpll` — DPLL(T)-style branch-and-check for
  compound conditions over unbounded domains;
* :mod:`~repro.solver.interface` — the :class:`ConditionSolver` façade
  with caching and time accounting.
"""

from ..robustness.errors import BudgetExceeded, ConditionTooLarge, FaureError, SolverFailure
from ..robustness.governor import Governor
from ..robustness.verdict import Trivalent, Verdict
from .canonical import InternTable, canonicalize
from .domains import BOOL_DOMAIN, Domain, DomainMap, FiniteDomain, IntRange, Unbounded
from .enumerate import Assignment, count_models, find_model, iter_models
from .interface import SHARED_MEMO, ConditionSolver, SolverStats
from .memo import MemoTable, reset_shared_memo, shared_memo
from .theory import UnsupportedCondition, check_conjunction

__all__ = [
    "FaureError",
    "BudgetExceeded",
    "SolverFailure",
    "ConditionTooLarge",
    "Governor",
    "Verdict",
    "Trivalent",
    "BOOL_DOMAIN",
    "Domain",
    "DomainMap",
    "FiniteDomain",
    "IntRange",
    "Unbounded",
    "Assignment",
    "count_models",
    "find_model",
    "iter_models",
    "ConditionSolver",
    "SolverStats",
    "SHARED_MEMO",
    "canonicalize",
    "InternTable",
    "MemoTable",
    "shared_memo",
    "reset_shared_memo",
    "UnsupportedCondition",
    "check_conjunction",
]

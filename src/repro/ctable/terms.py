"""Terms of the c-domain.

The c-domain ``dom^C`` (paper, §3) extends the usual attribute domain of
constants with *c-variables*: named placeholders for values that exist in
the network but are currently unknown.  A third kind of term, the
*program variable*, never appears inside a c-table; it only occurs in
fauré-log rules and is eliminated by valuation.

Terms are immutable and interned-friendly: equality and hashing are by
(kind, payload), so they can be used freely as dict keys and in sets.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

__all__ = [
    "SlotPickleMixin",
    "Term",
    "Constant",
    "CVariable",
    "Variable",
    "Value",
    "as_term",
    "is_ground",
    "constant",
    "cvar",
    "var",
]

#: Python payloads a :class:`Constant` may wrap.
Value = Union[str, int, float, bool, tuple]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.&-]*$")


class SlotPickleMixin:
    """Pickle support for immutable ``__slots__`` classes.

    The immutable classes in this package block ``__setattr__``, which
    breaks pickle's default slot-state restoration (it calls ``setattr``).
    This mixin restores state through ``object.__setattr__`` instead, so
    terms, conditions, and tuples survive ``pickle`` and the ``copy``
    module, which restores state through the same protocol.
    """

    __slots__ = ()

    def __getstate__(self):
        state = {}
        for cls in type(self).__mro__:
            for name in getattr(cls, "__slots__", ()):
                # Cached hash values and condition cubes are process-local
                # (string hashing is randomized per interpreter, slot
                # numbers are assigned per process) and must never cross
                # a process boundary; cached cvariable sets just bloat
                # the payload.  The receiver recomputes all three lazily.
                if name in ("_hash", "_cvars", "_cube"):
                    continue
                state[name] = getattr(self, name)
        return state

    def __setstate__(self, state) -> None:
        for cls in type(self).__mro__:
            for name in getattr(cls, "__slots__", ()):
                object.__setattr__(self, name, state.get(name))


class Term(SlotPickleMixin):
    """Base class for every member of the c-domain plus program variables."""

    __slots__ = ()

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_cvariable(self) -> bool:
        return isinstance(self, CVariable)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)


class Constant(Term):
    """A known value: string, number, boolean, or a tuple of values.

    Tuples model list-like attributes such as the AS paths ``[ABC]`` in
    the paper's Table 2.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Value):
        if isinstance(value, Constant):
            value = value.value
        if isinstance(value, list):
            value = tuple(value)
        if not isinstance(value, (str, int, float, bool, tuple)):
            raise TypeError(f"unsupported constant payload: {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Constant is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Constant) and self.value == other.value

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("const", self.value))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, tuple):
            return "[" + " ".join(str(v) for v in self.value) + "]"
        return str(self.value)


class CVariable(Term):
    """An unknown-but-existing value in a c-table (written x̄ in the paper).

    A c-variable is identified purely by its name; its legal values are
    declared separately in a :class:`repro.solver.domains.DomainMap`.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(f"invalid c-variable name: {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("CVariable is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CVariable) and self.name == other.name

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("cvar", self.name))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"CVariable({self.name!r})"

    def __str__(self) -> str:
        return f"{self.name}̄"  # combining macron, matching x̄


class Variable(Term):
    """A fauré-log program variable (plain x, y, z in the paper).

    Program variables are placeholders eliminated by valuation; they never
    appear inside a stored c-table.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Variable is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("var", self.name))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


def constant(value: Value) -> Constant:
    """Shorthand constructor for :class:`Constant`."""
    return Constant(value)


def cvar(name: str) -> CVariable:
    """Shorthand constructor for :class:`CVariable`."""
    return CVariable(name)


def var(name: str) -> Variable:
    """Shorthand constructor for :class:`Variable`."""
    return Variable(name)


def as_term(value) -> Term:
    """Coerce a raw Python value (or a Term) into a :class:`Term`.

    Raw strings/numbers/tuples become constants.  Terms pass through.
    """
    if isinstance(value, Term):
        return value
    return Constant(value)


def is_ground(terms: Iterable[Term]) -> bool:
    """True when no program variable occurs among ``terms``."""
    return all(not t.is_variable for t in terms)

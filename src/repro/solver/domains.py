"""Domain declarations for c-variables.

The paper's conditions constrain c-variables drawn from known attribute
domains — e.g. the link-state variables ``x̄, ȳ, z̄ ∈ {0, 1}`` of §4, or
the subnet domain ``{Mkt, R&D}`` of §5.  A :class:`DomainMap` records,
per c-variable, which values it may take.  Variables without a declared
domain default to an *unbounded* domain of the given kind.

Finite domains unlock the exact model-enumeration backend of
:mod:`repro.solver.enumerate`; unbounded domains are handled by the
propagation-based theory solver.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..ctable.terms import Constant, CVariable

__all__ = ["Domain", "FiniteDomain", "IntRange", "Unbounded", "DomainMap", "BOOL_DOMAIN"]


class Domain:
    """Abstract domain of values a c-variable may assume."""

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        raise NotImplementedError

    def values(self) -> Tuple[Constant, ...]:
        """Enumerate the domain (finite domains only)."""
        raise NotImplementedError

    def raw_values(self) -> Tuple:
        """Enumerate the domain as raw payloads (finite domains only)."""
        return tuple(const.value for const in self.values())

    def contains(self, value) -> bool:
        """Membership test for a raw Python value."""
        raise NotImplementedError

    def size(self) -> Optional[int]:
        """Cardinality, or ``None`` when unbounded."""
        raise NotImplementedError


class FiniteDomain(Domain):
    """An explicit finite set of values."""

    __slots__ = ("_values", "_raw", "_raw_set", "numeric")

    def __init__(self, values: Iterable):
        vals = []
        seen = set()
        for v in values:
            const = v if isinstance(v, Constant) else Constant(v)
            if const not in seen:
                seen.add(const)
                vals.append(const)
        if not vals:
            raise ValueError("finite domain must be non-empty")
        self._values: Tuple[Constant, ...] = tuple(vals)
        self._raw: Tuple = tuple(const.value for const in self._values)
        # O(1) membership for the solver's candidate scans.  Hash
        # equality coincides with ``==`` for the payload types Constant
        # admits (equal values hash equal across int/float/bool).
        self._raw_set: FrozenSet = frozenset(self._raw)
        numeric = True
        for v in self._raw:
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                numeric = False
                break
        #: Whether every payload is a non-bool number (solver fast path).
        self.numeric: bool = numeric

    @property
    def is_finite(self) -> bool:
        return True

    def values(self) -> Tuple[Constant, ...]:
        return self._values

    def raw_values(self) -> Tuple:
        return self._raw

    def contains(self, value) -> bool:
        const = value if isinstance(value, Constant) else Constant(value)
        return const in self._values

    def admits_raw(self, value) -> bool:
        """``==``-membership for a raw payload, set-backed when hashable."""
        try:
            return value in self._raw_set
        except TypeError:  # unhashable payload: fall back to the == scan
            return value in self._raw

    def size(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteDomain) and set(self._values) == set(other._values)

    def __hash__(self) -> int:
        return hash(frozenset(self._values))

    def __repr__(self) -> str:
        return f"FiniteDomain({[v.value for v in self._values]!r})"


class IntRange(Domain):
    """Integers in ``[lo, hi]`` inclusive — finite, but compactly stored."""

    __slots__ = ("lo", "hi", "_cached", "_raw_cached")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        self.lo = int(lo)
        self.hi = int(hi)
        self._cached: Optional[Tuple[Constant, ...]] = None
        self._raw_cached: Optional[Tuple] = None

    @property
    def is_finite(self) -> bool:
        return True

    def values(self) -> Tuple[Constant, ...]:
        if self._cached is None:
            self._cached = tuple(Constant(i) for i in range(self.lo, self.hi + 1))
        return self._cached

    def raw_values(self) -> Tuple:
        if self._raw_cached is None:
            self._raw_cached = tuple(range(self.lo, self.hi + 1))
        return self._raw_cached

    def contains(self, value) -> bool:
        if isinstance(value, Constant):
            value = value.value
        return isinstance(value, int) and not isinstance(value, bool) and self.lo <= value <= self.hi

    def size(self) -> int:
        return self.hi - self.lo + 1

    def __eq__(self, other) -> bool:
        return isinstance(other, IntRange) and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash(("intrange", self.lo, self.hi))

    def __repr__(self) -> str:
        return f"IntRange({self.lo}, {self.hi})"


class Unbounded(Domain):
    """An unbounded domain of a given kind (``'string'``, ``'int'``, ...).

    The kind is advisory; it only gates which comparison operators the
    theory solver accepts (ordering needs numerics).
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str = "any"):
        self.kind = kind

    @property
    def is_finite(self) -> bool:
        return False

    def values(self):
        raise ValueError("cannot enumerate an unbounded domain")

    def contains(self, value) -> bool:
        return True

    def size(self) -> None:
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, Unbounded) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(("unbounded", self.kind))

    def __repr__(self) -> str:
        return f"Unbounded({self.kind!r})"


#: The {0, 1} link-state domain of §4.
BOOL_DOMAIN = FiniteDomain([0, 1])


class DomainMap:
    """Per-c-variable domain declarations with a configurable default."""

    def __init__(
        self,
        mapping: Optional[Mapping[CVariable, Domain]] = None,
        default: Optional[Domain] = None,
    ):
        self._map: Dict[CVariable, Domain] = {}
        #: (lo, slot mask) -> all-boolean: the solver bit rung's domain
        #: check, keyed on the process-local slot numbering, so it is
        #: never pickled; re-declaring a variable replaces it.
        self.boolean_spans: Dict[Tuple[int, int], bool] = {}
        if mapping:
            for var, dom in mapping.items():
                self.declare(var, dom)
        self._default = default if default is not None else Unbounded()

    def declare(self, var, domain) -> None:
        """Declare (or re-declare) the domain of a c-variable.

        ``var`` may be a :class:`CVariable` or a bare name; ``domain`` may
        be a :class:`Domain` or an iterable of raw values (treated as a
        finite domain).
        """
        if isinstance(var, str):
            var = CVariable(var)
        if not isinstance(var, CVariable):
            raise TypeError(f"expected CVariable, got {var!r}")
        if not isinstance(domain, Domain):
            domain = FiniteDomain(domain)
        self._map[var] = domain
        self.boolean_spans = {}  # a fresh dict: a racing reader fills the old one

    def __getstate__(self):
        return {"_map": self._map, "_default": self._default}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.boolean_spans = {}

    def domain_of(self, var: CVariable) -> Domain:
        """The declared domain, or the default when undeclared."""
        return self._map.get(var, self._default)

    def declared(self) -> FrozenSet[CVariable]:
        return frozenset(self._map)

    def all_finite(self, variables: Iterable[CVariable]) -> bool:
        """True when every listed variable has a finite domain."""
        return all(self.domain_of(v).is_finite for v in variables)

    def enumeration_size(self, variables: Iterable[CVariable]) -> Optional[int]:
        """Product of domain sizes, or ``None`` if any is unbounded."""
        total = 1
        for v in variables:
            size = self.domain_of(v).size()
            if size is None:
                return None
            total *= size
        return total

    def fingerprint(self, variables: Iterable[CVariable]) -> Tuple:
        """Hashable signature of the domains of the listed variables.

        Two domain maps that agree on ``variables`` produce the same
        fingerprint, so solver verdicts memoized under it are shared
        exactly when they are sound to share (undeclared variables
        contribute the map's default domain).
        """
        return tuple(
            sorted(
                ((v.name, self.domain_of(v)) for v in set(variables)),
                key=lambda pair: pair[0],
            )
        )

    def copy(self) -> "DomainMap":
        clone = DomainMap(default=self._default)
        clone._map = dict(self._map)
        return clone

    def merged_with(self, other: "DomainMap") -> "DomainMap":
        """New map with ``other``'s declarations taking precedence."""
        clone = self.copy()
        clone._map.update(other._map)
        return clone

    def __contains__(self, var: CVariable) -> bool:
        return var in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        return f"DomainMap({{{', '.join(f'{v.name}: {d!r}' for v, d in self._map.items())}}})"

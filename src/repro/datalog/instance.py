"""Database instances: finite sets of facts, with active-domain machinery.

An :class:`Instance` is an immutable wrapper around a ``frozenset`` of
:class:`~repro.datalog.terms.Fact` objects.  It provides the operations the
paper uses throughout:

* ``adom(I)`` — the active domain (all values occurring in facts);
* ``I|_sigma`` — restriction to the facts over a schema;
* ``co(I)`` — the decomposition into *components* (Definition before
  Lemma 5.2): maximal nonempty subsets whose active domains are disjoint
  from the rest of the instance;
* induced subinstances (Definition 2);
* domain-distinct / domain-disjoint tests (Section 3.1).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .schema import Schema
from .terms import Fact, sort_facts

__all__ = ["Instance"]


class Instance:
    """An immutable set of facts.

    Instances support the standard set algebra (``|``, ``&``, ``-``,
    ``<=`` for subset) and iteration, plus the database-specific operations
    described in the module docstring.
    """

    __slots__ = ("_facts", "_adom")

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        if isinstance(facts, Instance):
            # Validated when that instance was built.
            self._facts: frozenset[Fact] = facts._facts
        else:
            self._facts = frozenset(facts)
            for fact in self._facts:
                if not isinstance(fact, Fact):
                    raise TypeError(f"instances contain Facts, got {fact!r}")
        self._adom: frozenset[Hashable] | None = None

    @classmethod
    def _wrap(cls, facts: frozenset) -> "Instance":
        """Wrap an already-validated fact set without re-checking every
        element (the set-algebra fast path: both operands were validated
        when first constructed)."""
        instance = cls.__new__(cls)
        instance._facts = facts
        instance._adom = None
        return instance

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, *facts: Fact) -> "Instance":
        """Variadic constructor: ``Instance.of(f, g, h)``."""
        return cls(facts)

    @classmethod
    def from_tuples(cls, relation: str, tuples: Iterable[tuple]) -> "Instance":
        """Build a single-relation instance from raw value tuples."""
        return cls(Fact(relation, values) for values in tuples)

    @classmethod
    def from_dict(cls, relations: Mapping[str, Iterable[tuple]]) -> "Instance":
        """Build an instance from ``{relation: [tuple, ...]}``."""
        facts: list[Fact] = []
        for relation, tuples in relations.items():
            facts.extend(Fact(relation, values) for values in tuples)
        return cls(facts)

    # ------------------------------------------------------------------
    # Set interface
    # ------------------------------------------------------------------

    @property
    def facts(self) -> frozenset[Fact]:
        return self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __bool__(self) -> bool:
        return bool(self._facts)

    def __or__(self, other: "Instance | Iterable[Fact]") -> "Instance":
        if isinstance(other, Instance):
            return Instance._wrap(self._facts | other._facts)
        return Instance(self._facts | _factset(other))

    def __and__(self, other: "Instance | Iterable[Fact]") -> "Instance":
        # An intersection is a subset of self, hence already validated.
        return Instance._wrap(self._facts & _factset(other))

    def __sub__(self, other: "Instance | Iterable[Fact]") -> "Instance":
        # A difference is a subset of self, hence already validated.
        return Instance._wrap(self._facts - _factset(other))

    def __le__(self, other: "Instance | Iterable[Fact]") -> bool:
        return self._facts <= _factset(other)

    def __lt__(self, other: "Instance | Iterable[Fact]") -> bool:
        return self._facts < _factset(other)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instance):
            return self._facts == other._facts
        if isinstance(other, (set, frozenset)):
            return self._facts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._facts)

    def add(self, *facts: Fact) -> "Instance":
        """Return a new instance with the given facts added."""
        return Instance(self._facts | frozenset(facts))

    # ------------------------------------------------------------------
    # Database operations from the paper
    # ------------------------------------------------------------------

    def adom(self) -> frozenset[Hashable]:
        """The active domain: every value occurring in some fact."""
        if self._adom is None:
            values: set[Hashable] = set()
            for fact in self._facts:
                values.update(fact.values)
            self._adom = frozenset(values)
        return self._adom

    def restrict(self, schema: Schema | Iterable[str]) -> "Instance":
        """``I|_sigma``: the maximal subset of I over the given schema.

        Accepts either a :class:`Schema` (arity-checked) or a bare iterable
        of relation names (name-checked only).
        """
        if isinstance(schema, Schema):
            return Instance._wrap(
                frozenset(f for f in self._facts if schema.contains_fact(f))
            )
        names = set(schema)
        return Instance._wrap(
            frozenset(f for f in self._facts if f.relation in names)
        )

    def relations(self) -> frozenset[str]:
        """The set of relation names with at least one fact."""
        return frozenset(fact.relation for fact in self._facts)

    def tuples(self, relation: str) -> frozenset[tuple]:
        """All value tuples of the given relation."""
        return frozenset(f.values for f in self._facts if f.relation == relation)

    def inferred_schema(self) -> Schema:
        """The minimal schema this instance is over.

        Raises :class:`~repro.datalog.schema.SchemaError` when the same
        relation name occurs with two different arities.
        """
        arities: dict[str, int] = {}
        for fact in sort_facts(self._facts):
            if arities.setdefault(fact.relation, fact.arity) != fact.arity:
                from .schema import SchemaError

                raise SchemaError(
                    f"relation {fact.relation} used with arities "
                    f"{arities[fact.relation]} and {fact.arity}"
                )
        return Schema(arities, allow_nullary=True)

    def rename(self, mapping: Mapping[Hashable, Hashable]) -> "Instance":
        """Apply a domain mapping to every fact (identity outside *mapping*)."""
        return Instance(fact.rename(mapping) for fact in self._facts)

    def map_values(self, function: Callable[[Hashable], Hashable]) -> "Instance":
        """Apply *function* to every value of every fact."""
        return Instance(
            Fact(f.relation, tuple(function(v) for v in f.values)) for f in self._facts
        )

    def induced_subinstance(self, values: Iterable[Hashable]) -> "Instance":
        """The induced subinstance on *values* (Definition 2):
        all facts whose active domain is contained in *values*."""
        keep = frozenset(values)
        return Instance(f for f in self._facts if f.adom() <= keep)

    def is_induced_subinstance_of(self, other: "Instance") -> bool:
        """Definition 2: J is an induced subinstance of I when
        J = { f in I | adom(f) ⊆ adom(J) }."""
        return self._facts == frozenset(
            f for f in other._facts if f.adom() <= self.adom()
        )

    # ------------------------------------------------------------------
    # Domain-distinctness (Section 3.1)
    # ------------------------------------------------------------------

    def fact_is_domain_distinct(self, fact: Fact) -> bool:
        """True when *fact* contains at least one value outside adom(self)."""
        return bool(fact.adom() - self.adom())

    def fact_is_domain_disjoint(self, fact: Fact) -> bool:
        """True when *fact* shares no value with adom(self).

        Per the Section 7 convention, a nullary fact is *never* domain
        disjoint from any instance (even though its empty active domain
        intersects nothing).
        """
        if fact.arity == 0:
            return False
        return not (fact.adom() & self.adom())

    def is_domain_distinct_from(self, base: "Instance") -> bool:
        """Every fact of self contains a value new w.r.t. *base*."""
        return all(base.fact_is_domain_distinct(f) for f in self._facts)

    def is_domain_disjoint_from(self, base: "Instance") -> bool:
        """Every fact of self is value-disjoint from *base*."""
        return all(base.fact_is_domain_disjoint(f) for f in self._facts)

    # ------------------------------------------------------------------
    # Components (Section 5.1)
    # ------------------------------------------------------------------

    def components(self) -> list["Instance"]:
        """``co(I)``: the partition of I into components.

        A component is a minimal nonempty subset J ⊆ I with
        ``adom(J) ∩ adom(I \\ J) = ∅``.  Equivalently: group facts by the
        connected components of the "shares a value" graph on facts.
        Computed by union-find over values.

        Nullary facts follow the extended Section 7 definition: every
        component includes all nullary facts (an instance of only nullary
        facts is a single component).
        """
        parent: dict[Hashable, Hashable] = {}

        def find(value: Hashable) -> Hashable:
            root = value
            while parent[root] != root:
                root = parent[root]
            while parent[value] != root:
                parent[value], value = root, parent[value]
            return root

        def union(a: Hashable, b: Hashable) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for fact in self._facts:
            values = list(fact.values)
            for value in values:
                parent.setdefault(value, value)
            for other in values[1:]:
                union(values[0], other)

        nullary = {fact for fact in self._facts if not fact.values}
        groups: dict[Hashable, set[Fact]] = {}
        for fact in self._facts:
            if not fact.values:
                continue
            groups.setdefault(find(fact.values[0]), set()).add(fact)
        if not groups:
            return [Instance(nullary)] if nullary else []
        return [Instance(facts | nullary) for facts in groups.values()]

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def sorted_facts(self) -> list[Fact]:
        """The facts in a deterministic display order."""
        return sort_facts(self._facts)

    def __repr__(self) -> str:
        if not self._facts:
            return "Instance()"
        inner = ", ".join(repr(f) for f in self.sorted_facts())
        return f"Instance({{{inner}}})"


def _factset(value: "Instance | Iterable[Fact]") -> frozenset[Fact]:
    if isinstance(value, Instance):
        return value._facts
    return frozenset(value)

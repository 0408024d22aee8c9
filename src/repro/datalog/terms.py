"""Core term-level objects for the Datalog engine.

The paper (Section 2) assumes an infinite universe ``dom`` of data values and
a disjoint universe ``var`` of variables.  We model data values as arbitrary
hashable Python objects (ints and strings in practice) and variables as
instances of :class:`Variable`.  An :class:`Atom` is a relation name applied
to a tuple of terms; a :class:`Fact` is a relation name applied to a tuple of
data values.

The paper restricts atoms to contain only variables.  The engine is slightly
more liberal and also accepts constants inside rule atoms (a standard Datalog
convenience); the fragment checkers in :mod:`repro.datalog.connectivity` and
the transducer machinery never rely on that extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Variable",
    "Atom",
    "Fact",
    "Inequality",
    "fact_order",
    "sort_facts",
    "is_variable",
    "variables_of",
    "make_variables",
]


@dataclass(frozen=True, slots=True)
class Variable:
    """A Datalog variable, identified by its name.

    Two variables with the same name are the same variable.  Variable names
    are conventionally lowercase (``x``, ``y``, ``z1``) but any non-empty
    string is accepted.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __repr__(self) -> str:
        return self.name


def is_variable(term: object) -> bool:
    """Return True when *term* is a :class:`Variable` (else it is a constant)."""
    return isinstance(term, Variable)


def make_variables(names: str) -> tuple[Variable, ...]:
    """Convenience constructor: ``make_variables("x y z")`` -> three variables."""
    return tuple(Variable(part) for part in names.split())


@dataclass(frozen=True, slots=True)
class Atom:
    """A relation name applied to a tuple of terms (variables or constants)."""

    relation: str
    terms: tuple[Hashable, ...]

    def __init__(self, relation: str, terms: Iterable[Hashable]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", tuple(terms))
        if not self.relation:
            raise ValueError("relation name must be non-empty")

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> set[Variable]:
        """The set of variables occurring in this atom."""
        return {term for term in self.terms if isinstance(term, Variable)}

    def constants(self) -> set[Hashable]:
        """The set of constants (non-variable terms) occurring in this atom."""
        return {term for term in self.terms if not isinstance(term, Variable)}

    def is_ground(self) -> bool:
        """True when the atom contains no variables."""
        return not any(isinstance(term, Variable) for term in self.terms)

    def apply(self, valuation: Mapping[Variable, Hashable]) -> "Fact":
        """Apply a (total, for this atom) valuation, producing a fact.

        Raises ``KeyError`` when the valuation does not cover all variables
        of the atom — callers are expected to supply total valuations, as in
        the paper's definition of rule satisfaction.
        """
        values = tuple(
            valuation[term] if isinstance(term, Variable) else term
            for term in self.terms
        )
        return Fact(self.relation, values)

    def substitute(self, binding: Mapping[Variable, Hashable]) -> "Atom":
        """Apply a partial substitution, producing another (possibly ground) atom."""
        return Atom(
            self.relation,
            tuple(binding.get(t, t) if isinstance(t, Variable) else t for t in self.terms),
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(term) for term in self.terms)
        return f"{self.relation}({inner})"


def variables_of(atoms: Iterable[Atom]) -> set[Variable]:
    """Union of the variables of all *atoms*."""
    result: set[Variable] = set()
    for atom in atoms:
        result |= atom.variables()
    return result


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground fact ``R(d1, ..., dk)`` over data values.

    Facts are immutable and hashable so that instances are plain Python sets
    of facts, matching the paper's set-of-facts definition of an instance.
    """

    relation: str
    values: tuple[Hashable, ...]

    def __init__(self, relation: str, values: Iterable[Hashable]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "values", tuple(values))
        if not relation:
            raise ValueError("relation name must be non-empty")
        for value in self.values:
            if isinstance(value, Variable):
                raise TypeError(
                    "facts must be ground; found a Variable argument"
                )

    @property
    def arity(self) -> int:
        return len(self.values)

    def adom(self) -> frozenset[Hashable]:
        """The active domain of this single fact: the set of its values."""
        return frozenset(self.values)

    def rename(self, mapping: Mapping[Hashable, Hashable]) -> "Fact":
        """Apply a (partial) domain mapping to all values of the fact.

        Values absent from *mapping* are left untouched, so the identity on
        the rest of the domain is implicit — convenient for genericity and
        homomorphism tests.
        """
        return Fact(self.relation, tuple(mapping.get(v, v) for v in self.values))

    def as_atom(self) -> Atom:
        """View the fact as a ground atom (useful when seeding rule bodies)."""
        return Atom(self.relation, self.values)

    def __repr__(self) -> str:
        inner = ", ".join(repr(value) for value in self.values)
        return f"{self.relation}({inner})"

    def __lt__(self, other: "Fact") -> bool:
        """The fact order of :func:`fact_order`."""
        if not isinstance(other, Fact):
            return NotImplemented
        return fact_order(self) < fact_order(other)


def _sort_key(values: Sequence[Hashable]) -> tuple[tuple[str, str], ...]:
    return tuple((type(v).__name__, repr(v)) for v in values)


def fact_order(fact: Fact) -> tuple[str, tuple[tuple[str, str], ...]]:
    """The key of the deterministic fact order: the relation name, then
    each value's type name and ``repr``, so heterogeneous domains (ints
    mixed with strings) still sort deterministically."""
    return (fact.relation, _sort_key(fact.values))


def sort_facts(facts: Iterable[Fact]) -> list[Fact]:
    """*facts* in the fact order: the list ``sorted(facts)`` returns, with
    each key built once per fact instead of twice per comparison."""
    return sorted(facts, key=fact_order)


@dataclass(frozen=True, slots=True)
class Inequality:
    """An inequality ``u != v`` between two rule variables."""

    left: Variable
    right: Variable

    def __post_init__(self) -> None:
        if not isinstance(self.left, Variable) or not isinstance(self.right, Variable):
            raise TypeError("inequalities relate two variables")

    def variables(self) -> set[Variable]:
        return {self.left, self.right}

    def satisfied_by(self, valuation: Mapping[Variable, Hashable]) -> bool:
        """True when the valuation maps the two sides to distinct values."""
        return valuation[self.left] != valuation[self.right]

    def __repr__(self) -> str:
        return f"{self.left!r} != {self.right!r}"

    def __iter__(self) -> Iterator[Variable]:
        yield self.left
        yield self.right

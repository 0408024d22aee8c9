"""Constant interning: dense integer ids with exact round-trip decoding.

The columnar kernel never computes on raw data values.  Every constant —
instance values and the constants embedded in rule atoms — is interned to a
dense ``int`` through a :class:`SymbolTable`, joins and guards compare
ints, and the final database is decoded back through the same table.
Decoding restores the *exact* objects that were interned (the table keeps
a bidirectional mapping), so ``output_fingerprint`` over a decoded result
is byte-identical to the fingerprint of an evaluation over raw values.

Equality semantics match the set-based engines by construction: the id
map is a plain dict keyed by the values themselves, so values that Python
considers equal (and that a ``frozenset`` of facts would already collapse,
e.g. ``1`` and ``True``) share one id, exactly as they share one fact in
an :class:`~repro.datalog.instance.Instance`.

Tables are append-only and shared across runs of a long-lived evaluator:
ids stay stable, so per-rule generated code (which inlines interned
constant ids as literals) never needs recompiling when new data arrives.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..datalog.instance import Instance
from ..datalog.terms import Fact

__all__ = ["SymbolTable", "intern_instance", "decode_database"]


class SymbolTable:
    """A bidirectional constant table: value -> dense id -> value."""

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._values: list[Hashable] = []

    def intern(self, value: Hashable) -> int:
        """The id for *value*, allocating the next dense id when new."""
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self._values)
            self._ids[value] = ident
            self._values.append(value)
        return ident

    def intern_tuple(self, values: Iterable[Hashable]) -> tuple[int, ...]:
        return tuple(self.intern(value) for value in values)

    def lookup(self, value: Hashable) -> int | None:
        """The id for *value* without allocating (None when never seen)."""
        return self._ids.get(value)

    def decode(self, ident: int) -> Hashable:
        """The exact value interned under *ident*."""
        return self._values[ident]

    def decode_tuple(self, idents: Iterable[int]) -> tuple[Hashable, ...]:
        values = self._values
        return tuple(values[ident] for ident in idents)

    @property
    def values(self) -> list[Hashable]:
        """The id -> value list (index == id).  Treat as read-only."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._ids


def intern_instance(
    instance: Iterable[Fact], table: SymbolTable
) -> dict[str, set[tuple[int, ...]]]:
    """Intern every fact of *instance*: relation name -> set of id rows."""
    relations: dict[str, set[tuple[int, ...]]] = {}
    intern = table.intern
    for fact in instance:
        row = tuple(map(intern, fact.values))
        relations.setdefault(fact.relation, set()).add(row)
    return relations


def decode_database(
    relations: dict[str, Iterable[tuple[int, ...]]], table: SymbolTable
) -> Instance:
    """Decode id rows back into an :class:`Instance` of the original values."""
    decode = table.values.__getitem__
    # The rows are ground and their relation non-empty, so Fact.__init__'s
    # checks are skipped: the facts are built bare and their two slots
    # written through the slot descriptors, which bypasses the frozen
    # dataclass's __setattr__ and costs half of object.__setattr__.
    new = Fact.__new__
    set_relation = Fact.relation.__set__
    set_values = Fact.values.__set__
    facts = []
    append = facts.append
    for relation, rows in relations.items():
        for row in rows:
            fact = new(Fact)
            set_relation(fact, relation)
            set_values(fact, tuple(map(decode, row)))
            append(fact)
    return Instance._wrap(frozenset(facts))

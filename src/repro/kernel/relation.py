"""Columnar storage for interned relations.

A :class:`ColumnarRelation` is a hash-set of int rows plus *lazy*
per-column inverted indexes: a column index is built the first time some
generated rule body actually probes that column (the rule's bound
positions), and from then on is maintained incrementally by :meth:`merge`.
Relations that are only ever scanned — or columns no rule binds — never
pay for indexing.

Semi-naive evaluation needs nothing more: the engine keeps the *delta* as
plain per-relation row lists (seeds are scanned, never probed), and the
full database is updated between iterations by one :meth:`merge` per head
relation, so every already-built column index stays delta-aware —
recursion touches only new rows on the seed side and index maintenance is
O(built columns) per new row.  :meth:`delete` is the inverse, for the
well-founded evaluator's delete-and-rederive step.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["ColumnarRelation", "ColumnarDatabase"]


class ColumnarRelation:
    """One relation: a set of int rows with lazily-built column indexes."""

    __slots__ = ("name", "tuples", "_columns")

    def __init__(self, name: str, tuples: set[tuple[int, ...]] | None = None) -> None:
        self.name = name
        #: Adopted by reference (not copied) when given.
        self.tuples: set[tuple[int, ...]] = set() if tuples is None else tuples
        self._columns: dict[int, dict[int, list[tuple[int, ...]]]] = {}

    def merge(self, rows: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Insert a set of rows; returns the ones that were new, as a list.

        One set difference and one set union, not a membership test per
        row.  Only columns that some rule has already probed get the new
        rows appended; unbuilt columns are materialized on first
        :meth:`index` call.
        """
        new = rows - self.tuples
        if not new:
            return []
        self.tuples.update(new)  # in place: the set may be adopted by reference
        fresh = list(new)
        for position, column in self._columns.items():
            for row in fresh:
                if position < len(row):
                    column.setdefault(row[position], []).append(row)
        return fresh

    def delete(self, rows: set[tuple[int, ...]]) -> None:
        """Remove *rows* (a subset of the relation) in place.

        Every built column index stays exact: each bucket a deleted row
        sat in is rebuilt once per call, not once per row.  Never called
        while a generated loop iterates a bucket.
        """
        self.tuples.difference_update(rows)
        for position, column in self._columns.items():
            for value in {row[position] for row in rows if position < len(row)}:
                kept = [row for row in column[value] if row not in rows]
                if kept:
                    column[value] = kept
                else:
                    del column[value]

    def index(self, position: int) -> dict[int, list[tuple[int, ...]]]:
        """The inverted index for *position*: value id -> rows.

        Built on first use from the current rows (skipping rows too short
        for the column), then kept current by :meth:`merge`.
        """
        column = self._columns.get(position)
        if column is None:
            column = {}
            for row in self.tuples:
                if position < len(row):
                    column.setdefault(row[position], []).append(row)
            self._columns[position] = column
        return column

    def indexed_positions(self) -> tuple[int, ...]:
        """The columns built so far (observability / tests)."""
        return tuple(sorted(self._columns))

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, row: tuple[int, ...]) -> bool:
        return row in self.tuples


class ColumnarDatabase:
    """A mutable interned database: relation name -> :class:`ColumnarRelation`.

    :meth:`relation` creates empty relations on demand so generated code
    can bind negation sets and scan loops without existence checks; an
    empty relation stays an empty set.
    """

    __slots__ = ("_relations",)

    def __init__(self, shared: Iterable[ColumnarRelation] = ()) -> None:
        # *shared* relations are adopted by reference, built indexes and
        # all: the well-founded evaluator reuses its fixed relations across
        # the many databases of one alternating fixpoint.
        self._relations: dict[str, ColumnarRelation] = {
            relation.name: relation for relation in shared
        }

    def relation(self, name: str) -> ColumnarRelation:
        relation = self._relations.get(name)
        if relation is None:
            relation = ColumnarRelation(name)
            self._relations[name] = relation
        return relation

    def rows(self) -> dict[str, set[tuple[int, ...]]]:
        """A relation -> row-set view of the non-empty relations."""
        return {
            name: relation.tuples
            for name, relation in self._relations.items()
            if relation.tuples
        }

    def total_rows(self) -> int:
        return sum(len(relation) for relation in self._relations.values())

    def __contains__(self, name: str) -> bool:
        relation = self._relations.get(name)
        return relation is not None and bool(relation.tuples)

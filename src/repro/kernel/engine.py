"""The kernel evaluator: semi-naive fixpoint over interned columnar data.

:class:`KernelEvaluator` is what
:class:`repro.datalog.evaluation.SemiNaiveEvaluator` runs on: constants
are interned to dense ints once (:mod:`.interning`), rows live in
:class:`~repro.kernel.relation.ColumnarDatabase` sets with lazy column
indexes, and each rule fires through its generated function
(:mod:`.codegen`).  The result is decoded back to the exact original
values, so fingerprints are byte-identical to the naive reference.

The fixpoint is a ground-rule prepass (facts visible to later ground rules
immediately), then delta iterations that collect all fresh heads before
applying them; ``max_iterations`` counts those delta iterations, the one
that finds nothing new included.

Evaluators are long-lived: rules compile once in ``__init__`` and the
symbol table persists across ``run`` calls (ids are append-only), so the
steady-state cost of a transducer step is the generated loops only.
"""

from __future__ import annotations

from typing import Collection

from ..datalog.evaluation import EvaluationError
from ..datalog.instance import Instance
from ..datalog.program import Program
from .codegen import CompiledRule, compile_rule
from .interning import SymbolTable, decode_database
from .relation import ColumnarDatabase

__all__ = ["KernelEvaluator", "evaluate_semipositive"]


class KernelEvaluator:
    """Semi-naive evaluation of a (semi-)positive program, interned + codegen."""

    def __init__(
        self,
        program: Program,
        *,
        check_semipositive: bool = True,
        table: SymbolTable | None = None,
    ) -> None:
        if check_semipositive and not program.is_semi_positive():
            raise EvaluationError(
                "program negates idb relations; use the stratified evaluator"
            )
        self._program = program
        self._table = table if table is not None else SymbolTable()
        self._ground: list[CompiledRule] = []
        self._seeded: list[CompiledRule] = []
        self.compiled = 0
        for rule in program:
            if not rule.pos:
                self._ground.append(compile_rule(rule, None, self._table))
                self.compiled += 1
            else:
                # One specialization per delta-seed occurrence; rule.pos is a
                # frozenset, so every atom is a distinct occurrence.
                for atom in sorted(rule.pos, key=repr):
                    self._seeded.append(compile_rule(rule, atom, self._table))
                    self.compiled += 1

    @property
    def table(self) -> SymbolTable:
        return self._table

    def run(self, instance: Instance, *, max_iterations: int | None = None) -> Instance:
        """Compute the minimal fixpoint of T_P containing *instance*."""
        intern = self._table.intern
        db = ColumnarDatabase()
        delta: dict[str, list[tuple[int, ...]]] = {}
        for fact in instance:
            row = tuple(intern(value) for value in fact.values)
            if db.add(fact.relation, row):
                delta.setdefault(fact.relation, []).append(row)
        self.saturate(db, delta, max_iterations=max_iterations)
        return decode_database(db.rows(), self._table)

    def saturate(
        self,
        db: ColumnarDatabase,
        delta: dict[str, Collection[tuple[int, ...]]],
        *,
        max_iterations: int | None = None,
    ) -> None:
        """Close *db* under the program, in place.

        *delta* maps relation names to the rows of *db* not yet joined
        against (for a fresh database: all of them).  The mapping is
        consumed; its row collections are only read.
        """
        # Ground rules have no delta atom to seed a join, so they fire once
        # up front (their bodies read only fixed relations); each derivation
        # is visible to subsequent ground rules.
        for compiled in self._ground:
            out: list[tuple[int, ...]] = []
            compiled.fire(db, (), out.append)
            head = compiled.head_relation
            new_rows = [row for row in out if db.add(head, row)]
            if new_rows:
                delta[head] = [*delta.get(head, ()), *new_rows]
        iterations = 0
        while delta:
            iterations += 1
            if max_iterations is not None and iterations > max_iterations:
                raise EvaluationError(
                    f"fixpoint did not converge within {max_iterations} iterations"
                )
            # Collect every fresh head against the iteration-start database
            # before applying any of them (the semi-naive barrier).
            fresh: dict[str, set[tuple[int, ...]]] = {}
            for compiled in self._seeded:
                rows = delta.get(compiled.seed_relation)
                if not rows:
                    continue
                out = []
                compiled.fire(db, rows, out.append)
                if out:
                    fresh.setdefault(compiled.head_relation, set()).update(out)
            delta = {}
            for head, candidates in fresh.items():
                new_rows = [row for row in candidates if db.add(head, row)]
                if new_rows:
                    delta[head] = new_rows


def evaluate_semipositive(
    program: Program, instance: Instance, *, max_iterations: int | None = None
) -> Instance:
    """Kernel twin of :func:`repro.datalog.evaluation.evaluate_semipositive`."""
    return KernelEvaluator(program).run(instance, max_iterations=max_iterations)

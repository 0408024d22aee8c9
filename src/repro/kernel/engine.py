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

:class:`StratifiedKernel` is what
:class:`repro.datalog.stratified.StratifiedEvaluator` runs on: one
``KernelEvaluator`` per stratum, all on one shared symbol table, so an
evaluation interns its input once, saturates the strata in order on one
database and decodes only the relations the caller asks for.
"""

from __future__ import annotations

from typing import Collection, Iterable

from ..datalog.evaluation import EvaluationError
from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.terms import Fact
from .codegen import CompiledRule, compile_rule
from .interning import SymbolTable, decode_database, intern_instance
from .relation import ColumnarDatabase, ColumnarRelation

__all__ = ["KernelEvaluator", "StratifiedKernel", "evaluate_semipositive"]


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
        #: The relations some rule specialization takes its delta from.
        self.seed_relations = frozenset(
            compiled.seed_relation for compiled in self._seeded
        )

    @property
    def table(self) -> SymbolTable:
        return self._table

    def run(self, instance: Instance, *, max_iterations: int | None = None) -> Instance:
        """Compute the minimal fixpoint of T_P containing *instance*."""
        db = _interned(instance, self._table)
        delta = {name: list(rows) for name, rows in db.rows().items()}
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
            out: set[tuple[int, ...]] = set()
            compiled.fire(db, (), out.add)
            head = compiled.head_relation
            new_rows = db.relation(head).merge(out)
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
                head = compiled.head_relation
                candidates = fresh.get(head)
                if candidates is None:
                    candidates = fresh[head] = set()
                compiled.fire(db, rows, candidates.add)
            delta = {}
            for head, candidates in fresh.items():
                new_rows = db.relation(head).merge(candidates)
                if new_rows:
                    delta[head] = new_rows


class StratifiedKernel:
    """The strata of one program compiled on one shared symbol table.

    Long-lived like :class:`KernelEvaluator`: built once, then every
    :meth:`saturate` is one interned database taken through every stratum.
    """

    def __init__(self, strata: Iterable[Program]) -> None:
        self.table = table = SymbolTable()
        self.kernels = tuple(
            KernelEvaluator(stage, check_semipositive=False, table=table)
            for stage in strata
        )

    @property
    def compiled(self) -> int:
        return sum(kernel.compiled for kernel in self.kernels)

    def saturate(
        self, facts: Iterable[Fact], *, max_iterations: int | None = None
    ) -> ColumnarDatabase:
        """Intern *facts* once and close the database under each stratum in
        turn.

        ``max_iterations`` bounds the delta iterations of every stratum on
        its own.  They start from the rows of the stratum's seed relations
        and its ground rules' heads: a stratum with neither makes none,
        where :meth:`KernelEvaluator.run` over the same rows makes one
        (:meth:`repro.datalog.StratifiedEvaluator.run` restores that count
        for a cap of 0, the only cap it changes).
        """
        db = _interned(facts, self.table)
        for kernel in self.kernels:
            # A stratum starts from everything below it: the current rows of
            # each relation it seeds on.  Copied: its merges grow those sets
            # in place, and the first delta is the rows it started with.
            delta = {
                name: list(db.relation(name).tuples)
                for name in kernel.seed_relations
                if name in db
            }
            kernel.saturate(db, delta, max_iterations=max_iterations)
        return db

    def decode(self, db: ColumnarDatabase, relations: Iterable[str]) -> Instance:
        """The facts of *relations* only, decoded from *db*."""
        return decode_database(
            {name: db.relation(name).tuples for name in relations}, self.table
        )


def _interned(facts: Iterable[Fact], table: SymbolTable) -> ColumnarDatabase:
    """A fresh database of *facts*, interned through *table*."""
    return ColumnarDatabase(
        ColumnarRelation(name, rows)
        for name, rows in intern_instance(facts, table).items()
    )


def evaluate_semipositive(
    program: Program, instance: Instance, *, max_iterations: int | None = None
) -> Instance:
    """Kernel twin of :func:`repro.datalog.evaluation.evaluate_semipositive`."""
    return KernelEvaluator(program).run(instance, max_iterations=max_iterations)

"""The Gelder operator Γ on the kernel: frozen negation through twin relations.

Γ(S) is the least fixpoint of a program in which a negated idb atom
``not R(..)`` holds iff ``R(..) ∉ S``.  With S fixed that is a
semi-positive program, so the kernel's ordinary pipeline evaluates it:
every negated idb atom is renamed to a *twin* relation (``R__assumed``)
whose rows are S's rows of ``R``, the renamed program compiles once through
:class:`~repro.kernel.engine.KernelEvaluator`, and each Γ is one
``saturate`` over a fresh database — no second codegen path and no second
fixpoint loop.

A :class:`GammaSession` is one evaluation: the instance is interned once,
the relations no rule derives are shared (built column indexes included) by
every Γ of the alternating fixpoint, the approximations stay interned row
sets throughout, and only what the caller asks for is decoded at the end.
The alternation itself lives in :mod:`repro.datalog.wellfounded`, written
once for this backend and for the naive oracle.
"""

from __future__ import annotations

from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Atom
from .engine import KernelEvaluator
from .interning import SymbolTable, decode_database, intern_instance
from .relation import ColumnarDatabase, ColumnarRelation

__all__ = ["ASSUMED_SUFFIX", "FrozenNegationKernel", "GammaSession", "Rows"]

#: idb relation name -> its interned rows; one approximation of the model.
Rows = dict[str, set[tuple[int, ...]]]

ASSUMED_SUFFIX = "__assumed"


def _twin_names(program: Program) -> dict[str, str]:
    """negated idb relation -> a twin name no relation of *program* uses.

    ``R__assumed`` is a legal identifier, so a program may already define
    it; the twin is then lengthened until it is free.  Instance facts
    cannot collide: only relations of ``sch(P)`` enter the database.
    """
    taken = set(program.sch())
    twins: dict[str, str] = {}
    negated = {
        atom.relation
        for rule in program
        for atom in rule.neg
        if program.is_idb(atom.relation)
    }
    for relation in sorted(negated):
        twin = relation + ASSUMED_SUFFIX
        while twin in taken:
            twin += "_"
        taken.add(twin)
        twins[relation] = twin
    return twins


class FrozenNegationKernel:
    """A program compiled once into its frozen-negation form.

    Long-lived like :class:`KernelEvaluator`: the symbol table is
    append-only across :meth:`session` calls, so the generated code never
    recompiles.
    """

    def __init__(self, program: Program, *, table: SymbolTable | None = None) -> None:
        #: Every relation a rule can read; other input facts stay outside.
        self.relations = frozenset(program.sch())
        self.idb = tuple(program.idb())
        #: negated idb relation -> the twin its negation reads.
        self.twins = twins = _twin_names(program)
        frozen = Program(
            Rule(
                rule.head,
                rule.pos,
                (Atom(twins.get(atom.relation, atom.relation), atom.terms) for atom in rule.neg),
                rule.ineq,
            )
            for rule in program
        )
        # Semi-positive by construction (checked by the constructor): every
        # negated relation left is edb(P) or a twin, and no rule derives
        # either.
        self.evaluator = KernelEvaluator(frozen, table=table)

    @property
    def table(self) -> SymbolTable:
        return self.evaluator.table

    @property
    def compiled(self) -> int:
        return self.evaluator.compiled

    def session(self, instance: Instance) -> "GammaSession":
        return GammaSession(self, instance)


class GammaSession:
    """Γ over one interned instance (see the module docstring)."""

    def __init__(self, owner: FrozenNegationKernel, instance: Instance) -> None:
        self._owner = owner
        self._instance = instance
        # Facts over relations no rule reads stay outside the database;
        # they rejoin the model in true().
        fixed = intern_instance(
            (fact for fact in instance if fact.relation in owner.relations),
            owner.table,
        )
        #: The first under-approximation: the idb facts of the input.
        self.start: Rows = {name: fixed.pop(name, set()) for name in owner.idb}
        self._fixed = [ColumnarRelation(name, rows) for name, rows in fixed.items()]
        # Every Γ starts from the whole input; the row sets are only read.
        self._delta = {
            name: rows
            for name, rows in (*fixed.items(), *self.start.items())
            if rows
        }

    def gamma(self, assumed: Rows) -> Rows:
        """Γ(*assumed*): semi-naive from the input, negation read from the
        twins, which hold *assumed* by reference (nothing writes to them)."""
        owner = self._owner
        db = ColumnarDatabase(
            [
                *self._fixed,
                *(
                    ColumnarRelation(twin, assumed[relation])
                    for relation, twin in owner.twins.items()
                ),
                *(
                    ColumnarRelation(name, set(rows))
                    for name, rows in self.start.items()
                ),
            ]
        )
        owner.evaluator.saturate(db, dict(self._delta))
        return {name: db.relation(name).tuples for name in owner.idb}

    @staticmethod
    def size(rows: Rows) -> int:
        return sum(map(len, rows.values()))

    def true(self, under: Rows, relations: frozenset[str] | None = None) -> Instance:
        """The true facts: the input plus *under*, or with *relations* only
        the derived facts of those idb relations."""
        table = self._owner.table
        if relations is None:
            return self._instance | decode_database(under, table)
        return decode_database({name: under[name] for name in relations}, table)

    def undefined(self, under: Rows, over: Rows) -> Instance:
        return decode_database(
            {name: rows - under[name] for name, rows in over.items()},
            self._owner.table,
        )

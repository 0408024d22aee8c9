"""The Gelder operator Γ on the kernel: frozen negation through twin relations.

Γ(S) is the least fixpoint of a program in which a negated idb atom
``not R(..)`` holds iff ``R(..) ∉ S``.  With S fixed that is a
semi-positive program, so the kernel's ordinary pipeline evaluates it:
every negated idb atom is renamed to a *twin* relation (``R__assumed``)
whose rows are S's rows of ``R``, the renamed program compiles once through
:class:`~repro.kernel.engine.KernelEvaluator`, and Γ is that evaluator's
``saturate`` — no second fixpoint loop.

A :class:`GammaSession` is one evaluation of the alternating fixpoint, and
each Γ continues the previous Γ of its half instead of starting again from
the input.  The session keeps two live databases: the *under* half holds
Γ(over) and the *over* half holds Γ(under).  Along the alternation the
over-approximations only shrink and the under-approximations only grow, so:

* an under Γ sees its twins lose rows.  Only derivations through a negated
  twin atom whose row left can be new: the codegen's negated-seed
  specialization runs on those rows, and its heads start ``saturate``'s Δ;
* an over Γ sees its twins gain rows, and rows are removed by
  delete-and-rederive (DRed; Gupta, Mumick & Subrahmanian, SIGMOD 1993):
  the same negated-seed specialization, run on the rows that entered
  before the twin takes them, finds the first over-deletions; the
  semi-naive specializations spread them through positive bodies against
  the state before deletion; then the rows are deleted, the twin takes its
  new rows, the head-bound probes keep every deleted row that still has a
  derivation, and ``saturate`` closes the database again.

Each half's delta is the other half's change — the rows an under Γ added,
the rows an over Γ removed for good — so a Γ costs what changed, not the
input.  Only the first Γ of each half runs from the input.  The relations
no rule derives are shared, built column indexes included, by both halves;
the approximations stay interned row sets throughout, and only what the
caller asks for is decoded at the end.  The alternation itself lives in
:mod:`repro.datalog.wellfounded`, written once for this backend and for
the naive oracle.
"""

from __future__ import annotations

from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Atom
from .codegen import compile_rule
from .engine import KernelEvaluator, _fire
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
        #: relation -> arity over sch(P): no rule reads any other fact.
        self.arities = dict(program.sch().items())
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
        self.evaluator = evaluator = KernelEvaluator(frozen, table=table)
        # What continuing a Γ needs besides the semi-naive specializations:
        # one negated-seed specialization per negated twin atom, and one
        # head-bound probe per rule (DRed's rederive step).
        twin_names = set(twins.values())
        self.negated = tuple(
            compile_rule(rule, atom, evaluator.table)
            for rule in frozen
            for atom in sorted(rule.neg, key=repr)
            if atom.relation in twin_names
        )
        self.probes = tuple(
            compile_rule(rule, None, evaluator.table, probe=True) for rule in frozen
        )

    @property
    def table(self) -> SymbolTable:
        return self.evaluator.table

    @property
    def compiled(self) -> int:
        return self.evaluator.compiled + len(self.negated) + len(self.probes)

    def session(self, instance: Instance) -> "GammaSession":
        return GammaSession(self, instance)


class GammaSession:
    """The alternating fixpoint's Γs over one interned instance (see the
    module docstring).

    Calls to :meth:`gamma` alternate between the halves, starting with
    ``gamma(start)``, and each returns the live rows of its half: they
    change under the caller's feet at the next Γ of that half.
    """

    def __init__(self, owner: FrozenNegationKernel, instance: Instance) -> None:
        self._owner = owner
        self._instance = instance
        arities = owner.arities
        # Only facts over sch(P) at the schema's arity enter; the rest of
        # the input rejoins the model in true().
        fixed = intern_instance(
            (fact for fact in instance if arities.get(fact.relation) == len(fact.values)),
            owner.table,
        )
        #: idb facts of the input: base facts, which DRed never deletes.
        self._base = base = {name: fixed.pop(name, set()) for name in owner.idb}
        #: What the first Γ of each half joins: the whole input.
        self._input = {
            name: rows for name, rows in (*fixed.items(), *base.items()) if rows
        }
        shared = [ColumnarRelation(name, rows) for name, rows in fixed.items()]
        over_idb = [ColumnarRelation(name, set(rows)) for name, rows in base.items()]
        under_idb = [ColumnarRelation(name, set(rows)) for name, rows in base.items()]
        twins = owner.twins.items()
        # The under half's twins are the over half's live rows.  The over
        # half's twins are its own copies: they take an under Γ's new rows
        # only once the over-deletions those rows cause have been found.
        self._over = over = ColumnarDatabase(
            [
                *shared,
                *over_idb,
                *(ColumnarRelation(twin, set(base[name])) for name, twin in twins),
            ]
        )
        self._under = under = ColumnarDatabase(
            [
                *shared,
                *under_idb,
                *(ColumnarRelation(twin, over.relation(name).tuples) for name, twin in twins),
            ]
        )
        #: The first under-approximation (the idb facts of the input), and
        #: from then on the under half's live rows.
        self.start: Rows = {relation.name: relation.tuples for relation in under_idb}
        self._over_rows: Rows = {relation.name: relation.tuples for relation in over_idb}
        #: twin -> the rows the last under Γ added to its relation (None
        #: before the under half's first Γ).
        self._entered: dict[str, list[tuple[int, ...]]] | None = None
        #: twin -> the rows the last over Γ removed from its relation (None
        #: before the over half's first continued Γ).
        self._left: dict[str, set[tuple[int, ...]]] | None = None

    def gamma(self, assumed: Rows) -> Rows:
        """Γ(*assumed*), where *assumed* is the other half's rows."""
        if assumed is self.start:
            self._over_gamma()
            return self._over_rows
        if assumed is self._over_rows:
            self._under_gamma()
            return self.start
        raise ValueError("Γ continues only from this session's own approximations")

    def _under_gamma(self) -> None:
        owner = self._owner
        left = self._left
        if left is None:
            added = owner.evaluator.saturate(self._under, dict(self._input))
        elif left:
            added = self._saturate(self._under, _fire(owner.negated, self._under, left))
        else:  # the twins did not change, so neither does Γ
            added = {}
        twins = owner.twins
        self._entered = {
            twins[name]: rows for name, rows in added.items() if name in twins
        }

    def _over_gamma(self) -> None:
        owner = self._owner
        db = self._over
        entered = self._entered
        if entered is None:
            owner.evaluator.saturate(db, dict(self._input))
            return
        if not entered:  # the twins did not change, so neither does Γ
            self._left = {}
            return
        deleted = self._overdelete(entered)
        for name, rows in deleted.items():
            db.relation(name).delete(rows)
        for twin, rows in entered.items():
            db.relation(twin).merge(set(rows))
        self._saturate(db, self._rederive(deleted))
        self._left = {
            twin: gone
            for relation, twin in owner.twins.items()
            if (gone := deleted.get(relation, set()) - db.relation(relation).tuples)
        }

    def _overdelete(
        self, entered: dict[str, list[tuple[int, ...]]]
    ) -> dict[str, set[tuple[int, ...]]]:
        """Every non-base row of the over half with a derivation that
        *entered* invalidates, found against the state before deletion."""
        owner = self._owner
        db = self._over
        base = self._base
        deleted: dict[str, set[tuple[int, ...]]] = {}
        frontier = _fire(owner.negated, db, entered)
        while frontier:
            delta = {}
            for name, rows in frontier.items():
                gone = deleted.setdefault(name, set())
                rows = rows - gone - base[name]
                if rows:
                    gone |= rows
                    delta[name] = rows
            frontier = _fire(owner.evaluator._seeded, db, delta)
        return deleted

    def _rederive(
        self, deleted: dict[str, set[tuple[int, ...]]]
    ) -> dict[str, set[tuple[int, ...]]]:
        """The deleted rows that still have a derivation in one step from
        what is left, against the new twins."""
        return _fire(self._owner.probes, self._over, deleted)

    def _saturate(
        self, db: ColumnarDatabase, fresh: dict[str, set[tuple[int, ...]]]
    ) -> dict[str, list[tuple[int, ...]]]:
        """Merge the *fresh* heads into *db* and close it; every row added,
        by relation."""
        delta = {}
        for name, rows in fresh.items():
            new_rows = db.relation(name).merge(rows)
            if new_rows:
                delta[name] = new_rows
        if not delta:
            # Ground rules need not fire again: a change of their twins
            # reaches them through the negated seeds and the probes.
            return {}
        added = self._owner.evaluator.saturate(db, dict(delta))
        for name, rows in delta.items():
            added.setdefault(name, []).extend(rows)
        return added

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

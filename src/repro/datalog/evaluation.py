"""Fixpoint evaluation for (semi-)positive Datalog¬ programs.

Implements the semantics of Section 2 of the paper: the immediate consequence
operator ``T_P`` and its minimal fixpoint.  Negation is permitted only over
relations whose content is *fixed* during the fixpoint (the edb for
semi-positive programs; lower strata for stratified programs — see
:mod:`repro.datalog.stratified`).

Two engines, each reached by name:

* the *reference* — :func:`naive_fixpoint`, which iterates
  :func:`immediate_consequence` over the recursive join of
  :func:`match_rule`.  Nothing here imports :mod:`repro.kernel`, so the
  reference stays independent of the engine it checks.  :func:`match_rule`
  and :class:`FactIndex` also carry the naive well-founded Γ and the ILOG¬
  evaluator.
* the *production engine* — :class:`SemiNaiveEvaluator`, the semi-naive
  fixpoint on the interned kernel (:mod:`repro.kernel`).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping

from .instance import Instance
from .program import Program
from .rules import Rule
from .stratification import stratify
from .terms import Atom, Fact, Variable

__all__ = [
    "FactIndex",
    "match_rule",
    "immediate_consequence",
    "naive_fixpoint",
    "evaluate_semipositive",
    "SemiNaiveEvaluator",
    "EvaluationError",
]


class EvaluationError(RuntimeError):
    """Raised when a program is handed to an evaluator that cannot run it."""


class FactIndex:
    """A mutable index of facts: relation name -> set of value tuples.

    Provides the membership tests and scans the join engine needs, plus
    *lazy* per-column inverted indexes for bound-value lookups: the column
    for ``(relation, position)`` is materialized on the first
    :meth:`lookup` that probes it, and maintained incrementally by
    :meth:`add` from then on.

    Columns no join ever binds are never built, so facts that are only
    scanned pay nothing for indexing.
    """

    __slots__ = ("_tuples", "_columns", "_size")

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._tuples: dict[str, set[tuple]] = {}
        # relation -> {position -> {value -> set of tuples}}; only columns
        # some join has probed exist here.
        self._columns: dict[str, dict[int, dict[Hashable, set[tuple]]]] = {}
        # Running total of facts across all relation buckets: the naive Γ
        # and the ILOG fact budget read ``len`` once per round / per fact.
        self._size = 0
        self.add_all(facts)

    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns True when it was new."""
        bucket = self._tuples.setdefault(fact.relation, set())
        if fact.values in bucket:
            return False
        bucket.add(fact.values)
        self._size += 1
        columns = self._columns.get(fact.relation)
        if columns:
            values = fact.values
            arity = len(values)
            for position, column in columns.items():
                if position < arity:
                    column.setdefault(values[position], set()).add(values)
        return True

    def add_all(self, facts: Iterable[Fact]) -> list[Fact]:
        """Insert many facts; returns the ones that were new."""
        return [fact for fact in facts if self.add(fact)]

    def contains(self, relation: str, values: tuple) -> bool:
        bucket = self._tuples.get(relation)
        return bucket is not None and values in bucket

    def scan(self, relation: str) -> Iterable[tuple]:
        return self._tuples.get(relation, ())

    def lookup(self, relation: str, position: int, value: Hashable) -> Iterable[tuple]:
        """Tuples of *relation* having *value* at *position*.

        Builds the ``(relation, position)`` column on first probe — rows
        too short for the column are skipped, so a lookup past a tuple's
        arity never matches it (same contract as the eager index).
        """
        columns = self._columns.setdefault(relation, {})
        column = columns.get(position)
        if column is None:
            column = {}
            for values in self._tuples.get(relation, ()):
                if position < len(values):
                    column.setdefault(values[position], set()).add(values)
            columns[position] = column
        return column.get(value, ())

    def indexed_columns(self, relation: str) -> tuple[int, ...]:
        """The positions of *relation* with a built column (tests/observability)."""
        return tuple(sorted(self._columns.get(relation, ())))

    def count(self, relation: str) -> int:
        return len(self._tuples.get(relation, ()))

    def relations(self) -> set[str]:
        return {name for name, bucket in self._tuples.items() if bucket}

    def to_instance(self) -> Instance:
        return Instance(
            Fact(relation, values)
            for relation, bucket in self._tuples.items()
            for values in bucket
        )

    def __len__(self) -> int:
        return self._size


def _candidate_tuples(
    index: FactIndex, atom: Atom, binding: Mapping[Variable, Hashable]
) -> Iterable[tuple]:
    """Tuples that could match *atom* given the current partial binding.

    Consults the inverted index on *every* bound position and returns the
    smallest posting list (one ``len`` comparison per bound position) — an
    earlier version returned the first bound position's posting list, which
    can be arbitrarily larger than the best one.
    """
    best: Iterable[tuple] | None = None
    best_len = 0
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term not in binding:
                continue
            value = binding[term]
        else:
            value = term
        postings = index.lookup(atom.relation, position, value)
        size = len(postings)
        if size == 0:
            return ()
        if best is None or size < best_len:
            best, best_len = postings, size
    if best is None:
        return index.scan(atom.relation)
    return best


def _extend_binding(
    atom: Atom, values: tuple, binding: dict[Variable, Hashable]
) -> dict[Variable, Hashable] | None:
    """Unify *atom* with the ground tuple *values* under *binding*.

    Returns the extended binding, or None on mismatch.

    Aliasing contract: when the match binds no *new* variable, the result
    IS *binding* itself — no defensive copy is made, since this runs once
    per candidate tuple in the innermost join loop.  Callers (and the
    consumers of :func:`match_rule`) must treat yielded bindings as frozen:
    read or copy them, never mutate them in place.
    """
    if len(values) != atom.arity:
        return None
    extended = binding
    copied = False
    for term, value in zip(atom.terms, values):
        if isinstance(term, Variable):
            bound = extended.get(term, _UNBOUND)
            if bound is _UNBOUND:
                if not copied:
                    extended = dict(extended)
                    copied = True
                extended[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return extended


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()


def _join(
    atoms: list[Atom], index: FactIndex, binding: dict[Variable, Hashable]
) -> Iterator[dict[Variable, Hashable]]:
    """Enumerate all bindings extending *binding* that match every atom.

    At each step the atom with the most already-bound variables is matched
    next (a greedy bound-first join order).
    """
    if not atoms:
        yield binding
        return

    def boundness(atom: Atom) -> int:
        return sum(
            1
            for term in atom.terms
            if not isinstance(term, Variable) or term in binding
        )

    best = max(range(len(atoms)), key=lambda i: boundness(atoms[i]))
    atom = atoms[best]
    rest = atoms[:best] + atoms[best + 1 :]
    for values in _candidate_tuples(index, atom, binding):
        extended = _extend_binding(atom, values, binding)
        if extended is not None:
            yield from _join(rest, index, extended)



def match_rule(
    rule: Rule,
    positive_index: FactIndex,
    negative_index: FactIndex | None = None,
) -> Iterator[dict[Variable, Hashable]]:
    """Enumerate the satisfying valuations of *rule*.

    Positive atoms are matched against *positive_index*; negated atoms are
    checked against *negative_index* (defaults to the positive index, as in
    the single-instance semantics of the paper).

    Yielded valuations may alias each other and internal join state (see
    the :func:`_extend_binding` aliasing contract): consume them read-only,
    or copy before mutating.
    """
    if negative_index is None:
        negative_index = positive_index
    for valuation in _join(list(rule.pos), positive_index, {}):
        if any(not ineq.satisfied_by(valuation) for ineq in rule.ineq):
            continue
        if any(
            negative_index.contains(atom.relation, atom.apply(valuation).values)
            for atom in rule.neg
        ):
            continue
        yield valuation


def immediate_consequence(program: Program, instance: Instance) -> Instance:
    """One application of the T_P operator: J ∪ {facts derived from J}."""
    index = FactIndex(instance)
    derived: set[Fact] = set(instance)
    for rule in program:
        for valuation in match_rule(rule, index):
            derived.add(rule.derive(valuation))
    return Instance(derived)


def naive_fixpoint(
    program: Program, instance: Instance, *, max_iterations: int | None = None
) -> Instance:
    """The reference semantics: ``P(I)`` by naive iteration of T_P, stratum
    by stratum (a semi-positive program is its own single stratum).

    *max_iterations* bounds the T_P applications per stratum, the
    application that detects the fixpoint included, and fails with the
    production engine's error.
    """
    current = instance
    for stage in stratify(program).strata:
        iterations = 0
        while True:
            iterations += 1
            if max_iterations is not None and iterations > max_iterations:
                raise EvaluationError(
                    f"fixpoint did not converge within {max_iterations} iterations"
                )
            following = immediate_consequence(stage, current)
            if following == current:
                break
            current = following
    return current


class SemiNaiveEvaluator:
    """Semi-naive fixpoint evaluation of a (semi-)positive program.

    Negated atoms are evaluated against the full current database, which is
    sound exactly because semi-positive programs negate only edb relations,
    whose content never changes during the fixpoint.  The stratified
    evaluator relies on the same fact one stratum at a time, where the
    negated relations are those of lower strata.

    The fixpoint runs on :class:`repro.kernel.KernelEvaluator`, built on the
    first :meth:`run` and kept, so an evaluator reused across inputs
    compiles its rules once.
    """

    def __init__(self, program: Program, *, check_semipositive: bool = True) -> None:
        if check_semipositive and not program.is_semi_positive():
            raise EvaluationError(
                "program negates idb relations; use the stratified evaluator"
            )
        self._program = program
        self._kernel = None

    @property
    def plans_compiled(self) -> int:
        """Rule specializations the kernel generated for this evaluator
        (0 until the first :meth:`run`)."""
        return self._kernel.compiled if self._kernel is not None else 0

    def run(self, instance: Instance, *, max_iterations: int | None = None) -> Instance:
        """Compute the minimal fixpoint of T_P containing *instance*."""
        if self._kernel is None:
            # Imported here: repro.kernel imports this module.
            from ..kernel.engine import KernelEvaluator

            self._kernel = KernelEvaluator(self._program, check_semipositive=False)
        return self._kernel.run(instance, max_iterations=max_iterations)


def evaluate_semipositive(
    program: Program, instance: Instance, *, max_iterations: int | None = None
) -> Instance:
    """Evaluate a semi-positive program on *instance* (Section 2 semantics).

    The result contains the input facts plus all derived idb facts, mirroring
    the paper's ``P(I)`` which includes I itself.
    """
    return SemiNaiveEvaluator(program).run(instance, max_iterations=max_iterations)

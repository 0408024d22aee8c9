"""Stratified semantics for Datalog¬ (Section 2 of the paper).

Given a syntactic stratification P1, ..., Pk of a program P, the output of P
on input I is ``Pk(P(k-1)(... P1(I) ...))``: each stratum is evaluated as a
semi-positive program over the result of the strata below it.  The paper
notes that the output does not depend on the chosen stratification; the tests
exercise this by comparing against brute-force alternatives.
"""

from __future__ import annotations

from .instance import Instance
from .program import Program
from .stratification import Stratification, stratify

__all__ = ["EvaluationError", "evaluate_stratified", "StratifiedEvaluator", "evaluate"]


class EvaluationError(RuntimeError):
    """Raised when a program is handed to an evaluator that cannot run it."""


class StratifiedEvaluator:
    """Evaluator for stratified Datalog¬ programs.

    The stratification is computed once at construction, so a single
    evaluator can be reused across many inputs (as the transducer runtime
    and the benchmarks do).  On the first evaluation every stratum's rules
    compile, once for the evaluator's lifetime, against one shared symbol
    table (:class:`repro.kernel.StratifiedKernel`).  Each evaluation then
    interns its input once, saturates the strata in order on that one
    database, and decodes only what is returned.
    """

    def __init__(self, program: Program, stratification: Stratification | None = None) -> None:
        self._stratification = stratification or stratify(program)
        # Only facts over sch(P) at the schema's arity can take part: no
        # rule reads any other fact, and a fact of another arity matches no
        # atom.  The check Schema.contains_fact makes, done once per input
        # fact, so every row in the database is already over the schema.
        self._arities = dict(program.sch().items())
        self._idb = tuple(program.idb())
        self._output = tuple(sorted(program.output_relations))
        self._kernel = None

    @property
    def stratification(self) -> Stratification:
        return self._stratification

    @property
    def plans_compiled(self) -> int:
        """Rule specializations the kernel generated, over all strata
        (0 until the first evaluation)."""
        kernel = self._kernel
        return kernel.compiled if kernel is not None else 0

    def _saturate(self, instance: Instance, max_iterations: int | None):
        kernel = self._kernel
        if kernel is None:
            # Imported here: repro.kernel imports this package.  One
            # assignment publishes the table and the strata together.
            from ..kernel.engine import StratifiedKernel

            kernel = self._kernel = StratifiedKernel(self._stratification.strata)
        arities = self._arities
        db = kernel.saturate(
            (fact for fact in instance if arities.get(fact.relation) == len(fact.values)),
            max_iterations=max_iterations,
        )
        return kernel, db

    def run(self, instance: Instance, *, max_iterations: int | None = None) -> Instance:
        """The full fixpoint P(I) (input facts included, per the paper).

        *max_iterations* bounds the delta iterations of every stratum, the
        one that finds nothing new included, so a cap of 0 fails on any
        non-empty instance.
        """
        if max_iterations == 0 and instance and self._stratification.strata:
            # The shared database may hand a stratum no rows to join, and
            # the kernel then makes no iteration; the count does not change.
            raise EvaluationError("fixpoint did not converge within 0 iterations")
        kernel, db = self._saturate(instance, max_iterations)
        return instance | kernel.decode(db, self._idb)

    def output(self, instance: Instance) -> Instance:
        """Only the designated output relations: ``P(I)|_{sigma_out}``."""
        kernel, db = self._saturate(instance, None)
        return kernel.decode(db, self._output)


def evaluate_stratified(program: Program, instance: Instance) -> Instance:
    """One-shot stratified evaluation of *program* on *instance*."""
    return StratifiedEvaluator(program).run(instance)


def evaluate(program: Program, instance: Instance) -> Instance:
    """Evaluate *program* under the appropriate semantics and project to its
    output relations.

    This is the "compute the query expressed by P" operation of Section 2:
    ``Q(I) = P(I)|_{sigma'}`` for the designated output schema.
    """
    return StratifiedEvaluator(program).output(instance)

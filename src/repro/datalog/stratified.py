"""Stratified semantics for Datalog¬ (Section 2 of the paper).

Given a syntactic stratification P1, ..., Pk of a program P, the output of P
on input I is ``Pk(P(k-1)(... P1(I) ...))``: each stratum is evaluated as a
semi-positive program over the result of the strata below it.  The paper
notes that the output does not depend on the chosen stratification; the tests
exercise this by comparing against brute-force alternatives.
"""

from __future__ import annotations

from .evaluation import SemiNaiveEvaluator
from .instance import Instance
from .program import Program
from .stratification import Stratification, stratify

__all__ = ["evaluate_stratified", "StratifiedEvaluator", "evaluate"]


class StratifiedEvaluator:
    """Evaluator for stratified Datalog¬ programs.

    The stratification is computed once at construction, so a single
    evaluator can be reused across many inputs (as the transducer runtime
    and the benchmarks do); each stratum's rules compile once for the
    evaluator's lifetime.
    """

    def __init__(self, program: Program, stratification: Stratification | None = None) -> None:
        self._program = program
        self._stratification = stratification or stratify(program)
        self._stages = tuple(
            SemiNaiveEvaluator(stage, check_semipositive=False)
            for stage in self._stratification.strata
        )

    @property
    def stratification(self) -> Stratification:
        return self._stratification

    @property
    def plans_compiled(self) -> int:
        """Rule specializations the kernel generated, over all strata."""
        return sum(stage.plans_compiled for stage in self._stages)

    def run(self, instance: Instance, *, max_iterations: int | None = None) -> Instance:
        """The full fixpoint P(I) (input facts included, per the paper)."""
        current = instance
        for stage in self._stages:
            current = stage.run(current, max_iterations=max_iterations)
        return current

    def output(self, instance: Instance) -> Instance:
        """Only the designated output relations: ``P(I)|_{sigma_out}``."""
        return self.run(instance).restrict(self._program.output_schema())


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

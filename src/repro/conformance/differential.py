"""The differential engine: one case, four stacks, byte-identical outputs.

The paper's confluence results (Theorems 4.3–4.5, plus the barrier fallback
by construction) say every evaluation strategy must agree with the
centralized Q(I), so the engine has a sharp oracle: run one (program,
instance) through every stack and require identical output fingerprints.
The first divergence is reported with full provenance — program text,
facts, runtime knobs, and per-stack fingerprints — which the shrinker then
minimizes into a corpus entry.

Mutations are intentionally-planted evaluator bugs (used to validate that
the fuzzer actually catches real divergence classes): each one is a small
semantics-breaking program transform applied inside a single stack, e.g.
dropping inequality filters or capping the fixpoint at one iteration.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..transducers.telemetry import output_fingerprint
from .stacks import (
    DEFAULT_STACK_NAMES,
    EvaluationStack,
    StackContext,
    build_stacks,
)

__all__ = [
    "DifferentialCase",
    "StackOutcome",
    "CaseVerdict",
    "MUTATIONS",
    "MutatedStack",
    "run_case",
]


@dataclass(frozen=True)
class DifferentialCase:
    """One fuzz case: a program, an input instance, and runtime knobs."""

    program: Program
    instance: Instance
    context: StackContext

    def program_text(self) -> str:
        return "\n".join(repr(rule) for rule in self.program.rules)

    def facts_text(self) -> str:
        return " ".join(f"{fact!r}." for fact in self.instance.sorted_facts())


@dataclass(frozen=True)
class StackOutcome:
    """What one stack produced on a case."""

    stack: str
    fingerprint: str | None
    output_facts: int | None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "stack": self.stack,
            "fingerprint": self.fingerprint,
            "output_facts": self.output_facts,
            "error": self.error,
        }


@dataclass(frozen=True)
class CaseVerdict:
    """The differential verdict: all stack outcomes plus the divergences."""

    case: DifferentialCase
    outcomes: tuple[StackOutcome, ...]

    @property
    def baseline(self) -> StackOutcome:
        return self.outcomes[0]

    @property
    def divergences(self) -> tuple[StackOutcome, ...]:
        expected = self.baseline.fingerprint
        return tuple(
            outcome
            for outcome in self.outcomes[1:]
            if outcome.error is not None or outcome.fingerprint != expected
        )

    @property
    def passed(self) -> bool:
        return self.baseline.error is None and not self.divergences

    def provenance(self) -> dict:
        """A JSON-ready record of the full divergence context."""
        return {
            "program": self.case.program_text(),
            "output_relations": sorted(self.case.program.output_relations),
            "edb": {
                name: self.case.program.edb().arity(name)
                for name in sorted(self.case.program.edb())
            },
            "facts": self.case.facts_text(),
            "context": self.case.context.to_dict(),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "passed": self.passed,
        }


# ----------------------------------------------------------------------
# Planted mutations
# ----------------------------------------------------------------------


def _strip_inequalities(program: Program) -> Program:
    """Drop every inequality filter — breaks Datalog(≠) programs."""
    rules = [Rule(r.head, r.pos, r.neg, ()) for r in program.rules]
    return Program(
        rules, output_relations=program.output_relations, extra_edb=program.edb()
    )


def _strip_negation(program: Program) -> Program:
    """Drop every negated body atom — breaks stratified programs."""
    rules = [Rule(r.head, r.pos, (), r.ineq) for r in program.rules]
    return Program(
        rules, output_relations=program.output_relations, extra_edb=program.edb()
    )


def _wfs_over_approximation(program: Program) -> Program:
    """Hold every negated idb atom of a non-stratifiable program satisfied:
    the alternating fixpoint cut after its first Γ, i.e. Γ(∅) passed off as
    the true facts.  Stratifiable programs are untouched, so only the
    well-founded fragment of the generator can catch it."""
    from ..datalog.stratification import is_stratifiable

    if is_stratifiable(program):
        return program
    rules = [
        Rule(
            r.head,
            r.pos,
            (atom for atom in r.neg if not program.is_idb(atom.relation)),
            r.ineq,
        )
        for r in program.rules
    ]
    return Program(
        rules, output_relations=program.output_relations, extra_edb=program.edb()
    )


#: name -> program transform.  Each mimics a realistic evaluator bug class
#: (a filter silently skipped, a fixpoint cut short).
MUTATIONS: dict[str, Callable[[Program], Program]] = {
    "strip-inequalities": _strip_inequalities,
    "strip-negation": _strip_negation,
    "wfs-over-approximation": _wfs_over_approximation,
}


class MutatedStack(EvaluationStack):
    """A stack with a planted bug: evaluates a *transformed* program."""

    def __init__(self, base: EvaluationStack, mutation: str) -> None:
        self._base = base
        self._transform = MUTATIONS[mutation]
        self.name = base.name
        self.mutation = mutation

    def evaluate(self, program, instance, context):
        return self._base.evaluate(self._transform(program), instance, context)


# ----------------------------------------------------------------------
# Running a case
# ----------------------------------------------------------------------


def run_case(
    case: DifferentialCase,
    *,
    stacks: Sequence[EvaluationStack] | Sequence[str] | None = None,
    mutate: dict[str, str] | None = None,
) -> CaseVerdict:
    """Run *case* through every stack and compare output fingerprints.

    ``mutate`` maps stack names to mutation names; the named stacks run
    with the planted bug (fuzzer-validation runs only).  Stack errors are
    captured as outcomes, not raised — a crash in one engine is itself a
    divergence.
    """
    if stacks is None:
        stacks = build_stacks(DEFAULT_STACK_NAMES)
    elif stacks and isinstance(stacks[0], str):
        stacks = build_stacks(tuple(stacks))
    if mutate:
        stacks = tuple(
            MutatedStack(stack, mutate[stack.name])
            if stack.name in mutate
            else stack
            for stack in stacks
        )
    outcomes = []
    for stack in stacks:
        try:
            output = stack.evaluate(case.program, case.instance, case.context)
        except Exception:
            outcomes.append(
                StackOutcome(
                    stack=stack.name,
                    fingerprint=None,
                    output_facts=None,
                    error=traceback.format_exc(limit=3),
                )
            )
            continue
        outcomes.append(
            StackOutcome(
                stack=stack.name,
                fingerprint=output_fingerprint(output),
                output_facts=len(output),
            )
        )
    return CaseVerdict(case=case, outcomes=tuple(outcomes))

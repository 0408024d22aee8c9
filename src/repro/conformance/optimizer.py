"""The optimizer soundness oracle — the eighth conformance dimension.

The per-stratum optimizer (:mod:`repro.optimizer`) routes programs to
coordination-free protocols on the strength of a criterion *finer* than
the paper's three syntactic fragments.  A finer criterion is exactly the
kind of code that can be wrong in a way no unit test notices, so every
generator-sampled program is held to three obligations:

* **evidence audit** — a claimed class must be *entailed by the
  certificate's own per-stratum evidence*: an upgrade past the
  analyzer's guarantee is only ever justified by every stratum of the
  negation cone being head-dominant, and those per-stratum booleans are
  recomputed independently of the classification ladder.  A certificate
  that asserts more than its evidence supports is unsound on its face,
  no counterexample required;
* **downward consistency** — each stratum's standalone classification is
  at least as strong as the whole-program effective class (the Figure-2
  inclusions, read per stratum);
* **certificate soundness** — the claimed monotonicity class survives
  empirical refutation, both on deltas anchored at the fuzz iteration's
  actual instance and on seeded random (I, J) pairs of the class's
  defining addition kind;
* **execution byte-identity** — the optimized plan's output fingerprint
  equals the All-barrier baseline's on the same input and seed.  Sound
  routing may change *cost*, never *content*.

The planted mutation (``misclassify-stratum``) certifies every
stratified negation cone as distinct-safe without running the
head-dominance test — precisely the unsound shortcut a refactor could
introduce — and the self-check demands the oracle catch it within a
fixed iteration budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..datalog.instance import Instance
from ..datalog.program import Program
from ..monotonicity.checker import check_monotonicity, random_pairs
from ..monotonicity.classes import MonotonicityClass, violation_on
from ..optimizer.plan import (
    OPTIMIZER_MUTATIONS,
    downward_consistent,
    plan_optimized,
)
from ..optimizer.executor import run_comparison
from .generator import sample_delta
from .metamorphic import _facts_text
from .stacks import StackContext

__all__ = [
    "OPTIMIZER_MUTATIONS",
    "OptimizerViolation",
    "check_optimizer",
    "shrink_optimizer",
]


@dataclass(frozen=True)
class OptimizerViolation:
    """An unsound optimizer decision, reproducibly."""

    program_text: str
    output_relations: tuple[str, ...]
    fragment: str
    baseline_monotonicity: str | None
    claimed_monotonicity: str | None
    reason: str  # "unsupported-claim" | "downward-inconsistent" | "certificate-refuted" | "execution-divergence"
    detail: str
    base_text: str
    delta_text: str

    def to_dict(self) -> dict:
        return {
            "program": self.program_text,
            "output_relations": list(self.output_relations),
            "fragment": self.fragment,
            "baseline_monotonicity": self.baseline_monotonicity,
            "claimed_monotonicity": self.claimed_monotonicity,
            "reason": self.reason,
            "detail": self.detail,
            "base": self.base_text,
            "delta": self.delta_text,
        }

    def describe(self) -> str:
        claimed = self.claimed_monotonicity or "barrier"
        if self.reason == "unsupported-claim":
            return (
                f"optimizer claimed {claimed} for a {self.fragment} program "
                f"(analyzer guarantees "
                f"{self.baseline_monotonicity or 'nothing'}) without "
                f"supporting per-stratum evidence: {self.detail}"
            )
        if self.reason == "downward-inconsistent":
            return (
                f"optimizer certified a {self.fragment} program as {claimed} "
                f"but a stratum carries a weaker standalone class: {self.detail}"
            )
        if self.reason == "certificate-refuted":
            return (
                f"optimizer claimed {claimed} for a {self.fragment} program "
                f"but the class was refuted empirically: {self.detail}"
            )
        return (
            f"optimized plan for a {self.fragment} program (claimed "
            f"{claimed}) diverged from its All-barrier baseline: {self.detail}"
        )


def _violation(
    program: Program,
    optimized,
    *,
    reason: str,
    detail: str,
    base: Instance | None = None,
    delta: Instance | None = None,
) -> OptimizerViolation:
    return OptimizerViolation(
        program_text="\n".join(repr(rule) for rule in program.rules),
        output_relations=tuple(sorted(program.output_relations)),
        fragment=optimized.baseline.analysis.fragment,
        baseline_monotonicity=optimized.baseline.analysis.monotonicity,
        claimed_monotonicity=optimized.effective_monotonicity,
        reason=reason,
        detail=detail,
        base_text=_facts_text(base) if base is not None else "",
        delta_text=_facts_text(delta) if delta is not None else "",
    )


def _unsupported_claim(optimized) -> str | None:
    """The evidence audit: why the claimed class is not entailed by the
    plan's own recorded evidence, or None when it is.

    The analyzer's whole-program guarantee supports any claim up to its
    own strength.  The only upgrade path past it is the distinct-safe
    criterion, whose proof obligation — head-dominance of the negation
    cone — is recorded per stratum by
    :func:`repro.optimizer.strata.stratum_breakdown` *independently* of
    the classification ladder, so a classifier bug cannot fabricate it.
    """
    from ..optimizer.strata import CLASS_STRENGTH

    claimed = optimized.effective_monotonicity
    baseline = optimized.baseline.analysis.monotonicity
    if claimed is None or CLASS_STRENGTH[claimed] <= CLASS_STRENGTH[baseline]:
        return None
    if claimed == "Mdistinct":
        if not optimized.strata:
            return "claimed Mdistinct for an unstratifiable program"
        bad = [
            f"stratum {s.index} ({', '.join(s.heads)})"
            for s in optimized.strata
            if not s.head_dominant
        ]
        if bad:
            return (
                "negation cone is not head-dominant in "
                + "; ".join(bad)
            )
        return None
    return (
        f"no criterion upgrades {baseline or 'an unguaranteed program'} "
        f"to {claimed}"
    )


def check_optimizer(
    program: Program,
    instance: Instance,
    rng: random.Random,
    context: StackContext,
    *,
    pairs: int = 12,
    deltas: int = 3,
    mutate: str | None = None,
) -> OptimizerViolation | None:
    """Hold the optimizer's decision for *program* to its three
    obligations on this fuzz iteration's *instance*.

    ``mutate`` plants one of :data:`OPTIMIZER_MUTATIONS` into the
    classification (the baseline arm stays honest) for the self-check.
    """
    if mutate is not None and mutate not in OPTIMIZER_MUTATIONS:
        raise ValueError(f"unknown optimizer mutation {mutate!r}")
    optimized = plan_optimized(program, mutate=mutate)

    unsupported = _unsupported_claim(optimized)
    if unsupported is not None:
        return _violation(
            program, optimized, reason="unsupported-claim", detail=unsupported
        )

    if not downward_consistent(optimized):
        weak = [
            f"stratum {s.index} ({', '.join(s.heads)}): {s.monotonicity}"
            for s in optimized.strata
        ]
        return _violation(
            program,
            optimized,
            reason="downward-inconsistent",
            detail="; ".join(weak),
        )

    claimed = optimized.effective_monotonicity
    if claimed is not None:
        kind = MonotonicityClass(claimed).addition_kind
        query = optimized.plan.query
        base = instance.restrict(program.edb())
        for _ in range(deltas):
            delta = sample_delta(rng, base, program.edb(), kind)
            if not delta:
                continue
            witness = violation_on(query, base, delta)
            if witness is not None:
                return _violation(
                    program,
                    optimized,
                    reason="certificate-refuted",
                    detail=witness.describe(),
                    base=base,
                    delta=delta,
                )
        verdict = check_monotonicity(
            query,
            kind,
            random_pairs(
                query.input_schema, kind, count=pairs, seed=context.seed
            ),
        )
        if not verdict.holds:
            return _violation(
                program,
                optimized,
                reason="certificate-refuted",
                detail=verdict.violation.describe(),
                base=verdict.violation.base,
                delta=verdict.violation.addition,
            )

    comparison = run_comparison(
        program,
        instance,
        nodes=len(context.nodes),
        seed=context.seed,
        mutate=mutate,
    )
    if not comparison.byte_identical:
        return _violation(
            program,
            optimized,
            reason="execution-divergence",
            detail=(
                f"{comparison.optimized.protocol} produced "
                f"{len(comparison.optimized.output)} output facts "
                f"({comparison.optimized.fingerprint[:12]}) vs barrier "
                f"{len(comparison.barrier.output)} "
                f"({comparison.barrier.fingerprint[:12]})"
            ),
            base=instance.restrict(program.edb()),
        )
    return None


def shrink_optimizer(
    violation: OptimizerViolation,
    context: StackContext,
    *,
    mutate: str | None = None,
    max_passes: int = 5,
) -> OptimizerViolation:
    """Greedy minimization: drop rules, then base facts, then delta facts,
    while the violation keeps reproducing (mirrors
    :func:`repro.conformance.streaming.shrink_streaming`)."""
    from ..datalog.parser import parse_facts, parse_program
    from .shrinker import _without_rule

    program = parse_program(violation.program_text)
    base = Instance(parse_facts(violation.base_text))
    delta = Instance(parse_facts(violation.delta_text))

    def failing(
        candidate: Program, cand_base: Instance, cand_delta: Instance
    ) -> OptimizerViolation | None:
        try:
            return check_optimizer(
                candidate,
                cand_base | cand_delta,
                random.Random(context.seed),
                context,
                mutate=mutate,
            )
        except Exception:
            return None

    best = violation
    for _ in range(max_passes):
        progressed = False

        index = 0
        while index < len(program.rules):
            candidate = _without_rule(program, index)
            if candidate is not None:
                found = failing(candidate, base, delta)
                if found is not None:
                    program, best, progressed = candidate, found, True
                    continue
            index += 1

        for fact in base.sorted_facts():
            shrunk = Instance(f for f in base if f != fact)
            found = failing(program, shrunk, delta)
            if found is not None:
                base, best, progressed = shrunk, found, True

        for fact in delta.sorted_facts():
            shrunk = Instance(f for f in delta if f != fact)
            found = failing(program, base, shrunk)
            if found is not None:
                delta, best, progressed = shrunk, found, True

        if not progressed:
            break
    return best

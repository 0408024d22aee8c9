"""The live delta-preservation oracle — the streaming conformance dimension.

The metamorphic layer (:mod:`repro.conformance.metamorphic`) checks the
paper's class guarantees *statically*: evaluate on ``I``, evaluate on
``I ∪ J``, compare.  This module checks them **live**: actually run a
runtime with facts trickling in over a :class:`~repro.streaming.DeltaFeed`
and interrogate the recorded epoch trajectory.  For a program whose
fragment carries a monotonicity guarantee, and a feed whose batches are
admissible for that class's addition kind, two properties must hold of
the streamed run:

* **delta preservation** — every epoch's output is a subset of the final
  output (``Q(I_k) ⊆ Q(I_B)``, Section 3.1, observed operationally: the
  runtime never has to retract);
* **prefix conformance** — every epoch's output *equals* the centralized
  answer on the corresponding input prefix (the streamed run is not just
  monotone but right).

Programs without a guarantee are skipped: for them the paper's point is
precisely that streamed accumulation and ``Q(I_final)`` come apart
without coordination, so neither property is promised.

The planted-bug mutation (``retract-on-delta``) models the failure the
oracle exists to catch: a runtime that, on delta arrival, "invalidates"
previously derived facts.  A naive in-place retraction would heal (the
facts re-derive from the grown input), so the mutant *suppresses* the
victim facts from every subsequently observed output, including the
final one — making an earlier epoch not a subset of the final output,
which the subset check flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from ..core.analyzer import analyze, planned_network, query_for
from ..datalog.instance import Instance
from ..datalog.program import Program
from ..monotonicity.classes import AdditionKind, MonotonicityClass
from .. import runtimes
from ..runtimes import Observation, refines, spec_for
from ..streaming.feed import DeltaFeed
from .metamorphic import _facts_text
from .stacks import StackContext

__all__ = [
    "STREAM_MUTATIONS",
    "STREAM_RUNTIMES",
    "StreamingViolation",
    "check_streaming",
    "shrink_streaming",
]

#: Runtimes the streaming check can drive (fuzzing rotates through them).
STREAM_RUNTIMES = ("sync", "cluster", "procs")

#: Planted streaming bugs, by name (CLI: ``--mutate streaming=NAME``).
STREAM_MUTATIONS = ("retract-on-delta",)


@dataclass(frozen=True)
class StreamingViolation:
    """A broken live delta-preservation property, reproducibly."""

    program_text: str
    output_relations: tuple[str, ...]
    fragment: str
    monotonicity: str
    kind: str
    runtime: str
    base_text: str
    batch_texts: tuple[str, ...]
    epoch: int
    reason: str  # "retraction" | "prefix-mismatch"
    lost_text: str

    def to_dict(self) -> dict:
        return {
            "program": self.program_text,
            "output_relations": list(self.output_relations),
            "fragment": self.fragment,
            "monotonicity": self.monotonicity,
            "kind": self.kind,
            "runtime": self.runtime,
            "base": self.base_text,
            "batches": list(self.batch_texts),
            "epoch": self.epoch,
            "reason": self.reason,
            "lost": self.lost_text,
        }

    def describe(self) -> str:
        if self.reason == "retraction":
            return (
                f"streamed {self.runtime} run of a {self.fragment} program "
                f"({self.monotonicity} guaranteed) retracted {self.lost_text} "
                f"after epoch {self.epoch}"
            )
        return (
            f"streamed {self.runtime} run of a {self.fragment} program "
            f"diverged from the centralized prefix answer at epoch "
            f"{self.epoch} (difference: {self.lost_text})"
        )


@dataclass(frozen=True)
class _StreamCase:
    """The shrinkable unit: program + base + the feed's batches."""

    program: Program
    base: Instance
    batches: tuple[tuple, ...]

    def feed(self) -> DeltaFeed:
        return DeltaFeed(self.batches)


def _retract_on_delta(observation: Observation) -> Observation:
    """The planted bug, as a function of what was observed: each delta
    arrival "invalidates" a previously derived fact.  The suppression is
    sticky — the fact stays missing from every output observed from then
    on, the final one included — which is what distinguishes a real
    retraction bug from a transient one that heals by re-derivation."""
    epochs = [observation.epoch_outputs[0]]
    suppressed: set = set()
    for output in observation.epoch_outputs[1:]:
        visible = sorted(epochs[-1] - suppressed)
        if visible:
            suppressed.add(visible[0])
        epochs.append(output - suppressed)
    return replace(observation, output=epochs[-1], epoch_outputs=tuple(epochs))


def check_streaming(
    program: Program,
    instance: Instance,
    rng: random.Random,
    context: StackContext,
    *,
    runtime: str = "sync",
    batches: int = 2,
    max_facts: int = 3,
    mutate: str | None = None,
) -> StreamingViolation | None:
    """Run *program* with a generated kind-admissible feed on *runtime* and
    check the live delta-preservation properties.

    Programs without a monotonicity guarantee pass trivially (no property
    is promised for them); so do draws where the delta sampler produces an
    empty feed.  ``mutate`` plants a streaming bug (sync runtime only) for
    the fuzzer's self-check.
    """
    if runtime not in STREAM_RUNTIMES:
        raise ValueError(f"unknown streaming runtime {runtime!r}")
    if mutate is not None and mutate not in STREAM_MUTATIONS:
        raise ValueError(f"unknown streaming mutation {mutate!r}")
    analysis = analyze(program)
    if analysis.monotonicity is None:
        return None
    kind = MonotonicityClass(analysis.monotonicity).addition_kind
    base = instance.restrict(program.edb())
    feed = DeltaFeed.generate(
        rng, base, program.edb(), kind, batches=batches, max_facts=max_facts
    )
    if not feed:
        return None
    case = _StreamCase(
        program=program,
        base=base,
        batches=tuple(batch.facts for batch in feed.batches),
    )
    return _check_case(
        case,
        context,
        runtime=runtime,
        fragment=analysis.fragment,
        monotonicity=analysis.monotonicity,
        kind_name=kind.value,
        mutate=mutate,
    )


def _check_case(
    case: _StreamCase,
    context: StackContext,
    *,
    runtime: str,
    fragment: str,
    monotonicity: str,
    kind_name: str,
    mutate: str | None,
) -> StreamingViolation | None:
    if mutate is not None:
        runtime = "sync"
    feed = case.feed()
    observation = runtimes.execute(
        "processes" if runtime == "procs" else runtime,
        planned_network(case.program, context.nodes),
        case.base,
        seed=context.seed,
        feed=feed,
        scheduler=context.scheduler,
        transport=context.transport,
    )
    observation.result()  # non-quiescence is a crash of the case, as before
    if mutate == "retract-on-delta":
        observation = _retract_on_delta(observation)
    spec = spec_for(query_for(case.program), case.base, feed, AdditionKind(kind_name))
    violations = refines(observation, spec)
    if not violations:
        return None
    first = violations[0]
    return StreamingViolation(
        program_text="\n".join(repr(rule) for rule in case.program.rules),
        output_relations=tuple(sorted(case.program.output_relations)),
        fragment=fragment,
        monotonicity=monotonicity,
        kind=kind_name,
        runtime=runtime,
        base_text=_facts_text(case.base),
        batch_texts=tuple(_facts_text(Instance(batch)) for batch in case.batches),
        epoch=first.epoch,
        reason=first.reason,
        lost_text=_facts_text(first.facts),
    )


def shrink_streaming(
    violation: StreamingViolation,
    context: StackContext,
    *,
    mutate: str | None = None,
    max_passes: int = 5,
) -> StreamingViolation:
    """Greedy minimization of a streaming violation, mirroring
    :func:`repro.conformance.shrinker.shrink_case`: drop rules, drop base
    facts, drop delta facts (dropping a whole batch when it empties),
    while the violation keeps reproducing on the sync runtime.
    """
    from ..datalog.parser import parse_facts, parse_program
    from .shrinker import _without_rule

    case = _StreamCase(
        program=parse_program(violation.program_text),
        base=Instance(parse_facts(violation.base_text)),
        batches=tuple(
            tuple(parse_facts(text)) for text in violation.batch_texts
        ),
    )

    def failing(candidate: _StreamCase) -> StreamingViolation | None:
        if not any(candidate.batches):
            return None
        try:
            return _check_case(
                candidate,
                context,
                runtime="sync",
                fragment=violation.fragment,
                monotonicity=violation.monotonicity,
                kind_name=violation.kind,
                mutate=mutate,
            )
        except Exception:
            return None

    best = violation
    for _ in range(max_passes):
        progressed = False

        index = 0
        while index < len(case.program.rules):
            program = _without_rule(case.program, index)
            if program is not None:
                candidate = replace(case, program=program)
                found = failing(candidate)
                if found is not None:
                    case, best, progressed = candidate, found, True
                    continue
            index += 1

        for fact in case.base.sorted_facts():
            candidate = replace(
                case, base=Instance(f for f in case.base if f != fact)
            )
            found = failing(candidate)
            if found is not None:
                case, best, progressed = candidate, found, True

        for batch_index, batch in enumerate(case.batches):
            for fact in batch:
                shrunk_batch = tuple(f for f in batch if f != fact)
                batches = tuple(
                    shrunk_batch if i == batch_index else other
                    for i, other in enumerate(case.batches)
                    if i != batch_index or shrunk_batch
                )
                candidate = replace(case, batches=batches)
                found = failing(candidate)
                if found is not None:
                    case, best, progressed = candidate, found, True
                    break

        if not progressed:
            break
    return best

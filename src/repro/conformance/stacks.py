"""The six evaluation stacks behind one interface.

Every stack computes the same query ``Q(I) = P(I)|_{sigma_out}`` (Section
2), but through a different engine:

* ``naive`` — per-stratum naive iteration of the immediate-consequence
  operator T_P until fixpoint (the textbook semantics, and the slowest but
  most obviously correct engine);
* ``seminaive-legacy`` — the semi-naive evaluator running the pre-plan
  recursive join (``PLANS_ENABLED`` off);
* ``compiled`` — the semi-naive evaluator over compiled join plans, with
  the columnar kernel pinned off (the tuple-engine production path of
  PR 2–5);
* ``kernel`` — the interned columnar kernel with per-rule codegen
  (``repro.kernel``, the current production default);
* ``sync-run`` — the synchronous transducer simulator with the analyzer's
  protocol, under any named scheduler and optional channel chaos (the
  incremental step-cache path);
* ``cluster`` — the asynchronous ``repro.cluster`` runtime, on either
  transport, with optional message chaos and crash-recovery schedules.

The distributed stacks route through :func:`repro.core.analyzer.
plan_distribution`, so the fuzzer also covers protocol selection — the
broadcast / absence / domain-guided protocols *and* the coordinating
barrier fallback for programs without a monotonicity guarantee.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

from ..datalog import evaluation
from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.stratification import is_stratifiable, stratify

__all__ = [
    "DEFAULT_STACK_NAMES",
    "StackContext",
    "EvaluationStack",
    "build_stacks",
]

#: Stack execution order; the first entry is the differential baseline.
DEFAULT_STACK_NAMES = (
    "naive",
    "seminaive-legacy",
    "compiled",
    "kernel",
    "sync-run",
    "cluster",
)


@dataclass(frozen=True)
class StackContext:
    """Per-case knobs for the runtime stacks.

    The centralized stacks ignore everything but the program and instance;
    the distributed stacks read the scheduler / transport / fault fields.
    """

    seed: int = 0
    nodes: tuple[str, ...] = ("n1", "n2", "n3")
    scheduler: str = "fair"
    chaos: bool = False
    transport: str = "memory"
    crash: bool = False

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "nodes": list(self.nodes),
            "scheduler": self.scheduler,
            "chaos": self.chaos,
            "transport": self.transport,
            "crash": self.crash,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StackContext":
        return cls(
            seed=payload.get("seed", 0),
            nodes=tuple(payload.get("nodes", ("n1", "n2", "n3"))),
            scheduler=payload.get("scheduler", "fair"),
            chaos=payload.get("chaos", False),
            transport=payload.get("transport", "memory"),
            crash=payload.get("crash", False),
        )


@contextmanager
def _plans_disabled():
    """Temporarily run the join engine without compiled plans."""
    previous = evaluation.PLANS_ENABLED
    evaluation.PLANS_ENABLED = False
    try:
        yield
    finally:
        evaluation.PLANS_ENABLED = previous


@contextmanager
def _plans_enabled():
    previous = evaluation.PLANS_ENABLED
    evaluation.PLANS_ENABLED = True
    try:
        yield
    finally:
        evaluation.PLANS_ENABLED = previous


@contextmanager
def _kernel_override(enabled: bool):
    """Pin the columnar kernel on or off for one stack evaluation."""
    from ..kernel import engine as kernel_engine

    previous = kernel_engine.KERNEL_ENABLED
    kernel_engine.KERNEL_ENABLED = enabled
    try:
        yield
    finally:
        kernel_engine.KERNEL_ENABLED = previous


class EvaluationStack:
    """One way of computing Q(I); subclasses implement :meth:`evaluate`."""

    name = "stack"

    def evaluate(
        self, program: Program, instance: Instance, context: StackContext
    ) -> Instance:
        raise NotImplementedError


def _centralized_output(program: Program, full: Instance) -> Instance:
    """Project a full fixpoint P(I) to the designated output schema."""
    return full.restrict(program.output_schema())


class NaiveStack(EvaluationStack):
    """Naive T_P iteration per stratum, over the legacy recursive join."""

    name = "naive"

    def evaluate(self, program, instance, context):
        from ..core.analyzer import query_for
        from ..datalog.evaluation import immediate_consequence

        restricted = instance.restrict(program.edb())
        with _plans_disabled():
            if not is_stratifiable(program):
                # Outside stratified Datalog¬ there is no T_P fixpoint to
                # iterate; fall back to the program's natural semantics —
                # with plans off that is the naive Γ over the legacy join,
                # the oracle for the kernel's alternating fixpoint.
                return query_for(program)(restricted)
            current = restricted
            for stage in stratify(program).strata:
                while True:
                    step = immediate_consequence(stage, current)
                    if step == current:
                        break
                    current = step
            return _centralized_output(program, current)


class LegacySemiNaiveStack(EvaluationStack):
    """Semi-naive evaluation through the pre-plan recursive join oracle."""

    name = "seminaive-legacy"

    def evaluate(self, program, instance, context):
        from ..core.analyzer import query_for

        with _plans_disabled():
            return query_for(program)(instance)


class CompiledStack(EvaluationStack):
    """Semi-naive evaluation over compiled join plans, kernel pinned off —
    without the pin this stack would silently dispatch to the kernel and
    stop exercising the tuple-plan engine."""

    name = "compiled"

    def evaluate(self, program, instance, context):
        from ..core.analyzer import query_for

        with _plans_enabled(), _kernel_override(False):
            return query_for(program)(instance)


class KernelStack(EvaluationStack):
    """The interned columnar kernel with per-rule codegen (production)."""

    name = "kernel"

    def evaluate(self, program, instance, context):
        from ..core.analyzer import query_for

        with _plans_enabled(), _kernel_override(True):
            return query_for(program)(instance)


class SyncRunStack(EvaluationStack):
    """The synchronous simulator under a named scheduler, optionally with
    channel faults (duplication, delay, drop-with-redelivery)."""

    name = "sync-run"

    def evaluate(self, program, instance, context):
        from ..core.analyzer import distributed_run
        from ..transducers.faults import CHAOS_PLAN, FaultyChannel, make_scheduler

        channel = (
            FaultyChannel(CHAOS_PLAN, context.seed) if context.chaos else None
        )
        run = distributed_run(
            program, instance, nodes=context.nodes, channel=channel
        )
        return run.run_to_quiescence(
            scheduler=make_scheduler(context.scheduler, context.seed)
        )


class ClusterStack(EvaluationStack):
    """The asynchronous cluster runtime on the chosen transport, with
    optional message chaos and crash-recovery schedules."""

    name = "cluster"

    def evaluate(self, program, instance, context):
        from ..cluster.faults import CRASH_PLAN
        from ..cluster.runtime import ClusterRun
        from ..core.analyzer import planned_network
        from ..transducers.faults import CHAOS_PLAN

        if context.crash:
            fault_plan = CRASH_PLAN
        elif context.chaos:
            fault_plan = CHAOS_PLAN
        else:
            fault_plan = None
        run = ClusterRun(
            planned_network(program, context.nodes),
            instance,
            transport=context.transport,
            fault_plan=fault_plan,
            seed=context.seed,
        )
        return run.run_to_quiescence()


_STACK_CLASSES: dict[str, type[EvaluationStack]] = {
    stack.name: stack
    for stack in (
        NaiveStack,
        LegacySemiNaiveStack,
        CompiledStack,
        KernelStack,
        SyncRunStack,
        ClusterStack,
    )
}


def build_stacks(names=DEFAULT_STACK_NAMES) -> tuple[EvaluationStack, ...]:
    """Instantiate stacks by name, preserving order."""
    try:
        return tuple(_STACK_CLASSES[name]() for name in names)
    except KeyError as error:
        known = ", ".join(sorted(_STACK_CLASSES))
        raise KeyError(f"unknown stack {error.args[0]!r} (known: {known})")


def with_scheduler(context: StackContext, scheduler: str) -> StackContext:
    return replace(context, scheduler=scheduler)

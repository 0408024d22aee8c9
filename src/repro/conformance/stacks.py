"""The four evaluation stacks behind one interface.

Every stack computes the same query ``Q(I) = P(I)|_{sigma_out}`` (Section
2), but through a different engine:

* ``naive`` — the reference: per-stratum naive iteration of the
  immediate-consequence operator T_P until fixpoint, and the naive
  alternating fixpoint outside stratified Datalog¬ (the textbook
  semantics, and the slowest but most obviously correct engine);
* ``kernel`` — the interned columnar kernel with per-rule codegen
  (``repro.kernel``, the production engine);
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

from dataclasses import dataclass, replace

from ..datalog.evaluation import naive_fixpoint
from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.stratification import is_stratifiable
from ..datalog.wellfounded import naive_well_founded

__all__ = [
    "DEFAULT_STACK_NAMES",
    "StackContext",
    "EvaluationStack",
    "build_stacks",
]

#: Stack execution order; the first entry is the differential baseline.
DEFAULT_STACK_NAMES = ("naive", "kernel", "sync-run", "cluster")


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


class EvaluationStack:
    """One way of computing Q(I); subclasses implement :meth:`evaluate`."""

    name = "stack"

    def evaluate(
        self, program: Program, instance: Instance, context: StackContext
    ) -> Instance:
        raise NotImplementedError


class NaiveStack(EvaluationStack):
    """The reference: naive T_P iteration per stratum; outside stratified
    Datalog¬ (no T_P fixpoint to iterate) the true facts of the naive
    alternating fixpoint.  Never touches :mod:`repro.kernel`."""

    name = "naive"

    def evaluate(self, program, instance, context):
        restricted = instance.restrict(program.edb())
        if is_stratifiable(program):
            full = naive_fixpoint(program, restricted)
        else:
            full = naive_well_founded(program, restricted).true
        return full.restrict(program.output_schema())


class KernelStack(EvaluationStack):
    """The interned columnar kernel with per-rule codegen (production)."""

    name = "kernel"

    def evaluate(self, program, instance, context):
        from ..core.analyzer import query_for

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

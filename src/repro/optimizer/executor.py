"""Paired execution: optimized bundle vs the All-barrier baseline.

The optimizer's promise is checkable, so check it: run the optimized
plan and the All-barrier plan over the same input on the same seeded
scheduler, compare output fingerprints byte-for-byte, and report both
measured and predicted costs.  This is the primitive behind
``repro optimize`` (with facts), the fuzz harness's eighth dimension,
and ``repro gate optimizer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.analyzer import network_for_plan
from ..datalog.instance import Instance
from ..datalog.program import Program
from ..runtimes import execute, node_names
from .costmodel import DEFAULT_COST_MODEL, CostModel, CostVector
from .plan import OptimizedPlan, plan_optimized

__all__ = [
    "OptimizedArm",
    "PlanComparison",
    "execute_arm",
    "run_comparison",
]


@dataclass(frozen=True)
class OptimizedArm:
    """One executed arm of a paired comparison."""

    protocol: str
    output: Instance
    fingerprint: str
    measured: CostVector
    predicted: CostVector

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "fingerprint": self.fingerprint,
            "output_facts": len(self.output),
            "measured": self.measured.to_dict(),
            "predicted": self.predicted.to_dict(),
        }


@dataclass(frozen=True)
class PlanComparison:
    """The paired optimized-vs-barrier verdict for one (program, input)."""

    optimized: OptimizedArm
    barrier: OptimizedArm
    byte_identical: bool
    measured_cheaper: bool
    predicted_cheaper: bool
    prediction_agrees: bool
    upgraded: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "optimized": self.optimized.to_dict(),
            "barrier": self.barrier.to_dict(),
            "byte_identical": self.byte_identical,
            "measured_cheaper": self.measured_cheaper,
            "predicted_cheaper": self.predicted_cheaper,
            "prediction_agrees": self.prediction_agrees,
            "upgraded": self.upgraded,
        }


def execute_arm(
    optimized: OptimizedPlan,
    instance: Instance,
    *,
    nodes: int = 3,
    seed: int = 0,
    scheduler: Any = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> OptimizedArm:
    """Run one plan arm to quiescence and package its cost evidence."""
    plan = optimized.plan
    base = instance.restrict(optimized.program.edb())
    names = node_names(nodes)
    # A pre-built network, not a routing recipe: a planted-bug plan
    # (``mutate=``) is no routing a recipe could name.
    observation = execute(
        "sync",
        {"network": network_for_plan(plan, names)},
        base,
        nodes=names,
        seed=seed,
        scheduler=scheduler,
    )
    output = observation.result()
    metrics = observation.report.metrics
    measured = CostVector(
        rounds=float(metrics["rounds"]),
        messages=float(metrics["message_facts_sent"]),
        transitions=float(metrics["transitions"]),
    )
    predicted = model.predict(optimized.kind, nodes=nodes, facts=len(base))
    return OptimizedArm(
        protocol=plan.transducer.name,
        output=output,
        fingerprint=observation.fingerprint,
        measured=measured,
        predicted=predicted,
    )


def run_comparison(
    program: Program,
    instance: Instance,
    *,
    nodes: int = 3,
    seed: int = 0,
    mutate: str | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> PlanComparison:
    """Execute the optimized and All-barrier arms over the same input and
    seeded scheduler, then compare.

    ``byte_identical`` is the soundness gate (equal output fingerprints);
    ``measured_cheaper`` / ``predicted_cheaper`` compare the lexicographic
    (rounds, transitions) keys; ``prediction_agrees`` says the model's
    ordering matched the measurement's — the calibration gate of
    ``BENCH_optimizer.json``.
    """
    optimized_plan = plan_optimized(program, mutate=mutate)
    barrier_plan = plan_optimized(program, force_barrier=True)
    optimized = execute_arm(
        optimized_plan, instance, nodes=nodes, seed=seed, model=model
    )
    barrier = execute_arm(
        barrier_plan, instance, nodes=nodes, seed=seed, model=model
    )
    measured_cheaper = optimized.measured.cheaper_than(barrier.measured)
    predicted_cheaper = optimized.predicted.cheaper_than(barrier.predicted)
    return PlanComparison(
        optimized=optimized,
        barrier=barrier,
        byte_identical=optimized.fingerprint == barrier.fingerprint,
        measured_cheaper=measured_cheaper,
        predicted_cheaper=predicted_cheaper,
        prediction_agrees=measured_cheaper == predicted_cheaper,
        upgraded=optimized_plan.upgraded,
    )

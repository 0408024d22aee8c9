"""The seam between callers and the three transducer runtimes.

The paper's claim is one equality: a network for a query in M / Mdistinct /
Mdisjoint outputs ``Q(I)`` at quiescence under *any* admissible schedule.
In the transducer model a runtime is a schedule, not a different program,
so the claim is stated here once, at specification level:

* :func:`execute` runs a *target* on a named runtime — ``sync`` (the
  synchronous simulator), ``cluster`` (one asyncio task per node),
  ``processes`` (one OS process per node) — and returns an
  :class:`Observation`: final output, per-epoch outputs, whether the run
  quiesced, its report.  Nothing in it says which class ran a node.
* :func:`spec_for` is what a query admits — ``Q(I)`` at quiescence,
  ``Q(prefix_k)`` at epoch *k* of a kind-admissible feed, nothing ever
  retracted — and :func:`refines` is the only assertion: the
  :class:`Violation`\\ s of a spec by an observation, none when it refines.

A *target* is the one description every runtime builds its network from:
the recipe :func:`repro.cluster.procs.build_proc_network` consumes —
``{"kind": "program", "text": ..., "routing": "default" | "optimized" |
"barrier"}`` or ``{"kind": "gate" | "scaling", "key": ...}`` — which may
also carry a pre-built ``"network"`` or parsed ``"program"`` for the
in-process runtimes.  Process workers never see those two keys; they
rebuild from the recipe.  ``tests/test_seam_lint.py`` keeps every front end
and gate on this side of the seam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .datalog.instance import Instance
from .datalog.program import Program
from .monotonicity.classes import AdditionKind
from .queries.base import Query
from .transducers.faults import FaultPlan, FaultyChannel, make_scheduler
from .transducers.runtime import QuiescenceError, Scheduler
from .transducers.telemetry import RunReport, build_run_report

__all__ = [
    "RUNTIMES",
    "Observation",
    "Spec",
    "Violation",
    "execute",
    "node_names",
    "program_target",
    "refines",
    "spec_for",
]


def node_names(count: int) -> tuple[str, ...]:
    """The canonical node names ``n1 .. n<count>``."""
    return tuple(f"n{i + 1}" for i in range(count))


def program_target(program: Program | str, *, routing: str = "default") -> dict:
    """The target for a Datalog¬ program (text or parsed) under a routing
    decision: ``default`` (cheapest sound protocol for its class),
    ``optimized`` (the per-stratum optimizer's bundle) or ``barrier`` (the
    forced All-barrier baseline)."""
    if isinstance(program, str):
        return {"kind": "program", "text": program, "routing": routing}
    return {
        "kind": "program",
        "text": "\n".join(repr(rule) for rule in program.rules),
        # Rule text drops the designated-output restriction; carry it so a
        # worker computes the same output schema.
        "outputs": sorted(program.output_relations),
        "routing": routing,
        "program": program,
    }


@dataclass(frozen=True)
class Observation:
    """What a caller may know of one run, whichever runtime produced it.

    ``epoch_outputs`` is the global output at each quiescent epoch boundary
    of a streamed run, final output last (empty without a feed).  A run
    that did not quiesce still carries its partial ``output`` and a report;
    ``error`` then holds the runtime's reason.
    """

    output: Instance
    epoch_outputs: tuple[Instance, ...]
    quiesced: bool
    report: RunReport
    error: str | None = None

    def result(self) -> Instance:
        """The output of a quiesced run; :class:`QuiescenceError` otherwise."""
        if not self.quiesced:
            raise QuiescenceError(self.error)
        return self.output

    @property
    def fingerprint(self) -> str:
        return self.report.output_fingerprint

    @property
    def token_probes(self) -> int:
        return self.report.token_rounds or 0

    @property
    def crashes(self) -> int:
        return self.report.crashes or 0

    @property
    def recoveries(self) -> int:
        return self.report.recoveries or 0

    @property
    def wal_replayed(self) -> int:
        return self.report.wal_replayed or 0


def _observe(run, drive, report) -> Observation:
    """Drive *run* and fold what it shows into an observation;
    ``report(quiesced)`` builds the runtime's flavour of the report."""
    error = None
    try:
        drive()
    except QuiescenceError as failure:
        error = str(failure)
    return Observation(
        output=run.global_output(),
        epoch_outputs=tuple(run.epoch_outputs),
        quiesced=error is None,
        report=report(error is None),
        error=error,
    )


def _network(target: dict, nodes):
    from .cluster.procs import build_proc_network

    return build_proc_network(target, nodes)


def _sync(
    target, instance, *, nodes, seed, feed, faults, scheduler, max_rounds, trace, **_
):
    if not isinstance(scheduler, Scheduler):
        scheduler = make_scheduler(scheduler or "fair", seed)
    channel = FaultyChannel(faults, seed) if faults is not None else None
    run = _network(target, nodes).new_run(instance, channel=channel)
    limits = {"max_rounds": max_rounds, "scheduler": scheduler}
    if feed is not None:
        drive = lambda: run.stream_to_quiescence(feed, **limits)
    else:
        drive = lambda: run.run_to_quiescence(**limits)
    return _observe(
        run, drive,
        lambda quiesced: build_run_report(
            run, scheduler=scheduler, quiesced=quiesced, include_trace=trace
        ),
    )


def _cluster(target, instance, *, nodes, seed, feed, faults, transport, timeout, **_):
    from .cluster.runtime import ClusterRun
    from .cluster.telemetry import build_cluster_report

    run = ClusterRun(
        _network(target, nodes), instance, transport=transport, fault_plan=faults,
        seed=seed, timeout=timeout, delta_feed=feed,
    )
    return _observe(
        run, run.run_to_quiescence,
        lambda quiesced: build_cluster_report(run, quiesced=quiesced),
    )


def _processes(target, instance, *, nodes, seed, feed, kill, timeout, run_dir, **_):
    from .cluster.procs import ProcessCluster
    from .cluster.telemetry import build_cluster_report

    recipe = {k: v for k, v in target.items() if k not in ("network", "program")}
    if "kind" not in recipe:
        raise ValueError(
            "the processes runtime rebuilds the network inside each worker: "
            "its target needs a recipe (program text or workload key), not "
            "only a pre-built network"
        )
    kill_node, kill_after = kill or (None, None)
    cluster = ProcessCluster(
        recipe, instance, nodes=tuple(nodes), seed=seed, run_dir=run_dir,
        kill_node=kill_node, kill_after=kill_after, timeout=timeout, delta_feed=feed,
    )
    return _observe(
        cluster, cluster.run_to_quiescence,
        lambda quiesced: build_cluster_report(cluster, quiesced=quiesced),
    )


_REGISTRY = {"sync": _sync, "cluster": _cluster, "processes": _processes}

#: The runtime names :func:`execute` accepts.
RUNTIMES = tuple(_REGISTRY)


def execute(
    runtime: str,
    target: dict,
    instance: Instance,
    *,
    nodes: Sequence[Hashable] = ("n1", "n2", "n3"),
    seed: int = 0,
    feed=None,
    faults: FaultPlan | None = None,
    kill: tuple[str, int] | None = None,
    scheduler: Scheduler | str | None = None,
    transport: str = "memory",
    max_rounds: int = 10_000,
    timeout: float | None = 120.0,
    run_dir=None,
    trace: bool = False,
) -> Observation:
    """Run *target* on *instance* under the named *runtime*.

    ``feed`` streams a :class:`~repro.streaming.DeltaFeed`, each batch
    injected at detected quiescence.  ``faults`` is an injected
    :class:`~repro.transducers.faults.FaultPlan` (``sync`` and ``cluster``;
    its crash schedule fires on ``cluster`` only) and ``kill`` is ``(node,
    after_transitions)``, one real ``SIGKILL`` (``processes`` only); a
    runtime that cannot inject one raises :class:`ValueError`.  The rest
    tune one runtime and are ignored by the others: ``scheduler`` (a name
    or a :class:`Scheduler`), ``max_rounds`` and ``trace`` on ``sync``,
    ``transport`` on ``cluster``, ``run_dir`` on ``processes``, ``timeout``
    (wall clock) on both asynchronous ones.

    A run that fails to quiesce is an observation with ``quiesced=False``,
    never an exception.
    """
    if runtime not in _REGISTRY:
        raise KeyError(f"unknown runtime {runtime!r} (known: {', '.join(RUNTIMES)})")
    if runtime == "processes" and faults is not None:
        raise ValueError(f"runtime {runtime!r} does not support faults")
    if runtime != "processes" and kill is not None:
        raise ValueError(f"runtime {runtime!r} does not support kill")
    return _REGISTRY[runtime](
        target, instance, nodes=nodes, seed=seed, feed=feed, faults=faults, kill=kill,
        scheduler=scheduler, transport=transport, max_rounds=max_rounds,
        timeout=timeout, run_dir=run_dir, trace=trace,
    )


@dataclass(frozen=True)
class Spec:
    """The observable outputs a query admits on one input.

    ``final`` is ``Q(I)`` on the whole input (base plus every feed batch):
    what a quiesced run must output.  ``epochs``, when the feed respects an
    addition kind the query is monotone under, is ``Q(prefix_k)`` for every
    epoch *k* — and, the class being coordination-free, no epoch's output
    may be missing from the final one.  Without a kind (``epochs is None``)
    nothing is promised of a streamed run's trajectory.
    """

    final: Instance
    epochs: tuple[Instance, ...] | None = None


def spec_for(
    query: Query, instance: Instance, feed=None, kind: AdditionKind | None = None
) -> Spec:
    """The spec of *query* on *instance*, streamed as *feed* of *kind*.

    ``kind`` is a claim about the feed, not checked here: a feed that breaks
    it (``scenarios/winmove-contested-arena.yaml`` under ``DOMAIN_DISJOINT``)
    yields the spec the run then fails to refine.
    """
    if not feed:
        return Spec(final=query(instance))
    prefixes = feed.prefixes(instance.restrict(query.input_schema))
    if kind is None:
        return Spec(final=query(prefixes[-1]))
    epochs = tuple(query(prefix) for prefix in prefixes)
    return Spec(final=epochs[-1], epochs=epochs)


@dataclass(frozen=True)
class Violation:
    """One way an observation fails its spec: ``reason`` is ``not-quiesced``,
    ``output-mismatch`` (final output is not ``Q(I)``), ``retraction`` (an
    epoch's output is not a subset of the final one) or ``prefix-mismatch``
    (an epoch's output is not ``Q(prefix_k)``); ``facts`` is what was lost
    or differs."""

    reason: str
    epoch: int | None
    facts: Instance

    def describe(self) -> str:
        return {
            "retraction": f"epoch {self.epoch}: output is not a subset of the final "
            "output",
            "prefix-mismatch": f"epoch {self.epoch}: streamed output differs from "
            f"centralized answer on prefix {self.epoch}",
            "output-mismatch": "distributed output diverged from centralized "
            "evaluation",
            "not-quiesced": "run did not quiesce",
        }[self.reason]


def _difference(got: Instance, want: Instance) -> Instance:
    return (got - want) | (want - got)


def refines(observation: Observation, spec: Spec) -> list[Violation]:
    """Every violation of *spec* by *observation*; empty iff it refines.
    Retractions come first (the property the paper names), then mismatches,
    each in epoch order."""
    if not observation.quiesced:
        return [Violation("not-quiesced", None, Instance())]
    if spec.epochs is None:
        if observation.output == spec.final:
            return []
        wrong = _difference(observation.output, spec.final)
        return [Violation("output-mismatch", None, wrong)]
    trajectory = observation.epoch_outputs
    violations = [
        Violation("retraction", epoch, output - trajectory[-1])
        for epoch, output in enumerate(trajectory)
        if not output <= trajectory[-1]
    ]
    violations += [
        Violation("prefix-mismatch", epoch, _difference(got, want))
        for epoch, (got, want) in enumerate(zip(trajectory, spec.epochs, strict=True))
        if got != want
    ]
    return violations

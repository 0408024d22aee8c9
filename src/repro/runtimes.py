"""The seam between callers and the three transducer runtimes.

The paper's claim is one equality: a network for a query in M / Mdistinct /
Mdisjoint outputs ``Q(I)`` at quiescence under *any* admissible schedule.
In the transducer model a runtime is a schedule, not a different program,
so the claim is stated here once, at specification level:

* :func:`execute` runs a *network* on a named runtime — ``sync`` (the
  synchronous simulator), ``cluster`` (one asyncio task per node),
  ``processes`` (one OS process per node) — and returns an
  :class:`Observation`: final output, per-epoch outputs, whether the run
  quiesced, its report.  Nothing in it says which class ran a node.
* :func:`spec_for` is what a query admits — ``Q(I)`` at quiescence,
  ``Q(prefix_k)`` at epoch *k* of a kind-admissible feed, nothing ever
  retracted — and :func:`refines` is the only assertion: the
  :class:`Violation`\\ s of a spec by an observation, none when it refines.

The *network* every runtime runs is a
:class:`~repro.transducers.runtime.TransducerNetwork`: a transducer plus
its distribution policy on named nodes, which is what a transducer network
is in the paper's model (Section 4.1).  Front ends build it once
(:func:`~repro.core.analyzer.planned_network`,
:func:`~repro.core.analyzer.network_for_plan`,
:meth:`~repro.transducers.protocols.Section4Protocol.network`) and every
runtime runs that object: process workers are forked from the caller and
use it as is.  ``tests/test_seam_lint.py`` keeps every front end and gate
on this side of the seam.

The front ends that take a program as *text* (``repro run``, ``repro
cluster``, ``repro analyze`` and the service's ``POST`` endpoints) share
one pipeline on top of it: a
:class:`Request`, validated once, :func:`plan_request` (parse, plan,
certificate, routing decision — any client fault a :class:`RequestError`)
and :func:`run_request` (network, :func:`execute`, :func:`spec_for`,
:func:`refines`), which returns an :class:`Outcome` for the front end to
render or store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .datalog.instance import Instance
from .monotonicity.classes import AdditionKind
from .queries.base import Query
from .transducers.faults import FaultPlan, FaultyChannel, make_scheduler
from .transducers.runtime import QuiescenceError, Scheduler, TransducerNetwork
from .transducers.telemetry import RunReport, build_run_report

if TYPE_CHECKING:
    from .core.analyzer import DistributedPlan
    from .streaming.feed import DeltaFeed

__all__ = [
    "DEFAULT_NODES",
    "PLANNERS",
    "RUNTIMES",
    "Observation",
    "Outcome",
    "Planned",
    "Request",
    "RequestError",
    "Spec",
    "Violation",
    "check_capabilities",
    "execute",
    "node_names",
    "plan_request",
    "refines",
    "run_request",
    "spec_for",
]


def node_names(count: int) -> tuple[str, ...]:
    """The canonical node names ``n1 .. n<count>``."""
    return tuple(f"n{i + 1}" for i in range(count))


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


def _sync(
    network, instance, *, seed, feed, faults, scheduler, max_rounds, trace, **_
):
    if not isinstance(scheduler, Scheduler):
        scheduler = make_scheduler(scheduler or "fair", seed)
    channel = FaultyChannel(faults, seed) if faults is not None else None
    run = network.new_run(instance, channel=channel)
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


def _cluster(network, instance, *, seed, feed, faults, transport, timeout, **_):
    from .cluster.runtime import ClusterRun
    from .cluster.telemetry import build_cluster_report

    run = ClusterRun(
        network, instance, transport=transport, fault_plan=faults,
        seed=seed, timeout=timeout, delta_feed=feed,
    )
    return _observe(
        run, run.run_to_quiescence,
        lambda quiesced: build_cluster_report(run, quiesced=quiesced),
    )


def _processes(network, instance, *, feed, kill, timeout, run_dir, **_):
    from .cluster.procs import ProcessCluster
    from .cluster.telemetry import build_cluster_report

    kill_node, kill_after = kill or (None, None)
    cluster = ProcessCluster(
        network, instance, run_dir=run_dir, kill_node=kill_node,
        kill_after=kill_after, timeout=timeout, delta_feed=feed,
    )
    return _observe(
        cluster, cluster.run_to_quiescence,
        lambda quiesced: build_cluster_report(cluster, quiesced=quiesced),
    )


_REGISTRY = {"sync": _sync, "cluster": _cluster, "processes": _processes}

#: The runtime names :func:`execute` accepts.
RUNTIMES = tuple(_REGISTRY)

#: What each runtime can be asked for beyond a network and an input.
_CAPABILITIES = {
    "sync": {"faults"},
    "cluster": {"faults", "transport"},
    "processes": {"kill", "run_dir"},
}


class RequestError(ValueError):
    """A run asked for what cannot be served: a bad value, settings that do
    not combine, or a program or input that does not parse or plan."""


def check_capabilities(runtime: str, **asked) -> None:
    """Raise :class:`RequestError` for the first option in *asked* (those not
    ``None``) that *runtime* cannot honour."""
    for option, value in asked.items():
        if value is not None and option not in _CAPABILITIES[runtime]:
            raise RequestError(f"runtime {runtime!r} does not support {option}")


def execute(
    runtime: str,
    network: TransducerNetwork,
    instance: Instance,
    *,
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
    """Run *network* on *instance* under the named *runtime*.

    The network names the nodes.  ``feed`` streams a
    :class:`~repro.streaming.DeltaFeed`, each batch injected at detected
    quiescence.  ``faults`` is an injected
    :class:`~repro.transducers.faults.FaultPlan` (``sync`` and ``cluster``;
    its crash schedule fires on ``cluster`` only) and ``kill`` is ``(node,
    after_transitions)``, one real ``SIGKILL`` (``processes`` only); a
    runtime that cannot inject one raises :class:`RequestError`.  The rest
    tune some runtimes and are ignored by the others: ``seed`` (the
    scheduler's and the fault plan's draws) on ``sync`` and ``cluster``,
    ``scheduler`` (a name or a :class:`Scheduler`), ``max_rounds`` and
    ``trace`` on ``sync``, ``transport`` on ``cluster``, ``run_dir`` on
    ``processes``, ``timeout`` (wall clock) on both asynchronous ones.

    A run that fails to quiesce is an observation with ``quiesced=False``,
    never an exception.
    """
    if runtime not in _REGISTRY:
        raise KeyError(f"unknown runtime {runtime!r} (known: {', '.join(RUNTIMES)})")
    check_capabilities(runtime, faults=faults, kill=kill)
    return _REGISTRY[runtime](
        network, instance, seed=seed, feed=feed, faults=faults, kill=kill,
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


# ----------------------------------------------------------------------
# One request, one pipeline: what a text front end asks for
# ----------------------------------------------------------------------

#: How a request is routed: the cheapest sound protocol, the All-barrier
#: forced, the per-stratum optimizer, or the ILOG¬ planner.
PLANNERS = ("default", "barrier", "optimize", "ilog")

#: The network size when a request names none.
DEFAULT_NODES = 3


@dataclass(frozen=True)
class Request:
    """One run as a front end asks for it: program and facts as text, a
    planner and the options of :func:`execute` (``transport`` ``None`` is
    the in-memory wire).  Building one validates it: each rule on a value
    or on a pair of settings is stated here once, as a
    :class:`RequestError`."""

    program: str
    facts: str = ""
    feed: DeltaFeed | None = None
    runtime: str = "sync"
    nodes: int = DEFAULT_NODES
    seed: int = 0
    planner: str = "default"
    check_pairs: int = 0
    faults: FaultPlan | None = None
    kill: tuple[str, int] | None = None
    scheduler: str | None = None
    transport: str | None = None
    run_dir: str | None = None
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.program or not isinstance(self.program, str):
            raise RequestError("'program' must be a non-empty string")
        if not isinstance(self.facts, str):
            raise RequestError("'facts' must be a string of facts")
        if self.runtime not in RUNTIMES:
            known = ", ".join(RUNTIMES)
            raise RequestError(f"unknown runtime {self.runtime!r} (known: {known})")
        # ``type(...) is int``: a JSON ``true`` is no count, seed or budget.
        if type(self.nodes) is not int or self.nodes < 1:
            raise RequestError("'nodes' must be a positive integer")
        if type(self.seed) is not int:
            raise RequestError("'seed' must be an integer")
        if self.planner not in PLANNERS:
            raise RequestError(f"'planner' must be one of {', '.join(PLANNERS)}")
        if type(self.check_pairs) is not int or not 0 <= self.check_pairs <= 500:
            raise RequestError("'check_pairs' must be an integer in 0..500")
        check_capabilities(
            self.runtime, faults=self.faults, kill=self.kill,
            transport=self.transport, run_dir=self.run_dir,
        )
        node, after = self.kill or ("", 1)
        if not isinstance(node, str) or type(after) is not int or after < 1:
            raise RequestError(
                "'kill' needs a node and a positive transition count "
                "(--kill-node NODE --kill-after K)"
            )
        if self.planner == "ilog" and self.runtime != "sync":
            raise RequestError("ILOG programs run on runtime 'sync' only")
        if self.planner == "ilog" and self.check_pairs:
            raise RequestError(
                "'check_pairs' does not combine with 'ilog' (value invention "
                "makes the empirical oracle ill-defined)"
            )


@dataclass(frozen=True)
class Planned:
    """A request parsed and planned, nothing run yet."""

    request: Request
    instance: Instance
    plan: DistributedPlan
    certificate: dict
    decision: dict


@dataclass(frozen=True)
class Outcome:
    """A planned request run and held to its spec (no violation: it refines)."""

    plan: DistributedPlan
    certificate: dict
    decision: dict
    observation: Observation
    spec: Spec
    violations: tuple[Violation, ...]


def _plan(request: Request, facts: int):
    """``(plan, certificate, decision)``; *facts* sizes the optimizer's
    cost prediction."""
    from .core.analyzer import plan_distribution, plan_ilog_distribution
    from .core.certificate import (
        certificate_for_plan,
        ilog_certificate_for_plan,
        protocol_reason,
    )
    from .datalog.parser import parse_program

    forced = request.planner == "barrier"
    pairs = {"check_pairs": request.check_pairs, "seed": request.seed}
    reason, extra = None, {}
    if request.planner == "ilog":
        from .ilog.program import parse_ilog_program

        program = parse_ilog_program(request.program)
        plan = plan_ilog_distribution(program)
        certificate = ilog_certificate_for_plan(program, plan)
    elif request.planner == "optimize":
        from .optimizer import plan_certificate, plan_optimized

        program = parse_program(request.program)
        optimized = plan_optimized(program)
        plan = optimized.plan
        certificate = plan_certificate(
            program, nodes=request.nodes, facts=facts, **pairs
        )
        reason = optimized.reason
        extra = {
            "optimized": True,
            "effective_monotonicity": optimized.effective_monotonicity,
            "upgraded": optimized.upgraded,
        }
    else:
        program = parse_program(request.program)
        plan = plan_distribution(program, force_barrier=forced)
        certificate = certificate_for_plan(
            program, plan, forced_barrier=forced, **pairs
        )
    decision = {
        "protocol": plan.transducer.name,
        "requires_barrier": plan.requires_barrier,
        "forced_barrier": forced,
        "model": plan.analysis.model,
        "coordination_class": plan.analysis.coordination_class,
        "reason": reason or protocol_reason(plan, forced_barrier=forced),
        **extra,
    }
    return plan, certificate, decision


def plan_request(request: Request) -> Planned:
    """Parse the facts and the program and plan: the step that runs
    nothing.  Whatever fails here is the request's fault: a
    :class:`RequestError` with the failure's message."""
    from .datalog.parser import parse_facts

    try:
        instance = Instance(parse_facts(request.facts))
        return Planned(request, instance, *_plan(request, len(instance)))
    except RequestError:
        raise
    except Exception as error:
        raise RequestError(str(error)) from error


def run_request(planned: Planned) -> Outcome:
    """Run the planned network on the requested runtime and hold it to
    :func:`spec_for` the plan's query, under the addition kind of the class
    the analysis guarantees."""
    from .core.analyzer import network_for_plan
    from .monotonicity.classes import MonotonicityClass

    request, plan = planned.request, planned.plan
    observation = execute(
        request.runtime, network_for_plan(plan, node_names(request.nodes)),
        planned.instance, seed=request.seed, feed=request.feed,
        faults=request.faults, kill=request.kill, scheduler=request.scheduler,
        transport=request.transport or "memory", run_dir=request.run_dir,
        trace=request.trace,
    )
    monotonicity = plan.analysis.monotonicity
    kind = MonotonicityClass(monotonicity).addition_kind if monotonicity else None
    spec = spec_for(plan.query, planned.instance, request.feed, kind)
    violations = tuple(refines(observation, spec))
    return Outcome(
        plan, planned.certificate, planned.decision, observation, spec, violations
    )

"""The divergence gate: the cluster runtime vs. the synchronous simulator.

The paper's confluence results (Theorems 4.3–4.5, and the barrier fallback
by construction) guarantee that *every* fair run of one of our transducer
networks converges to the same global output Q(I).  That makes a sharp
equivalence oracle available for free: run the synchronous simulator under
every scheduler, run the cluster under many seeds × transports × fault
plans, and require all output fingerprints to be identical.  Any
divergence is a bug in one of the runtimes — there is no "acceptable
nondeterminism" bucket to hide in.

:func:`gate_workloads` enumerates the corpus: the five Section-4 protocol
bundles, the global-barrier baseline, and every query-zoo program routed
through :func:`repro.core.analyzer.plan_distribution` (so the gate also
covers the planner's protocol selection, including the barrier fallback
for non-monotone programs).  :func:`check_workload` runs one workload
through the full matrix and returns a machine-readable verdict; the
committed ``BENCH_cluster.json`` is ``repro gate cluster``'s sweep of these
verdicts (:mod:`repro.gates`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product
from typing import Hashable, Iterable, Sequence

from ..datalog.instance import Instance
from ..datalog.parser import parse_facts
from ..runtimes import Observation, execute, node_names, refines, spec_for
from ..transducers.faults import CHAOS_PLAN, SCHEDULER_NAMES
from ..transducers.policy import Network
from ..transducers.protocols import Section4Protocol, section4_protocols
from ..transducers.runtime import TransducerNetwork
from ..transducers.telemetry import output_fingerprint
from .faults import CRASH_PLAN
from .procs import workload_spec_for
from .transport import TRANSPORT_NAMES

__all__ = [
    "GATE_NETWORK_NODES",
    "ZOO_INSTANCES",
    "gate_workloads",
    "workload_by_key",
    "sync_fingerprint",
    "cluster_fingerprint",
    "check_workload",
    "ProcessGateVerdict",
    "check_process_workload",
]

#: The canonical gate network (matches the chaos-confluence benchmark).
GATE_NETWORK_NODES = ("n1", "n2", "n3")

#: Small witness inputs for the zoo programs (edb relations differ per
#: program).  Chosen to exercise recursion, negation and emptiness without
#: making the async sweep slow.
ZOO_INSTANCES: dict[str, str] = {
    "tc": "E(1,2). E(2,3). E(3,1).",
    "neq-pairs": "E(1,1). E(1,2). E(2,3).",
    "non-loop-sources": "E(1,1). E(1,2). E(2,3).",
    "sp-missing-targets": "E(1,2). E(2,3). E(3,1). Mark(2).",
    "example51-p1": "E(1,2). E(2,3). E(3,1). E(3,4).",
    "example51-p2": "E(1,2). E(2,3). E(3,1). E(4,5).",
    "co-tc": "E(1,2). E(2,1). E(3,4).",
    "isolated-vertices": "V(1). V(2). V(3). E(1,2).",
    "two-relation-join": "R(1,2). R(2,2). S(2,3). S(3,1).",
    "win-move": "Move(1,2). Move(2,1). Move(2,3).",
    "tagged-edges": "E(1,2). E(2,3). E(3,1). S(1). S(3). L(2).",
    "disconnected-product": "S(1). S(2). T(3).",
}


def _zoo_workloads() -> list[Section4Protocol]:
    from ..core.analyzer import plan_distribution
    from ..queries.zoo import zoo_entries, zoo_program

    workloads = []
    for entry in zoo_entries():
        program = zoo_program(entry.name)
        plan = plan_distribution(program)
        workloads.append(
            Section4Protocol(
                key=f"zoo-{entry.name}",
                theorem=f"planner:{entry.monotonicity}",
                transducer=plan.transducer,
                query=plan.query,
                instance=Instance(parse_facts(ZOO_INSTANCES[entry.name])),
                domain_guided=plan.requires_domain_guided,
            )
        )
    return workloads


def gate_workloads() -> tuple[Section4Protocol, ...]:
    """Every workload the divergence gate covers: Section-4 protocol
    bundles, the barrier baseline, and the planned query zoo."""
    from ..transducers.barrier import barrier_baseline

    return (*section4_protocols(), barrier_baseline(), *_zoo_workloads())


def workload_by_key(key: str) -> Section4Protocol:
    for workload in gate_workloads():
        if workload.key == key:
            return workload
    known = ", ".join(w.key for w in gate_workloads())
    raise KeyError(f"unknown gate workload {key!r} (known: {known})")


def _build_network(
    workload: Section4Protocol, nodes: Sequence[Hashable]
) -> TransducerNetwork:
    network = Network(nodes)
    return TransducerNetwork(
        network, workload.transducer, workload.policy(network)
    )


def _target(
    workload: Section4Protocol, nodes: Sequence[Hashable], runtime: str
) -> dict:
    """The :mod:`repro.runtimes` target for *workload* on *runtime*: the
    by-key recipe for process workers, the network built from the bundle
    itself for the in-process runtimes (so a bundle outside the corpus
    still runs there)."""
    if runtime == "processes":
        return workload_spec_for(workload)
    return {"network": _build_network(workload, nodes)}


def sync_fingerprint(
    workload: Section4Protocol,
    *,
    nodes: Sequence[Hashable] = GATE_NETWORK_NODES,
    schedulers: Iterable[str] = SCHEDULER_NAMES,
    seed: int = 0,
) -> str:
    """The synchronous simulator's fingerprint, asserted identical across
    every named scheduler (the sync side of the confluence guarantee)."""
    fingerprints = {}
    for name in schedulers:
        observation = execute(
            "sync", _target(workload, nodes, "sync"), workload.instance,
            nodes=nodes, seed=seed, scheduler=name,
        )
        observation.result()  # a sync run that does not quiesce is an error
        fingerprints[name] = observation.fingerprint
    distinct = set(fingerprints.values())
    if len(distinct) != 1:
        raise AssertionError(
            f"sync runs of {workload.key!r} diverge across schedulers: "
            f"{fingerprints}"
        )
    return distinct.pop()


def cluster_fingerprint(
    workload: Section4Protocol,
    *,
    nodes: Sequence[Hashable] = GATE_NETWORK_NODES,
    transport: str = "memory",
    faults: bool = False,
    crashes: bool = False,
    seed: int = 0,
) -> tuple[str, Observation]:
    """One cluster execution; returns (fingerprint, observation).

    ``crashes`` layers the crash schedule (:data:`~repro.cluster.faults.
    CRASH_PLAN`) on top of the message chaos: every run under it must kill
    and recover at least one node, which the gate asserts via the
    observation's ``recoveries`` counter.
    """
    plan = CRASH_PLAN if crashes else CHAOS_PLAN if faults else None
    observation = execute(
        "cluster", _target(workload, nodes, "cluster"), workload.instance,
        nodes=nodes, seed=seed, transport=transport, faults=plan,
    )
    return observation.fingerprint, observation


@dataclass(frozen=True)
class ProcessGateVerdict:
    """Asyncio runtime vs. process runtime, held byte-identical.

    ``kill_fingerprint`` covers the run with a real ``SIGKILL`` + recovery;
    ``crashes``/``recoveries``/``wal_replayed`` are that run's counters and
    must show the kill actually happened (a kill schedule that never fires
    would gate nothing).
    """

    key: str
    expected_fingerprint: str
    async_fingerprint: str
    process_fingerprint: str
    kill_fingerprint: str | None
    processes: int
    crashes: int
    recoveries: int
    wal_replayed: int

    @property
    def passed(self) -> bool:
        fingerprints = {self.async_fingerprint, self.process_fingerprint}
        if self.kill_fingerprint is not None:
            fingerprints.add(self.kill_fingerprint)
            if self.crashes < 1 or self.recoveries < 1 or self.wal_replayed < 1:
                return False
        return fingerprints == {self.expected_fingerprint}

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def check_process_workload(
    workload: Section4Protocol,
    *,
    processes: int = len(GATE_NETWORK_NODES),
    seed: int = 0,
    kill: bool = True,
    kill_node: str | None = None,
    kill_after: int = 2,
    timeout: float | None = 120.0,
) -> ProcessGateVerdict:
    """Gate the process runtime against the asyncio runtime and Q(I).

    Three fingerprints must agree with the synchronous expectation: the
    asyncio cluster (memory transport), a clean process run, and — when
    ``kill`` is set — a process run in which ``kill_node`` (default: the
    second ring position) is ``SIGKILL``ed after ``kill_after`` transitions
    and recovered from its on-disk snapshot + WAL.  The workload is rebuilt
    *by key* inside each worker, so it must come from
    :func:`gate_workloads` or be a scaling workload.
    """
    nodes = node_names(processes)

    def run(runtime: str, **options) -> Observation:
        observation = execute(
            runtime, _target(workload, nodes, runtime), workload.instance,
            nodes=nodes, seed=seed, timeout=timeout, **options,
        )
        observation.result()  # a gate run that does not quiesce is an error
        return observation

    clean = run("processes")
    killed = None
    if kill:
        killed = run(
            "processes", kill=(kill_node or nodes[1 % len(nodes)], kill_after)
        )
    return ProcessGateVerdict(
        key=workload.key,
        expected_fingerprint=sync_fingerprint(workload, nodes=nodes),
        async_fingerprint=run("cluster").fingerprint,
        process_fingerprint=clean.fingerprint,
        kill_fingerprint=killed.fingerprint if killed else None,
        processes=processes,
        crashes=killed.crashes if killed else 0,
        recoveries=killed.recoveries if killed else 0,
        wal_replayed=killed.wal_replayed if killed else 0,
    )


@dataclass(frozen=True)
class GateVerdict:
    """The outcome of gating one workload across the full matrix."""

    key: str
    expected_fingerprint: str
    runs: int
    divergences: tuple[dict, ...]
    crash_runs: int = 0
    min_recoveries: int | None = None

    @property
    def passed(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "expected_fingerprint": self.expected_fingerprint,
            "runs": self.runs,
            "crash_runs": self.crash_runs,
            "min_recoveries": self.min_recoveries,
            "passed": self.passed,
            "divergences": list(self.divergences),
        }


def check_workload(
    workload: Section4Protocol,
    *,
    nodes: Sequence[Hashable] = GATE_NETWORK_NODES,
    seeds: Iterable[int] = range(20),
    transports: Iterable[str] = tuple(TRANSPORT_NAMES),
    fault_modes: Iterable[bool] = (False, True),
    crash_modes: Iterable[bool] = (False, True),
) -> GateVerdict:
    """Gate one workload: sync fingerprint (all schedulers) must equal the
    cluster fingerprint for every seed × transport × fault/crash mode.

    The mode matrix is the cross product minus (crash without faults):
    the crash schedule layers on top of message chaos, so the effective
    trio per transport×seed is {clean, chaos, chaos+crash}.  Every
    crash-mode run must actually exercise ≥ 1 recovery (a crash schedule
    that never fires would silently gate nothing), asserted via the run's
    ``recoveries`` counter and surfaced as ``min_recoveries``.
    """
    expected = sync_fingerprint(workload, nodes=nodes)
    # The paper's expected Q(I) — the runtime-independent spec every run,
    # on either runtime, has to refine.
    spec = spec_for(workload.query, workload.instance)
    divergences = []
    runs = 0
    crash_runs = 0
    min_recoveries: int | None = None
    if output_fingerprint(spec.final) != expected:
        divergences.append(
            {
                "seed": None,
                "transport": "sync",
                "faults": False,
                "crashes": False,
                "fingerprint": expected,
                "note": "sync output differs from centralized Q(I)",
            }
        )
    for transport, faults, crashes, seed in product(
        transports, fault_modes, crash_modes, tuple(seeds)
    ):
        if crashes and not faults:
            continue
        actual, observation = cluster_fingerprint(
            workload, nodes=nodes, transport=transport, faults=faults,
            crashes=crashes, seed=seed,
        )
        runs += 1
        notes = [violation.describe() for violation in refines(observation, spec)]
        if crashes:
            crash_runs += 1
            recoveries = observation.recoveries
            if min_recoveries is None or recoveries < min_recoveries:
                min_recoveries = recoveries
            if recoveries < 1:
                notes.append("crash schedule exercised no recovery")
        divergences.extend(
            {
                "seed": seed,
                "transport": transport,
                "faults": faults,
                "crashes": crashes,
                "fingerprint": actual,
                "note": note,
            }
            for note in notes
        )
    return GateVerdict(
        key=workload.key,
        expected_fingerprint=expected,
        runs=runs,
        divergences=tuple(divergences),
        crash_runs=crash_runs,
        min_recoveries=min_recoveries,
    )

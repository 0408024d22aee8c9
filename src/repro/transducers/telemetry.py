"""Structured run telemetry: machine-readable reports over finished runs.

A :class:`RunReport` snapshots everything a confluence or robustness sweep
needs to compare runs — aggregate :class:`~repro.transducers.runtime.RunMetrics`,
per-node delivery counters and buffer high-water marks, fault counters from
the channel, rounds-to-quiescence, and a fingerprint of the global output
so "byte-identical output" is a string comparison.

The JSON layout (``RunReport.to_dict``) is documented in ``docs/CHAOS.md``
and versioned through ``REPORT_VERSION``; it is emitted by the CLI
(``repro run --report out.json``); the ``CHAOS`` rows of the paper gate
(``repro gate paper``) read the same reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from ..datalog.instance import Instance
from .runtime import Run, Scheduler

__all__ = [
    "REPORT_VERSION",
    "REQUIRED_REPORT_KEYS",
    "REQUIRED_CLUSTER_KEYS",
    "REQUIRED_CRASH_KEYS",
    "REQUIRED_NODE_KEYS",
    "NodeReport",
    "RunReport",
    "build_run_report",
    "output_fingerprint",
    "validate_report_dict",
    "write_report",
]

#: Bumped whenever the report JSON layout changes incompatibly.
REPORT_VERSION = 1

#: The versioned report schema, as required-key sets per report flavor.
#: Consumers (sweeps, CI, the conformance tests) validate against these
#: instead of hardcoding key lists — ``validate_report_dict`` is the one
#: place the contract lives.
REQUIRED_REPORT_KEYS = frozenset(
    {
        "version",
        "protocol",
        "nodes",
        "policy",
        "scheduler",
        "channel",
        "quiesced",
        "rounds_to_quiescence",
        "metrics",
        "faults",
        "per_node",
        "output_facts",
        "output_fingerprint",
    }
)

#: Cluster runs additionally carry the transport and Safra-ring telemetry.
REQUIRED_CLUSTER_KEYS = REQUIRED_REPORT_KEYS | {
    "transport",
    "token_rounds",
    "in_flight_high_water",
}

#: Crash-recovery cluster runs additionally carry the recovery counters.
REQUIRED_CRASH_KEYS = REQUIRED_CLUSTER_KEYS | {
    "crashes",
    "recoveries",
    "wal_replayed",
    "snapshot_bytes",
}

#: Every per-node record carries these, whatever the runtime.
REQUIRED_NODE_KEYS = frozenset(
    {
        "node",
        "transitions",
        "heartbeats",
        "deliveries",
        "sent_facts",
        "buffer_high_water",
        "buffered_at_end",
        "output_facts",
        "memory_facts",
    }
)

_REQUIRED_BY_KIND = {
    "run": REQUIRED_REPORT_KEYS,
    "cluster": REQUIRED_CLUSTER_KEYS,
    "cluster-crash": REQUIRED_CRASH_KEYS,
}


def validate_report_dict(payload: dict, *, kind: str = "run") -> None:
    """Validate a report JSON dict against the versioned schema.

    ``kind`` is one of ``"run"`` (synchronous simulator), ``"cluster"``
    (async runtime) or ``"cluster-crash"`` (async runtime with the
    crash-recovery counters).  Raises :class:`ValueError` naming every
    missing key, a version mismatch, or a malformed per-node record —
    silence means the report honors the contract.
    """
    try:
        required = _REQUIRED_BY_KIND[kind]
    except KeyError:
        raise ValueError(
            f"unknown report kind {kind!r}; expected one of "
            f"{sorted(_REQUIRED_BY_KIND)}"
        ) from None
    if not isinstance(payload, dict):
        raise ValueError(f"report must be a JSON object, got {type(payload).__name__}")
    version = payload.get("version")
    if version != REPORT_VERSION:
        raise ValueError(
            f"report version {version!r} does not match {REPORT_VERSION}"
        )
    missing = sorted(required - payload.keys())
    if missing:
        raise ValueError(f"{kind} report is missing keys: {', '.join(missing)}")
    per_node = payload["per_node"]
    if not isinstance(per_node, list) or not per_node:
        raise ValueError("per_node must be a non-empty list of node records")
    for record in per_node:
        node_missing = sorted(REQUIRED_NODE_KEYS - record.keys())
        if node_missing:
            raise ValueError(
                f"per_node record {record.get('node', '?')} is missing keys: "
                f"{', '.join(node_missing)}"
            )


def output_fingerprint(instance: Instance) -> str:
    """A stable digest of an instance: sha256 over the sorted fact reprs.

    Two runs have byte-identical global output iff their fingerprints are
    equal — the equality the chaos-confluence sweep asserts.
    """
    canonical = "\n".join(repr(fact) for fact in instance.sorted_facts())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class NodeReport:
    """Telemetry for one node of a finished run."""

    node: str
    transitions: int
    heartbeats: int
    deliveries: int
    sent_facts: int
    buffer_high_water: int
    buffered_at_end: int
    output_facts: int
    memory_facts: int
    #: Cluster runs only: deepest this node's transport mailbox ever got,
    #: in frames.  ``None`` for synchronous-simulator reports.
    mailbox_high_water: int | None = None

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "node": self.node,
            "transitions": self.transitions,
            "heartbeats": self.heartbeats,
            "deliveries": self.deliveries,
            "sent_facts": self.sent_facts,
            "buffer_high_water": self.buffer_high_water,
            "buffered_at_end": self.buffered_at_end,
            "output_facts": self.output_facts,
            "memory_facts": self.memory_facts,
        }
        if self.mailbox_high_water is not None:
            payload["mailbox_high_water"] = self.mailbox_high_water
        return payload


@dataclass(frozen=True)
class RunReport:
    """The full structured report for one run (see docs/CHAOS.md)."""

    protocol: str
    nodes: tuple[str, ...]
    policy: str
    scheduler: str
    channel: str
    quiesced: bool
    metrics: dict[str, int]
    faults: dict[str, int]
    per_node: tuple[NodeReport, ...]
    output_facts: int
    output_fingerprint: str
    trace: tuple[dict[str, Any], ...] | None = None
    #: Cluster runs only (``None`` for synchronous-simulator reports):
    #: transport name, Safra probe circulations until quiescence, and the
    #: fault layer's peak count of facts withheld for redelivery.
    transport: str | None = None
    token_rounds: int | None = None
    in_flight_high_water: int | None = None
    #: Crash-recovery telemetry (cluster runs with a checkpoint store):
    #: injected crashes, completed recoveries, WAL entries replayed across
    #: all recoveries, and total snapshot bytes written.
    crashes: int | None = None
    recoveries: int | None = None
    wal_replayed: int | None = None
    snapshot_bytes: int | None = None
    version: int = field(default=REPORT_VERSION)

    @property
    def rounds_to_quiescence(self) -> int | None:
        """Rounds executed, when the run actually quiesced."""
        return self.metrics["rounds"] if self.quiesced else None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "version": self.version,
            "protocol": self.protocol,
            "nodes": list(self.nodes),
            "policy": self.policy,
            "scheduler": self.scheduler,
            "channel": self.channel,
            "quiesced": self.quiesced,
            "rounds_to_quiescence": self.rounds_to_quiescence,
            "metrics": dict(self.metrics),
            "faults": dict(self.faults),
            "per_node": [node.to_dict() for node in self.per_node],
            "output_facts": self.output_facts,
            "output_fingerprint": self.output_fingerprint,
        }
        if self.trace is not None:
            payload["trace"] = [dict(record) for record in self.trace]
        if self.transport is not None:
            payload["transport"] = self.transport
        if self.token_rounds is not None:
            payload["token_rounds"] = self.token_rounds
        if self.in_flight_high_water is not None:
            payload["in_flight_high_water"] = self.in_flight_high_water
        if self.crashes is not None:
            payload["crashes"] = self.crashes
        if self.recoveries is not None:
            payload["recoveries"] = self.recoveries
        if self.wal_replayed is not None:
            payload["wal_replayed"] = self.wal_replayed
        if self.snapshot_bytes is not None:
            payload["snapshot_bytes"] = self.snapshot_bytes
        return payload

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """One human line: the numbers one scans in a sweep log."""
        state = "quiesced" if self.quiesced else "DID NOT QUIESCE"
        return (
            f"{self.protocol} [{self.scheduler}/{self.channel}] {state} "
            f"after {self.metrics['rounds']} rounds, "
            f"{self.metrics['transitions']} transitions "
            f"({self.metrics['pre_round_transitions']} adversarial), "
            f"{self.output_facts} output facts, "
            f"out={self.output_fingerprint[:12]}"
        )


def build_run_report(
    run: Run,
    *,
    scheduler: Scheduler | None = None,
    quiesced: bool = True,
    include_trace: bool = False,
    trace_limit: int = 200,
) -> RunReport:
    """Assemble the report for a (normally finished) run.

    ``scheduler`` is the one the run executed under — the Run itself does
    not retain it.  ``include_trace`` embeds the last ``trace_limit``
    transition records (JSON-ready dicts) for debugging divergent runs.
    """
    output = run.global_output()
    per_node = []
    for node in run.nodes():
        stats = run.node_stats[node]
        state = run.state(node)
        per_node.append(
            NodeReport(
                node=repr(node),
                transitions=stats.transitions,
                heartbeats=stats.heartbeats,
                deliveries=stats.deliveries,
                sent_facts=stats.sent_facts,
                buffer_high_water=stats.buffer_high_water,
                buffered_at_end=sum(run.buffer(node).values()),
                output_facts=len(state.output),
                memory_facts=len(state.memory),
            )
        )
    trace = None
    if include_trace:
        trace = tuple(record.to_dict() for record in run.history[-trace_limit:])
    scheduler_name = getattr(scheduler, "name", None) or (
        type(scheduler).__name__ if scheduler is not None else "fair"
    )
    return RunReport(
        protocol=run.network.transducer.name,
        nodes=tuple(repr(node) for node in run.nodes()),
        policy=run.network.policy.name,
        scheduler=scheduler_name,
        channel=run.channel.name,
        quiesced=quiesced,
        metrics=run.metrics.to_dict(),
        faults=run.channel.fault_counters(),
        per_node=tuple(per_node),
        output_facts=len(output),
        output_fingerprint=output_fingerprint(output),
        trace=trace,
    )


def write_report(report: RunReport, path: str) -> None:
    """Write the report JSON to *path* (the CLI's ``--report`` backend)."""
    with open(path, "w") as handle:
        handle.write(report.to_json())
        handle.write("\n")

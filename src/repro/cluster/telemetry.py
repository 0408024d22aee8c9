"""Cluster telemetry: :class:`~repro.transducers.telemetry.RunReport` for
asynchronous runs.

The report layout is shared with the synchronous simulator so sweep
tooling can diff the two sides of the divergence gate directly; cluster
runs additionally populate ``transport``, ``token_rounds`` (Safra probe
circulations), ``in_flight_high_water`` (peak facts withheld by the fault
layer), per-node ``mailbox_high_water``, and — when a checkpoint store is
attached — the crash-recovery counters ``crashes``/``recoveries``/
``wal_replayed``/``snapshot_bytes``.
"""

from __future__ import annotations

from ..transducers.runtime import NodeState, NodeStats
from ..transducers.telemetry import (
    NodeReport,
    RunReport,
    output_fingerprint,
)
from .runtime import ClusterRun

__all__ = ["build_cluster_report"]


def build_cluster_report(run: ClusterRun, *, quiesced: bool = True) -> RunReport:
    """Assemble the structured report for a finished cluster run.

    A run that did not quiesce was still harvested, over the nodes that
    could show their work; a process worker reaped before it delivered a
    result shows nothing, and reads as zero rather than failing the report.
    """
    output = run.global_output()
    per_node = []
    for node in run.nodes():
        stats = run.node_stats.get(node) or NodeStats()
        try:
            state = run.state(node)
        except KeyError:
            state = NodeState()
        per_node.append(
            NodeReport(
                node=repr(node),
                transitions=stats.transitions,
                heartbeats=stats.heartbeats,
                deliveries=stats.deliveries,
                sent_facts=stats.sent_facts,
                buffer_high_water=stats.buffer_high_water,
                buffered_at_end=0,  # quiescence ⇒ every mailbox drained
                output_facts=len(state.output),
                memory_facts=len(state.memory),
                mailbox_high_water=stats.buffer_high_water,
            )
        )
    return RunReport(
        protocol=run.network.transducer.name,
        nodes=tuple(repr(node) for node in run.nodes()),
        policy=run.network.policy.name,
        scheduler="async",
        channel=run.transport_name,
        quiesced=quiesced,
        metrics=run.metrics.to_dict(),
        faults=run.fault_counters(),
        per_node=tuple(per_node),
        output_facts=len(output),
        output_fingerprint=output_fingerprint(output),
        transport=run.transport_name,
        token_rounds=run.token_probes,
        in_flight_high_water=run.in_flight_high_water,
        crashes=run.crashes,
        recoveries=run.recoveries,
        wal_replayed=run.wal_replayed,
        snapshot_bytes=run.snapshot_bytes,
    )

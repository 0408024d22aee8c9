"""Tests for the asynchronous cluster runtime: equivalence with the
synchronous simulator, decentralization, termination, and telemetry."""

import pytest

from repro.cluster import ClusterRun
from repro.cluster.gate import (
    check_workload,
    cluster_fingerprint,
    gate_workloads,
    sync_fingerprint,
    workload_by_key,
)
from repro.transducers.node import _wire_sender
from repro.cluster.transport import InMemoryTransport
from repro.datalog import Fact, Instance, Schema, parse_facts
from repro.transducers import (
    CHAOS_PLAN,
    Network,
    PythonTransducer,
    QuiescenceError,
    TransducerNetwork,
    TransducerSchema,
    hash_policy,
)

# A fast, representative slice of the gate corpus: a Theorem 4.3 protocol,
# the coordinating barrier baseline, and a well-founded-semantics zoo
# program.  The committed BENCH_cluster.json covers the full matrix.
SAMPLE_KEYS = ("thm43-distinct", "barrier-baseline", "zoo-win-move")


@pytest.mark.parametrize("key", SAMPLE_KEYS)
@pytest.mark.parametrize("transport", ["memory", "tcp"])
@pytest.mark.parametrize("faults", [False, True])
def test_cluster_matches_sync(key, transport, faults):
    workload = workload_by_key(key)
    expected = sync_fingerprint(workload)
    for seed in (0, 1):
        actual, run = cluster_fingerprint(
            workload, transport=transport, faults=faults, seed=seed
        )
        assert actual == expected, (
            f"{key} diverged (transport={transport}, faults={faults}, "
            f"seed={seed})"
        )
        assert run.token_probes >= 1


def test_gate_corpus_covers_protocols_and_zoo():
    keys = {w.key for w in gate_workloads()}
    assert {"thm43-distinct", "thm44-disjoint", "cor46-broadcast"} <= keys
    assert "barrier-baseline" in keys
    assert {"zoo-tc", "zoo-win-move", "zoo-co-tc"} <= keys
    assert len(keys) >= 17


def test_check_workload_verdict_shape():
    verdict = check_workload(
        workload_by_key("zoo-tc"),
        seeds=range(2),
        transports=["memory"],
        fault_modes=[False, True],
    )
    assert verdict.passed
    # 2 seeds × {clean, chaos, chaos+crash} (crash-without-faults is skipped)
    assert verdict.runs == 6
    assert verdict.crash_runs == 2
    assert verdict.min_recoveries is not None and verdict.min_recoveries >= 1
    payload = verdict.to_dict()
    assert payload["key"] == "zoo-tc"
    assert payload["divergences"] == []
    assert payload["crash_runs"] == 2
    assert payload["min_recoveries"] >= 1


def test_check_workload_without_crash_modes():
    verdict = check_workload(
        workload_by_key("zoo-tc"),
        seeds=range(2),
        transports=["memory"],
        fault_modes=[False, True],
        crash_modes=[False],
    )
    assert verdict.passed
    assert verdict.runs == 4
    assert verdict.crash_runs == 0
    assert verdict.min_recoveries is None


def test_single_node_network():
    workload = workload_by_key("zoo-tc")
    expected = sync_fingerprint(workload, nodes=("solo",))
    actual, run = cluster_fingerprint(workload, nodes=("solo",))
    assert actual == expected
    assert run.token_probes >= 1  # the token rings through the single node


def test_run_is_one_shot():
    workload = workload_by_key("zoo-tc")
    network = Network(("n1", "n2", "n3"))
    run = ClusterRun(
        TransducerNetwork(network, workload.transducer, workload.policy(network)),
        workload.instance,
    )
    run.run_to_quiescence()
    with pytest.raises(RuntimeError, match="one-shot"):
        run.run_to_quiescence()


class _SendRecvOnly:
    """An endpoint proxy exposing *only* the node-facing interface.

    If any code path inside the node logic tried to reach transport
    internals (another node's mailbox, global counters, the transport
    itself), it would die with AttributeError here and the run would fail.
    """

    __slots__ = ("_inner",)

    def __init__(self, inner):
        object.__setattr__(self, "_inner", inner)

    @property
    def node(self):
        return self._inner.node

    async def send(self, target, frame):
        return await self._inner.send(target, frame)

    async def recv(self):
        return await self._inner.recv()

    def recv_nowait(self):
        return self._inner.recv_nowait()


class _ProxyTransport(InMemoryTransport):
    async def open(self, nodes):
        endpoints = await super().open(nodes)
        return {node: _SendRecvOnly(ep) for node, ep in endpoints.items()}


def test_nodes_only_use_send_and_receive():
    """Decentralization, asserted behaviorally: the whole run completes with
    endpoints stripped down to send/recv/recv_nowait — termination is decided
    from envelope metadata alone, with no global buffer view."""
    workload = workload_by_key("thm43-distinct")
    expected = sync_fingerprint(workload)
    run = ClusterRun(
        TransducerNetwork(
            Network(("n1", "n2", "n3")),
            workload.transducer,
            workload.policy(Network(("n1", "n2", "n3"))),
        ),
        workload.instance,
        transport=_ProxyTransport(),
    )
    run.run_to_quiescence()
    from repro.transducers.telemetry import output_fingerprint

    assert output_fingerprint(run.global_output()) == expected


def test_faulty_run_stays_behind_send_recv_proxy():
    """The fault layer composes with the proxy: FaultyEndpoint itself only
    needs send/recv on the endpoint it wraps."""
    workload = workload_by_key("zoo-tc")
    expected = sync_fingerprint(workload)
    run = ClusterRun(
        TransducerNetwork(
            Network(("n1", "n2", "n3")),
            workload.transducer,
            workload.policy(Network(("n1", "n2", "n3"))),
        ),
        workload.instance,
        transport=_ProxyTransport(),
        fault_plan=CHAOS_PLAN,
        seed=5,
    )
    run.run_to_quiescence()
    from repro.transducers.telemetry import output_fingerprint

    assert output_fingerprint(run.global_output()) == expected


def _restless_network() -> TransducerNetwork:
    """A transducer that changes memory on every transition — never passive,
    so quiescence is impossible."""
    inputs = Schema({"E": 2})
    schema = TransducerSchema(
        inputs=inputs,
        outputs=Schema({"O": 1}),
        messages=Schema({"m": 1}),
        memory=Schema({"tick": 1}),
    )

    def insert(view):
        count = sum(1 for f in view.memory if f.relation == "tick")
        yield Fact("tick", (count,))

    def send(view):
        count = sum(1 for f in view.memory if f.relation == "tick")
        yield Fact("m", (count,))

    transducer = PythonTransducer(schema, insert=insert, send=send, name="restless")
    network = Network(("n1", "n2"))
    return TransducerNetwork(network, transducer, hash_policy(inputs, network))


def test_non_quiescing_run_raises():
    run = ClusterRun(
        _restless_network(),
        Instance(parse_facts("E(1,2).")),
        mailbox_capacity=8,
        timeout=0.5,
    )
    with pytest.raises(QuiescenceError, match="did not quiesce"):
        run.run_to_quiescence()


def test_telemetry_and_report():
    workload = workload_by_key("thm43-distinct")
    _, run = cluster_fingerprint(workload, transport="memory", faults=True, seed=2)
    report = run.report
    assert report.metrics["transitions"] > 0
    assert report.metrics["rounds"] == run.token_probes
    assert set(report.faults) == {
        "duplicated", "delayed", "dropped", "redelivered",
    }
    assert report.in_flight_high_water >= 0
    assert any(node.buffer_high_water >= 1 for node in report.per_node)

    assert report.transport == "memory+faulty"
    assert report.token_rounds == run.token_probes
    assert report.scheduler == "async"
    payload = report.to_dict()
    assert payload["transport"] == "memory+faulty"
    assert payload["token_rounds"] >= 1
    assert "in_flight_high_water" in payload
    assert all("mailbox_high_water" in node for node in payload["per_node"])
    # Quiescence means every mailbox was drained.
    assert all(node["buffered_at_end"] == 0 for node in payload["per_node"])


def test_wire_sender_fallback():
    assert _wire_sender("n1") == "n1"
    assert _wire_sender(7) == 7
    assert _wire_sender(("a", 1)) == ("a", 1)
    marker = object()
    assert _wire_sender(marker) == repr(marker)

"""Streaming ingestion across the cluster runtimes: delta envelopes re-arm
the Safra ring, epoch trajectories match the synchronous simulator
byte-for-byte, the WAL replays a killed node's stream, and epoch
boundaries survive the cross-connection race (data from a fast peer's
next epoch arriving before the initiator's delta envelope)."""

import asyncio

import pytest

from repro.cluster.checkpoint import NodeSnapshot, group_replay_ops
from repro.cluster.codec import (
    KIND_DATA,
    KIND_DELTA,
    Envelope,
    decode_envelope,
    encode_envelope,
)
from repro.cluster.procs import ProcessCluster, _close_writers
from repro.cluster.runtime import ClusterRun
from repro.core.analyzer import distributed_run, planned_network
from repro.datalog import Instance, parse_facts, parse_program
from repro.streaming import DeltaFeed
from repro.transducers.node import NodeCore, Send
from repro.transducers.runtime import FairScheduler
from repro.transducers.telemetry import output_fingerprint

TC_TEXT = "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z)."
BASE = "E(1, 2). E(2, 3)."
BATCHES = ["E(3, 4).", "E(4, 1). E(4, 5)."]
NODES = ("n1", "n2", "n3")


def _drive(effects):
    """Run one core event to exhaustion, every send accepted once."""
    performed, answer = [], None
    try:
        while True:
            performed.append(effects.send(answer))
            answer = 1 if isinstance(performed[-1], Send) else None
    except StopIteration:
        return performed


def _sync_trajectory(seed=0):
    run = distributed_run(
        parse_program(TC_TEXT), Instance(parse_facts(BASE)), nodes=NODES
    )
    run.stream_to_quiescence(
        DeltaFeed.from_texts(BATCHES), scheduler=FairScheduler(seed)
    )
    return [output_fingerprint(output) for output in run.epoch_outputs]


def _cluster_trajectory(seed=0, **kwargs):
    run = ClusterRun(
        planned_network(parse_program(TC_TEXT), NODES),
        Instance(parse_facts(BASE)),
        seed=seed,
        delta_feed=DeltaFeed.from_texts(BATCHES),
        **kwargs,
    )
    asyncio.run(run.arun())
    return [output_fingerprint(output) for output in run.epoch_outputs]


class TestAsyncioStreaming:
    def test_matches_sync_epoch_by_epoch(self):
        assert _cluster_trajectory() == _sync_trajectory()

    def test_tcp_transport_matches_too(self):
        assert _cluster_trajectory(transport="tcp") == _sync_trajectory()

    def test_epoch_count_is_batches_plus_one(self):
        run = ClusterRun(
            planned_network(parse_program(TC_TEXT), NODES),
            Instance(parse_facts(BASE)),
            delta_feed=DeltaFeed.from_texts(BATCHES),
        )
        asyncio.run(run.arun())
        assert run.epochs == len(BATCHES)
        assert len(run.epoch_outputs) == len(BATCHES) + 1
        final = run.epoch_outputs[-1]
        for output in run.epoch_outputs:
            assert output <= final


class TestProcessStreaming:
    def test_process_cluster_matches_sync(self):
        cluster = ProcessCluster(
            {"kind": "program", "text": TC_TEXT},
            Instance(parse_facts(BASE)),
            nodes=NODES,
            delta_feed=DeltaFeed.from_texts(BATCHES),
        )
        cluster.run_to_quiescence()
        prints = [output_fingerprint(output) for output in cluster.epoch_outputs]
        assert prints == _sync_trajectory()

    def test_kill_and_recover_replays_the_stream(self, tmp_path):
        cluster = ProcessCluster(
            {"kind": "program", "text": TC_TEXT},
            Instance(parse_facts(BASE)),
            nodes=NODES,
            run_dir=str(tmp_path / "run"),
            delta_feed=DeltaFeed.from_texts(BATCHES),
            kill_node="n2",
            kill_after=2,
        )
        cluster.run_to_quiescence()
        assert cluster.crashes >= 1 and cluster.recoveries >= 1
        assert cluster.wal_replayed > 0
        prints = [output_fingerprint(output) for output in cluster.epoch_outputs]
        assert prints == _sync_trajectory()

    def test_designated_outputs_respected_by_workers(self):
        # Rule text alone cannot carry a designated-output restriction;
        # the spec's "outputs" key must make workers agree with the
        # coordinator on the output schema.
        program = parse_program(
            "T(x, y) :- E(x, y).\nAux(x) :- E(x, y).",
            output_relations=("T",),
        )
        cluster = ProcessCluster(
            {
                "kind": "program",
                "text": "\n".join(repr(rule) for rule in program.rules),
                "outputs": sorted(program.output_relations),
            },
            Instance(parse_facts(BASE)),
            nodes=NODES,
        )
        result = cluster.run_to_quiescence()
        assert {fact.relation for fact in result} == {"T"}


class TestEpochBoundaryRace:
    """The cross-connection race regression: a receiver that sees a data
    frame stamped with a *newer* epoch must close the older boundary from
    its pre-delivery output, not wait for the (slower) delta envelope.
    Events in, effects out, on a bare core — no run, no endpoint."""

    def _booted(self):
        network = planned_network(parse_program(TC_TEXT), NODES)
        base = Instance(parse_facts(BASE))
        core = NodeCore(network, "n2", network.policy.distribute(base)["n2"])
        _drive(core.boot())
        return core

    def _frame(self, kind, sender, round, facts=""):
        return encode_envelope(
            Envelope(
                kind=kind, sender=sender, round=round, sequence=1,
                facts=tuple(parse_facts(facts)),
            )
        )

    def test_data_from_next_epoch_closes_the_boundary(self):
        core = self._booted()
        at_boundary = tuple(sorted(core.state.output))
        # Epoch-1 data from a fast peer races ahead of the delta envelope.
        _drive(core.frames([self._frame(KIND_DATA, "n3", 1, "cast_E(7, 8).")]))
        assert core.epoch_outputs[0] == at_boundary
        assert core.epoch == 1
        assert len(core.state.output) > len(at_boundary)
        # The late delta envelope for the same boundary must not
        # overwrite the record with post-epoch state.
        _drive(core.frames([self._frame(KIND_DELTA, "n1", 0)]))
        assert core.epoch_outputs == {0: at_boundary}
        assert core.epoch == 1

    def test_boundaries_collapse_for_a_quiet_node(self):
        core = self._booted()
        _drive(core.frames([self._frame(KIND_DELTA, "n1", 2)]))
        assert set(core.epoch_outputs) == {0, 1, 2}
        assert len({core.epoch_outputs[e] for e in (0, 1, 2)}) == 1
        assert core.epoch == 3

    def test_broadcast_frames_carry_the_sender_epoch(self):
        core = self._booted()
        effects = _drive(
            core.frames([self._frame(KIND_DELTA, "n1", 1, "E(5, 6).")])
        )
        sent = [
            decode_envelope(effect.frame)
            for effect in effects
            if isinstance(effect, Send)
        ]
        assert sent and {envelope.kind for envelope in sent} == {KIND_DATA}
        assert all(envelope.round == 2 for envelope in sent)


class TestReplayBoundary:
    def _frame(self, kind, round, sequence, facts=()):
        return encode_envelope(
            Envelope(
                kind=kind,
                sender="n1",
                round=round,
                sequence=sequence,
                facts=tuple(facts),
            )
        )

    def test_group_replay_ops_computes_the_max_boundary(self):
        delta = self._frame(KIND_DELTA, 1, 4, parse_facts("E(3, 4)."))
        data = self._frame(KIND_DATA, 3, 5, parse_facts("T(1, 2)."))
        entries = [("batch", (delta, data))]
        (op,) = group_replay_ops(entries, decode_data_frame=decode_envelope)
        # delta names boundary 1 directly; epoch-3 data proves boundary 2.
        assert op.epoch_boundary == 2
        assert op.delta_facts == tuple(parse_facts("E(3, 4)."))
        assert op.facts == tuple(parse_facts("T(1, 2)."))

    def test_epoch_zero_data_implies_no_boundary(self):
        data = self._frame(KIND_DATA, 0, 1, parse_facts("T(1, 2)."))
        (op,) = group_replay_ops([("batch", (data,))], decode_data_frame=decode_envelope)
        assert op.epoch_boundary == -1

    def test_snapshot_round_trips_current_epoch(self):
        snapshot = NodeSnapshot(
            counter=1,
            black=True,
            sequence=7,
            transitions=3,
            probe_started=True,
            wal_position=2,
            stats=(3, 1, 4, 9),
            output=tuple(parse_facts("T(1, 2).")),
            memory=(),
            current_epoch=2,
        )
        decoded = NodeSnapshot.decode(snapshot.encode())
        assert decoded == snapshot
        assert decoded.current_epoch == 2


class TestCloseWriters:
    def test_waits_every_writer_and_suppresses_errors(self):
        log = []

        class _Writer:
            def __init__(self, name, fail_close=False, fail_wait=False):
                self.name = name
                self.fail_close = fail_close
                self.fail_wait = fail_wait

            def close(self):
                log.append(("close", self.name))
                if self.fail_close:
                    raise ConnectionResetError("already gone")

            async def wait_closed(self):
                log.append(("wait", self.name))
                if self.fail_wait:
                    raise BrokenPipeError("peer died mid-flush")

        writers = [
            _Writer("a"),
            _Writer("b", fail_close=True),
            _Writer("c", fail_wait=True),
        ]
        asyncio.run(_close_writers(writers))
        assert [entry for entry in log if entry[0] == "close"] == [
            ("close", "a"),
            ("close", "b"),
            ("close", "c"),
        ]
        # Every writer's wait_closed is awaited even when a close or an
        # earlier wait raised — nothing is silently skipped.
        assert {name for kind, name in log if kind == "wait"} == {"a", "b", "c"}

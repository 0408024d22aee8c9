"""cluster_durable: the asyncio cluster over loopback TCP with an on-disk
WAL and snapshots, under message chaos and injected crashes.

``cluster.codec``, ``cluster.transport``, ``cluster.checkpoint`` and Safra
quiescence carry the cost.  Every op *writes* the WAL and snapshots; only
crash ops *read* and replay them.  Clean ops hold the median and three of
the four slowest ops per cycle are crash ops, so ``run_p50_ms`` is a
write-path number and ``run_p95_ms`` a read/replay-path number: a faster WAL
format that slows recovery fails on p95.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

from . import procstat
from .harness import Workload
from .sim_protocols import distributed_ops, parse_inputs, runtime_layers
from .spans import Recorder, duration, mean_attr, median_ms

FACTS = 24
NODES = 3
#: One cycle, (kind, fault plan): twelve clean, three chaos, five crash.
#: Sorted by cost, ranks 9-14 of 20 are one class of 60-90 ms ops (the clean
#: ``cotc`` and ``wm`` ops and the two faulty ``sp`` ops), which holds the
#: median, and ranks 17-20 one class of 150-230 ms ops (the ``cotc`` and
#: ``wm`` crash ops and the ``cotc`` chaos op), which holds the 95th
#: percentile.
SLOTS = (
    ("tc", "clean"), ("cotc", "clean"), ("tri", "chaos"), ("sp", "clean"), ("wm", "crash"),
    ("tri", "clean"), ("wm", "clean"), ("sp", "chaos"), ("tc", "clean"), ("sp", "crash"),
    ("sp", "clean"), ("cotc", "clean"), ("cotc", "chaos"), ("tri", "clean"), ("wm", "crash"),
    ("tc", "clean"), ("wm", "clean"), ("sp", "clean"), ("cotc", "crash"), ("tri", "crash"),
)
PATTERN = tuple((kind, FACTS, NODES, plan, False) for kind, plan in SLOTS)
CYCLES = 6


class ClusterDurable(Workload):
    name = "cluster_durable"
    why = (
        "codec, TCP transport, WAL/snapshot store and Safra quiescence carry "
        "the cost; every op writes the WAL (p50), only crash ops replay it (p95)"
    )
    warmup = 10

    def ops(self, seed: int, smoke: bool) -> list:
        return distributed_ops(self.name, PATTERN, seed, smoke, CYCLES)

    def prepare(self, ops, scratch) -> None:
        self._parsed = parse_inputs(ops)
        self._dir = Path(scratch) / "checkpoints"
        self._counter = 0

    def _fault_plan(self, op):
        from repro.cluster import CRASH_PLAN
        from repro.transducers import CHAOS_PLAN

        return {"clean": None, "chaos": CHAOS_PLAN, "crash": CRASH_PLAN}[
            op.params["flavour"]
        ]

    def _fresh_dir(self) -> Path:
        self._counter += 1
        return self._dir / f"op{self._counter}"

    def run(self, op):
        from repro.cluster import ClusterRun, DiskCheckpointStore, TcpTransport
        from repro.core.analyzer import network_for_plan, plan_distribution

        program, instance, _, nodes = self._parsed[op.id]
        directory = self._fresh_dir()
        try:
            run = ClusterRun(
                network_for_plan(plan_distribution(program), nodes),
                instance,
                transport=TcpTransport(),
                checkpoints=DiskCheckpointStore(directory),
                fault_plan=self._fault_plan(op),
                seed=op.params["seed"],
            )
            return run.run_to_quiescence()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def traced(self, op, rec: Recorder):
        from repro.cluster import ClusterRun, decode_envelope, encode_envelope
        from repro.core.analyzer import network_for_plan, plan_distribution

        from .proxies import TimedDiskStore, TimedTcpTransport, time_query

        program, instance, _, nodes = self._parsed[op.id]
        directory = self._fresh_dir()
        try:
            with rec.span("cluster") as root:
                with rec.span("core.analyzer.plan"):
                    plan = plan_distribution(program)
                time_query(plan, rec)
                transport = TimedTcpTransport()
                store = TimedDiskStore(directory)
                cpu_before = procstat.cpu_seconds()
                with rec.span("cluster.runtime.run") as span:
                    run = ClusterRun(
                        network_for_plan(plan, nodes),
                        instance,
                        transport=transport,
                        checkpoints=store,
                        fault_plan=self._fault_plan(op),
                        seed=op.params["seed"],
                    )
                    result = run.run_to_quiescence()
                cpu = procstat.cpu_seconds() - cpu_before
                metrics = run.metrics
                root.update(
                    transitions=metrics.transitions,
                    rounds=metrics.rounds,
                    message_facts_sent=metrics.message_facts_sent,
                    faults=sum(run.fault_counters().values()),
                    frames=transport.frames,
                    bytes=transport.bytes,
                    send_s=transport.send_s,
                    mailbox_high_water=max(
                        stats.buffer_high_water for stats in run.node_stats.values()
                    ),
                    wal_appends=store.wal_appends,
                    wal_bytes=store.wal_bytes,
                    wal_append_s=store.wal_append_s,
                    snapshot_bytes=store.snapshot_bytes,
                    snapshot_s=store.snapshot_s,
                    wal_read_s=store.wal_read_s,
                    wal_replayed=run.wal_replayed,
                    token_probes=run.token_probes,
                    in_flight_high_water=run.in_flight_high_water,
                    crashes=run.crashes,
                    recoveries=run.recoveries,
                    cpu_s=cpu,
                    run_s=duration(span),
                )
            # The codec's own cost: the frames that crossed the wire,
            # replayed through the public decode/encode functions.
            with rec.span("replay") as replay:
                started = time.perf_counter()
                envelopes = [decode_envelope(frame) for frame in transport.sample]
                middle = time.perf_counter()
                for envelope in envelopes:
                    encode_envelope(envelope)
                replay.update(
                    frames=len(envelopes),
                    decode_s=middle - started,
                    encode_s=time.perf_counter() - middle,
                    data_bytes=sum(
                        len(frame)
                        for frame, envelope in zip(transport.sample, envelopes)
                        if envelope.facts
                    ),
                    facts=sum(len(envelope.facts) for envelope in envelopes),
                )
            return result
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def layers(self, rec: Recorder, ops_run: int) -> dict:
        spans = rec.spans
        roots = [s for s in spans if s["name"] == "cluster"]

        def per_op_ms(key, chosen=roots):
            values = [s[key] * 1000.0 for s in chosen]
            return statistics.median(values) if values else 0.0

        def mean(key):
            return mean_attr(spans, "cluster", key, ops_run)

        crash_ops = [s for s in roots if s["crashes"]]
        layers = runtime_layers(spans, "cluster", ops_run)
        # The cluster runtime exposes neither its rounds to a scheduler hook
        # nor the step cache's counters, and distributes inside its
        # constructor: those rows are not measured here.
        for name in ("round_ms", "cache_hits", "cache_misses", "cache_hit_ratio"):
            del layers[f"transducers.runtime.{name}"]
        del layers["transducers.policy.distribute_ms"]
        layers.update(codec_layers(spans))
        cpu = sum(s["cpu_s"] for s in roots)
        wall = sum(s["run_s"] for s in roots)
        layers.update({
            "cluster.transport.frames": mean("frames"),
            "cluster.transport.bytes": mean("bytes"),
            "cluster.transport.send_ms": per_op_ms("send_s"),
            "cluster.transport.mailbox_high_water": max(
                (s["mailbox_high_water"] for s in roots), default=0
            ),
            "cluster.checkpoint.wal_appends": mean("wal_appends"),
            "cluster.checkpoint.wal_bytes": mean("wal_bytes"),
            "cluster.checkpoint.wal_append_ms": per_op_ms("wal_append_s"),
            "cluster.checkpoint.snapshot_bytes": mean("snapshot_bytes"),
            "cluster.checkpoint.snapshot_ms": per_op_ms("snapshot_s"),
            "cluster.checkpoint.wal_read_ms": per_op_ms("wal_read_s", crash_ops),
            "cluster.checkpoint.wal_replayed": mean("wal_replayed"),
            "cluster.runtime.run_ms": median_ms(spans, "cluster.runtime.run"),
            "cluster.runtime.token_probes": mean("token_probes"),
            "cluster.runtime.in_flight_high_water": max(
                (s["in_flight_high_water"] for s in roots), default=0
            ),
            "cluster.runtime.crashes": mean("crashes"),
            "cluster.runtime.recoveries": mean("recoveries"),
            "cluster.runtime.idle_ratio": 1.0 - cpu / wall if wall else 0.0,
        })
        return layers


def codec_layers(spans) -> dict:
    replays = [s for s in spans if s["name"] == "replay" and s.get("frames")]
    frames = sum(s["frames"] for s in replays)
    facts = sum(s["facts"] for s in replays)
    return {
        "cluster.codec.encode_us_per_frame": (
            sum(s["encode_s"] for s in replays) / frames * 1e6 if frames else 0.0
        ),
        "cluster.codec.decode_us_per_frame": (
            sum(s["decode_s"] for s in replays) / frames * 1e6 if frames else 0.0
        ),
        "cluster.codec.bytes_per_fact": (
            sum(s["data_bytes"] for s in replays) / facts if facts else 0.0
        ),
    }


WORKLOAD = ClusterDurable

"""Counting/timing proxies handed to the program through its own public
constructor arguments (``ClusterRun(transport=, checkpoints=)``,
``run_to_quiescence(scheduler=)``) or set on an object a public function
returned (the plan's query).

Each proxy forwards every call unchanged — bench/selftest.py checks that a
run's fingerprint is byte-identical with and without them — and only adds
clocks and counters around the call.
"""

from __future__ import annotations

import time

from repro.cluster import DiskCheckpointStore, TcpTransport
from repro.transducers import Scheduler


class RoundMarker(Scheduler):
    """Wraps the real scheduler; ``pre_round`` is the one hook the runtime
    calls once per round, so the gap between two calls is one round."""

    def __init__(self, inner: Scheduler, rec) -> None:
        self._inner = inner
        self._rec = rec
        self._round_started = None
        self.name = inner.name

    def pre_round(self, run) -> None:
        self.close()
        self._round_started = time.perf_counter()
        self._inner.pre_round(run)

    def order(self, run):
        return self._inner.order(run)

    def close(self) -> None:
        """End the open round (call once more after the run returns)."""
        if self._round_started is not None:
            self._rec.add("transducers.runtime.round", self._round_started,
                          time.perf_counter())
            self._round_started = None


class TimedTcpTransport(TcpTransport):
    """Loopback TCP with a clock around ``deliver`` and a sample of the
    frames that crossed it (for the codec replay)."""

    FRAME_SAMPLE = 64

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.frames = 0
        self.bytes = 0
        self.send_s = 0.0
        self.sample: list[bytes] = []

    async def deliver(self, source, target, frame: bytes) -> None:
        started = time.perf_counter()
        await super().deliver(source, target, frame)
        self.send_s += time.perf_counter() - started
        self.frames += 1
        self.bytes += len(frame)
        if len(self.sample) < self.FRAME_SAMPLE:
            self.sample.append(frame)


class TimedDiskStore(DiskCheckpointStore):
    """The on-disk checkpoint store with clocks on both paths: snapshot and
    WAL append (written by every op), WAL read (replayed after a crash)."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.wal_appends = 0
        self.wal_append_s = 0.0
        self.snapshots = 0
        self.snapshot_s = 0.0
        self.wal_reads = 0
        self.wal_read_s = 0.0

    def save_snapshot(self, node, blob: bytes) -> None:
        started = time.perf_counter()
        super().save_snapshot(node, blob)
        self.snapshot_s += time.perf_counter() - started
        self.snapshots += 1

    def append_wal(self, node, blob: bytes) -> None:
        started = time.perf_counter()
        super().append_wal(node, blob)
        self.wal_append_s += time.perf_counter() - started
        self.wal_appends += 1

    def wal(self, node):
        started = time.perf_counter()
        entries = super().wal(node)
        self.wal_read_s += time.perf_counter() - started
        self.wal_reads += 1
        return entries


def time_query(plan, rec) -> None:
    """Put a span around every evaluation of the plan's query.  The
    transducer built by ``plan_distribution`` holds this same query object,
    so the span covers the kernel (or the alternating fixpoint) inside each
    transition without touching the program's code."""
    from repro.queries.base import WellFoundedQuery

    query = plan.query
    name = (
        "datalog.wellfounded.wfs"
        if isinstance(query, WellFoundedQuery)
        else "kernel.engine.run"
    )
    evaluate = query.evaluate

    def timed(instance):
        with rec.span(name):
            return evaluate(instance)

    query.evaluate = timed

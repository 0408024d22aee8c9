"""Fault injection at the transport layer: the :class:`FaultyChannel`
semantics of :mod:`repro.transducers.faults`, recast as endpoint wrappers.

The synchronous simulator injects faults inside its global ``Channel``
object; a cluster has no such object, so faults live where they live in a
real system — on the sender's edge of the wire.  A :class:`FaultyEndpoint`
wraps a plain endpoint and applies the same :class:`FaultPlan` knobs,
**per fact** (matching the sync semantics, where each fact of a send draws
independently):

* **duplicate** — the fact is dispatched 2..max_copies times; legal because
  mailboxes are multisets (and the protocols are idempotent).
* **delay** — the fact is withheld and redelivered after a bounded number
  of ticks (``plan.max_delay`` × ``tick`` seconds of real time).
* **drop** — identical to delay with the longer ``redelivery_delay`` bound:
  nothing is ever lost for good, preserving the fair-run guarantee.

Control traffic (termination tokens, STOP) bypasses the fault path — the
Safra ring assumes reliable token forwarding, just as the paper's fair-run
semantics assumes eventual delivery.  Crucially for the termination
detector, every copy this wrapper accepts is *counted at accept time* (the
``send`` return value), so a delayed fact keeps the global
sent-minus-received sum positive and quiescence cannot be declared while
anything is still held.

The layer also schedules **crashes** (``plan.crash_rate`` /
``plan.max_crashes``): at each decision point a node's runtime offers
(:meth:`FaultLayer.maybe_crash`), a per-node seeded stream decides whether
to raise :exc:`NodeCrashed`, killing that node's task mid-round.  Crashes
live outside :data:`~repro.transducers.faults.FAULT_COUNTER_NAMES` —
they are a cluster-only adversary with no synchronous counterpart, and
keeping them out of ``counters`` keeps the message-fault vocabulary
identical between the simulator and the cluster.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace
from typing import Hashable

from ..transducers.faults import CHAOS_PLAN, FAULT_COUNTER_NAMES, FaultPlan
from .codec import KIND_DATA, Envelope, decode_envelope, encode_envelope, peek_kind
from .transport import Endpoint

__all__ = [
    "FaultyEndpoint",
    "FaultLayer",
    "NodeCrashed",
    "CHAOS_PLAN",
    "CRASH_PLAN",
    "FaultPlan",
    "REDELIVERY_SEQUENCE_BASE",
]

#: The chaos plan plus an aggressive crash schedule: every decision point
#: crashes (until the per-run budget is spent), so any crash-mode gate run
#: is guaranteed to exercise at least one recovery.
CRASH_PLAN = FaultPlan(
    duplicate_rate=0.25,
    delay_rate=0.25,
    drop_rate=0.15,
    crash_rate=1.0,
    max_crashes=2,
)

#: Redelivered envelopes get fresh sequences allocated from this base —
#: far above anything a node's own allocator (which counts up from 1)
#: reaches, so fault-layer frames can never collide with live traffic.
REDELIVERY_SEQUENCE_BASE = 1 << 48


class NodeCrashed(RuntimeError):
    """Raised inside a node's task by an injected crash fault.  The run
    supervisor catches it and restarts the node from durable state."""

    def __init__(self, node: Hashable) -> None:
        super().__init__(f"injected crash on node {node!r}")
        self.node = node


class FaultLayer:
    """Shared state for all faulty endpoints of one cluster run: the plan,
    aggregate counters, and the set of in-flight redelivery tasks."""

    def __init__(
        self, plan: FaultPlan = CHAOS_PLAN, seed: int = 0, *, tick: float = 0.002
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.tick = tick
        # Same counter vocabulary as the synchronous FaultyChannel; like
        # there, "dropped" counts drop-with-redelivery (nothing is lost).
        self.counters = {name: 0 for name in FAULT_COUNTER_NAMES}
        self.crashes = 0
        self._tasks: set[asyncio.Task] = set()
        self._held = 0
        self.held_high_water = 0
        self._redelivery_sequences: dict[Hashable, int] = {}
        self._crash_rngs: dict[Hashable, random.Random] = {}

    def rng_for(self, node: Hashable) -> random.Random:
        # String seeding is process-independent (unlike hash()), so a seeded
        # chaos cluster draws the same fault schedule on every run.
        return random.Random(f"cluster-faults:{self.seed}:{node!r}")

    def next_redelivery_sequence(self, sender: Hashable) -> int:
        """Mint a fresh wire sequence for a redelivered envelope.

        The fault layer splits one sent envelope into several in-flight
        frames; reusing the original sequence would give distinct frames
        one ``(sender, sequence)`` identity, which breaks anything keyed
        on it (WAL replay, wire tracing).  Allocation is per sender, from
        a range disjoint from node-allocated sequences.
        """
        sequence = self._redelivery_sequences.get(sender, REDELIVERY_SEQUENCE_BASE)
        self._redelivery_sequences[sender] = sequence + 1
        return sequence

    def maybe_crash(self, node: Hashable) -> None:
        """One crash decision point: raise :exc:`NodeCrashed` if the plan's
        per-node stream says so and the run's crash budget isn't spent.

        The stream is separate from the message-fault stream so enabling
        crashes does not perturb a seed's duplicate/delay/drop schedule.
        """
        plan = self.plan
        if plan.crash_rate <= 0.0 or self.crashes >= plan.max_crashes:
            return
        rng = self._crash_rngs.get(node)
        if rng is None:
            rng = random.Random(f"cluster-crash:{self.seed}:{node!r}")
            self._crash_rngs[node] = rng
        if rng.random() < plan.crash_rate:
            self.crashes += 1
            raise NodeCrashed(node)

    def wrap(self, endpoint: Endpoint) -> "FaultyEndpoint":
        return FaultyEndpoint(endpoint, self)

    def note_held(self, delta: int) -> None:
        self._held += delta
        if self._held > self.held_high_water:
            self.held_high_water = self._held

    def held(self) -> int:
        """Facts currently withheld for later redelivery (all endpoints)."""
        return self._held

    def track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def drain(self) -> None:
        """Await any still-scheduled redeliveries (shutdown hygiene; by the
        time termination is detected the set is necessarily empty)."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


class FaultyEndpoint(Endpoint):
    """An endpoint whose *data* sends pass through the fault plan."""

    def __init__(self, inner: Endpoint, layer: FaultLayer) -> None:
        self._inner = inner
        self._layer = layer
        self._rng = layer.rng_for(inner.node)

    @property
    def node(self) -> Hashable:
        return self._inner.node

    async def recv(self) -> bytes:
        return await self._inner.recv()

    def recv_nowait(self) -> bytes | None:
        return self._inner.recv_nowait()

    async def send(self, target: Hashable, frame: bytes) -> int:
        if peek_kind(frame) != KIND_DATA:
            return await self._inner.send(target, frame)
        envelope = decode_envelope(frame)
        now, held = self._layer.plan.route(
            self._rng, envelope.facts, self._layer.counters
        )
        dispatched = 0
        if now:
            # The immediate portion stays one frame, so it keeps the
            # original sequence; only the extra frames minted below need
            # fresh identities.
            dispatched += await self._inner.send(
                target,
                encode_envelope(replace(envelope, facts=tuple(now))),
            )
        for ticks, fact, _ in held:
            # Each withheld fact becomes its own in-flight envelope with a
            # freshly minted sequence (distinct frames must have distinct
            # (sender, sequence) identities), counted here and now: the
            # sender's Safra counter must cover it from the moment it is
            # accepted, or termination could be declared while the
            # redelivery timer is still pending.
            dispatched += 1
            self._layer.note_held(1)
            sequence = self._layer.next_redelivery_sequence(envelope.sender)
            task = asyncio.ensure_future(
                self._redeliver(
                    target, replace(envelope, facts=(fact,), sequence=sequence), ticks
                )
            )
            self._layer.track(task)
        return dispatched

    async def _redeliver(self, target: Hashable, envelope: Envelope, ticks: int) -> None:
        await asyncio.sleep(ticks * self._layer.tick)
        try:
            await self._inner.send(target, encode_envelope(envelope))
            self._layer.counters["redelivered"] += 1
        finally:
            self._layer.note_held(-1)

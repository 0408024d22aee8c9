"""The asynchronous cluster runtime with decentralized quiescence detection.

:class:`~repro.transducers.runtime.Run` simulates a transducer network with
a single global round loop whose quiescence check inspects every buffer at
once — an omniscient coordinator, exactly the thing the paper's Section 4
protocols are designed to live without.  :class:`ClusterRun` executes the
same network as genuinely concurrent processes:

* every node runs as an independent ``asyncio`` task: a
  :class:`ClusterNode` driving one sans-IO
  :class:`~repro.transducers.node.NodeCore` (state, input fragment, Safra
  and epoch bookkeeping — every protocol decision) against one transport
  :class:`~repro.cluster.transport.Endpoint` and, optionally, a journal;
* all communication is encoded through the wire codec
  (:mod:`repro.cluster.codec`) and moved by a pluggable transport —
  in-process queues by default, loopback TCP behind the same interface;
* **quiescence is detected decentrally** with Safra's token-ring
  termination-detection algorithm (Dijkstra, EWD 998): no node ever reads
  another node's mailbox, and termination is decided purely from envelope
  metadata.

Safra's algorithm, as implemented in the core
---------------------------------------------

Nodes are arranged in a ring (sorted node order).  Each node keeps a
message *counter* (data envelopes sent − received) and a *colour* (black
once it has received a data envelope since it last forwarded the token).
The first node initiates a probe by sending a white token with count 0
around the ring.  A node forwards the token only while *passive* (mailbox
drained, local transition closure finished), adding its counter and
staining the token black if it is black itself, then turns white.  When
the token returns to the initiator, termination is announced iff the
initiator is white and passive, the token is white, and token count plus
the initiator's counter is zero — otherwise a fresh probe starts.  The
count invariant makes the detection safe under the fault layer too: a
delayed or "dropped" (redelivery-pending) envelope is counted by its
sender from the moment it is accepted, so the global sum cannot reach
zero while anything is still in flight.  On success the initiator
broadcasts STOP and every task exits.

A node becomes passive only after running its transducer to a *local
closure*: transitions (first delivering the received batch, then
heartbeats) until one changes no state and emits no messages.  This mirrors
the synchronous runtime, where every node heartbeats once per round until
the global round fixpoint; the confluence theorems (4.3–4.5) guarantee both
executions converge to the same global output, and the divergence gate in
:mod:`repro.cluster.gate` holds them to it.

Crash recovery
--------------

With a checkpoint store attached (:mod:`repro.cluster.checkpoint`), a node
journals every accepted input and counted output before acting on it, and
snapshots its transducer state (a small local database, per the relational
transducer model) after closures.  An injected crash
(:exc:`~repro.cluster.faults.NodeCrashed`, from ``FaultPlan.crash_rate``)
kills the node's task mid-round; the run supervisor then builds a fresh
core and :class:`ClusterNode` over the *same* endpoint and journal, which

1. reloads the last snapshot (state, Safra counter/colour, sequence
   allocator),
2. replays the WAL suffix — re-running each logged closure
   deterministically while *consuming* its logged ``send`` entries instead
   of re-dispatching them (the frames are already on the wire; only the
   counter increment is re-applied), and restoring logged token
   receipts/forwards,
3. rejoins the ring exactly where it died: its mailbox survived the crash
   (infrastructure, like a kernel socket buffer), its sends stayed counted,
   so the token can never declare termination over a dead node's facts.

Crash points are cooperative — the core offers one only between a
transition's journal append and the next, so "dispatch + log" is atomic with respect to
injected crashes and the replayed send sequence is always a prefix of the
deterministic regeneration.  Crashes are suppressed during recovery, and a
per-run ``max_crashes`` budget bounds the adversary, so every crashed run
is still a fair run and converges to the same output (Theorems 4.3–4.5).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Hashable

from ..datalog.instance import Instance
from ..transducers.node import (
    BackOff,
    CrashPoint,
    Effects,
    Log,
    NodeCore,
    NodeSummary,
    SaveSnapshot,
    Send,
    Stop,
)
from ..transducers.runtime import (
    NodeState,
    NodeStats,
    QuiescenceError,
    RunMetrics,
    TransducerNetwork,
)
from .checkpoint import CheckpointStore, NodeJournal, make_checkpoint_store
from .faults import FaultLayer, FaultPlan, NodeCrashed
from .transport import (
    DEFAULT_MAILBOX_CAPACITY,
    Transport,
    make_transport,
)

__all__ = ["ClusterRun", "ClusterNode", "RingRun"]


class ClusterNode:
    """The asyncio driver of one :class:`~repro.transducers.node.NodeCore`:
    it moves frames between the core and an endpoint and performs the
    core's effects — and decides nothing.  Without a ``journal`` the log
    and snapshot effects are dropped; ``crash_probe`` (raises
    :exc:`~repro.cluster.faults.NodeCrashed`, or delivers a real signal) is
    consulted at the core's cooperative crash points."""

    def __init__(
        self,
        core: NodeCore,
        endpoint,
        *,
        journal: NodeJournal | None = None,
        crash_probe: Callable[[], None] | None = None,
    ) -> None:
        self.core = core
        self._endpoint = endpoint
        self._journal = journal
        self._crash_probe = crash_probe
        self._stopped = False

    async def _perform(self, effects: Effects) -> None:
        answer = None
        try:
            while True:
                effect = effects.send(answer)
                answer = None
                kind = type(effect)
                if kind is Send:
                    answer = await self._endpoint.send(effect.target, effect.frame)
                elif kind is Log:
                    if self._journal is not None:
                        self._journal.append(effect.entry)
                elif kind is SaveSnapshot:
                    if self._journal is not None:
                        self._journal.save_snapshot(
                            self.core.snapshot(self._journal.position)
                        )
                elif kind is CrashPoint:
                    if self._crash_probe is not None:
                        self._crash_probe()
                elif kind is BackOff:
                    await asyncio.sleep(effect.seconds)
                elif kind is Stop:
                    self._stopped = True
                else:
                    raise TypeError(f"not an effect: {effect!r}")
        except StopIteration:
            pass

    async def run(self) -> None:
        """Boot (or, over a journal with history, recover), then alternate
        the passive-point token action with one drained mailbox batch
        until the core says stop."""
        core, journal = self.core, self._journal
        if journal is not None and journal.has_history():
            await self._perform(core.recover(journal.load_snapshot(), journal.entries()))
        else:
            await self._perform(core.boot())
        while True:
            await self._perform(core.passive())
            if self._stopped:
                return
            frames = [await self._endpoint.recv()]
            while (extra := self._endpoint.recv_nowait()) is not None:
                frames.append(extra)
            await self._perform(core.frames(frames))
            if self._stopped:
                return


class RingRun:
    """What the asyncio and the process cluster runs share: the sharded
    input, the ``Run``-compatible telemetry surface, and the harvest that
    folds per-node summaries into it."""

    def __init__(
        self, network: TransducerNetwork, instance: Instance, delta_feed
    ) -> None:
        self._network = network
        self._instance = instance.restrict(network.transducer.schema.inputs)
        self._fragments = network.policy.distribute(self._instance)
        self._delta_feed = delta_feed
        self._completed = False
        self._summaries: dict[Hashable, NodeSummary | NodeCore] = {}
        self.metrics = RunMetrics()
        self.node_stats: dict[Hashable, NodeStats] = {}
        self.token_probes = 0
        self.in_flight_high_water = 0
        self.crashes = 0
        self.recoveries = 0
        self.wal_replayed = 0
        self.snapshot_bytes = 0
        # Streaming telemetry (populated by _harvest when a feed ran):
        # the global output at each epoch boundary, final output last.
        self.epoch_outputs: list[Instance] = []
        self.epochs = 0

    @property
    def network(self) -> TransducerNetwork:
        return self._network

    @property
    def instance(self) -> Instance:
        return self._instance

    def nodes(self) -> list[Hashable]:
        return self._network.network.sorted_nodes()

    def state(self, node: Hashable) -> NodeState:
        return self._summaries[node].state

    def local_input(self, node: Hashable) -> Instance:
        return self._fragments[node]

    def global_output(self) -> Instance:
        result = Instance()
        for summary in self._summaries.values():
            result = result | summary.state.output
        return result

    def fault_counters(self) -> dict[str, int]:
        return {}

    def run_to_quiescence(self) -> Instance:
        """Execute to detected quiescence; returns the global output.
        Synchronous wrapper over ``arun`` — must not be called from inside
        a running event loop."""
        return asyncio.run(self.arun())

    def _begin(self) -> None:
        if self._completed:
            raise RuntimeError(
                f"a {type(self).__name__} is one-shot; build a new one"
            )
        self._completed = True

    def _feed_batches(self) -> list:
        """The feed as the list of batches a core consumes (only the
        initiator's core looks at it); empty without a feed."""
        feed = self._delta_feed
        return [batch.facts for batch in feed.batches] if feed is not None else []

    def _harvest(self, summaries: dict[Hashable, NodeSummary | NodeCore]) -> None:
        """Fold per-node summaries into Run-compatible telemetry.  Runs
        only after every node has stopped — on the error path too, over
        whichever nodes can still show their work — and is reporting, not
        decision making; no node ever saw any of it."""
        self._summaries = summaries
        fanout = max(len(self.nodes()) - 1, 0)
        for node, summary in summaries.items():
            stats = self.node_stats[node] = summary.stats
            self.metrics.transitions += stats.transitions
            self.metrics.heartbeats += stats.heartbeats
            self.metrics.message_deliveries += stats.deliveries
            self.metrics.message_facts_sent += stats.sent_facts * fanout
            self.wal_replayed += summary.wal_replayed
            if summary.token_probes:
                self.token_probes = summary.token_probes
        self.metrics.rounds = self.token_probes
        self.epochs = max((s.epochs_injected for s in summaries.values()), default=0)
        if self._delta_feed is not None:
            for epoch in range(self.epochs):
                output = Instance()
                for summary in summaries.values():
                    output = output | summary.epoch_outputs.get(epoch, ())
                self.epoch_outputs.append(output)
            self.epoch_outputs.append(self.global_output())


class ClusterRun(RingRun):
    """A one-shot asynchronous execution of a transducer network.

    Mirrors :class:`~repro.transducers.runtime.Run`'s surface where it can
    (``global_output``, ``node_stats``, ``metrics``) and adds the
    cluster-only telemetry: per-node mailbox high-water marks, the held
    in-flight high-water of the fault layer, and the number of termination
    probes the Safra ring needed.
    """

    def __init__(
        self,
        network: TransducerNetwork,
        instance: Instance,
        *,
        transport: str | Transport = "memory",
        fault_plan: FaultPlan | None = None,
        seed: int = 0,
        mailbox_capacity: int = DEFAULT_MAILBOX_CAPACITY,
        tick: float = 0.002,
        max_probes: int = 10_000,
        timeout: float | None = 120.0,
        checkpoints: CheckpointStore | str | None = None,
        snapshot_every: int = 1,
        delta_feed=None,
    ) -> None:
        super().__init__(network, instance, delta_feed)
        if isinstance(transport, Transport):
            self._transport = transport
        else:
            self._transport = make_transport(
                transport, mailbox_capacity=mailbox_capacity
            )
        self._fault_layer = (
            FaultLayer(fault_plan, seed, tick=tick)
            if fault_plan is not None
            else None
        )
        if (
            checkpoints is None
            and fault_plan is not None
            and fault_plan.crash_rate > 0.0
        ):
            # Crash faults without durable state would lose work; default
            # to the in-run store (same role as the kernel socket buffer).
            checkpoints = "memory"
        self._checkpoints = (
            make_checkpoint_store(checkpoints) if checkpoints is not None else None
        )
        self._snapshot_every = snapshot_every
        self._max_probes = max_probes
        self._timeout = timeout
        self._nodes: dict[Hashable, ClusterNode] = {}
        self._endpoints: dict[Hashable, object] = {}
        self._journals: dict[Hashable, NodeJournal] = {}

    @property
    def transport_name(self) -> str:
        name = self._transport.name
        return f"{name}+faulty" if self._fault_layer is not None else name

    def fault_counters(self) -> dict[str, int]:
        if self._fault_layer is None:
            return {}
        return dict(self._fault_layer.counters)

    # -- execution ---------------------------------------------------------

    def _make_node(self, node: Hashable) -> ClusterNode:
        crash_probe = None
        if self._fault_layer is not None and self._fault_layer.plan.crash_rate > 0.0:
            layer = self._fault_layer
            crash_probe = lambda: layer.maybe_crash(node)
        return ClusterNode(
            NodeCore(
                self._network,
                node,
                self._fragments[node],
                max_probes=self._max_probes,
                snapshot_every=self._snapshot_every,
                feed=self._feed_batches(),
            ),
            self._endpoints[node],
            journal=self._journals.get(node),
            crash_probe=crash_probe,
        )

    async def _supervise(self, node: Hashable) -> None:
        """Run one node to completion, restarting it from durable state on
        every injected crash.  The endpoint, mailbox, and journal survive
        (they are infrastructure); only the node's volatile task dies."""
        while True:
            try:
                await self._nodes[node].run()
                return
            except NodeCrashed:
                self.crashes += 1
                # What the dead incarnation replayed stays counted.
                self.wal_replayed += self._nodes[node].core.wal_replayed
                self._nodes[node] = self._make_node(node)
                self.recoveries += 1

    async def arun(self) -> Instance:
        self._begin()
        ordered = self.nodes()
        endpoints = await self._transport.open(ordered)
        if self._fault_layer is not None:
            endpoints = {
                node: self._fault_layer.wrap(endpoint)
                for node, endpoint in endpoints.items()
            }
        self._endpoints = endpoints
        if self._checkpoints is not None:
            self._journals = {
                node: NodeJournal(self._checkpoints, node) for node in ordered
            }
        for node in ordered:
            self._nodes[node] = self._make_node(node)
        tasks = [asyncio.ensure_future(self._supervise(node)) for node in ordered]
        try:
            gathered = asyncio.gather(*tasks)
            if self._timeout is not None:
                try:
                    await asyncio.wait_for(gathered, self._timeout)
                except asyncio.TimeoutError:
                    raise QuiescenceError(
                        f"cluster did not quiesce within {self._timeout}s "
                        f"wall clock"
                    ) from None
            else:
                await gathered
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            if self._fault_layer is not None:
                await self._fault_layer.drain()
            await self._transport.close()
            self._harvest_nodes()
        return self.global_output()

    def _harvest_nodes(self) -> None:
        cores = {node: driver.core for node, driver in self._nodes.items()}
        for node, core in cores.items():
            core.stats.buffer_high_water = self._transport.mailbox_high_water(node)
        self._harvest(cores)
        if self._fault_layer is not None:
            self.in_flight_high_water = self._fault_layer.held_high_water
        if self._checkpoints is not None:
            self.snapshot_bytes = self._checkpoints.snapshot_bytes

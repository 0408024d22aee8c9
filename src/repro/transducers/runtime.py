"""The operational semantics of transducer networks (Section 4.1.3).

A :class:`TransducerNetwork` bundles (N, Upsilon, Pi, P).  A :class:`Run`
holds a configuration — per-node output/memory state plus multiset message
buffers — and exposes :meth:`Run.transition` implementing the paper's
transition relation exactly:

* the active node x receives a submultiset m of its buffer, collapsed to a
  set M;
* the database D = J ∪ S is assembled (J = local input ∪ state ∪ M, S the
  system facts for the model variant);
* output grows by Qout(D); memory becomes
  ``(mem ∪ (ins \\ del)) \\ (del \\ ins)``;
* Qsnd(D) is appended to every *other* node's buffer (multiset union), and
  m is removed from x's buffer (multiset difference).

Runs are infinite in the paper; the simulator executes finite prefixes under
pluggable schedulers and detects *quiescence* — a full round of
all-message-delivery transitions that changes no state and sends nothing not
already delivered — after which well-behaved transducers (all the protocols
in this package store every delivered message in memory) can never produce
new facts.  Fairness is realized by round-based scheduling: every node is
activated once per round and buffered messages are eventually delivered.

Message delivery between nodes goes through a pluggable :class:`Channel`.
The default channel is perfect (every sent fact is enqueued exactly once,
immediately); :mod:`repro.transducers.faults` provides fault-injecting
channels (duplication, bounded delay, drop-with-eventual-redelivery) that
stay within the paper's fair-run semantics: a multiset buffer already allows
duplicates, and every in-flight fact is eventually delivered — the
quiescence loop force-flushes any remaining in-flight messages before it is
allowed to declare a run quiescent.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Hashable, Iterable

from ..datalog.instance import Instance
from ..datalog.terms import Fact, sort_facts
from .node import NodeCore, NodeState, NodeStats, QuiescenceError
from .policy import DistributionPolicy, Network
from .transducer import LocalView, Transducer

__all__ = [
    "TransducerNetwork",
    "NodeState",
    "NodeStats",
    "TransitionRecord",
    "RunMetrics",
    "Run",
    "Channel",
    "Scheduler",
    "FairScheduler",
    "TrickleScheduler",
    "QuiescenceError",
]


@dataclass(frozen=True)
class TransitionRecord:
    """One transition: who ran, what was delivered, what changed."""

    index: int
    node: Hashable
    delivered: int
    sent: int
    heartbeat: bool
    state_changed: bool
    new_output: int

    def to_dict(self) -> dict:
        """A JSON-ready view of this record (telemetry traces)."""
        return {
            "index": self.index,
            "node": repr(self.node),
            "delivered": self.delivered,
            "sent": self.sent,
            "heartbeat": self.heartbeat,
            "state_changed": self.state_changed,
            "new_output": self.new_output,
        }


@dataclass
class RunMetrics:
    """Aggregate counters over a run — the protocol-cost measurements used
    by the Section 4.3 discussion benchmarks.

    ``transitions`` counts every transition, including the extra ones an
    adversarial scheduler performs before a round; those are additionally
    broken out as ``pre_round_transitions`` so rounds-to-quiescence and
    transitions-per-round read correctly from a report.
    """

    transitions: int = 0
    heartbeats: int = 0
    message_facts_sent: int = 0
    message_deliveries: int = 0
    rounds: int = 0
    pre_round_transitions: int = 0
    # Always 0, no step cache is left; bench/ reads them until ROADMAP item 5.
    cache_hits: int = 0
    cache_misses: int = 0
    plans_compiled: int = 0

    def record(self, record: TransitionRecord, fanout: int) -> None:
        self.transitions += 1
        if record.heartbeat:
            self.heartbeats += 1
        self.message_facts_sent += record.sent * fanout
        self.message_deliveries += record.delivered

    def to_dict(self) -> dict:
        return asdict(self)


class Channel:
    """The delivery model for every network link: decides what actually
    lands in a buffer when a node addresses facts to another node.

    The base class is the *perfect* channel: every sent fact is enqueued at
    its target exactly once, immediately.  Fault-injecting subclasses (see
    :mod:`repro.transducers.faults`) may return extra copies, hold facts in
    flight for later :meth:`release`, or both — but they must keep every
    held fact retrievable through :meth:`flush` so the runtime can preserve
    the fair-run guarantee that all messages are eventually delivered.

    ``clock`` arguments are the run's global transition counter.
    """

    name = "perfect"

    def transmit(
        self, source: Hashable, target: Hashable, facts: Iterable[Fact], clock: int
    ) -> list[Fact]:
        """Facts to enqueue at *target* right now (copies included)."""
        return list(facts)

    def release(self, target: Hashable, clock: int) -> list[Fact]:
        """In-flight facts for *target* whose delivery is now due."""
        return []

    def flush(self, target: Hashable) -> list[Fact]:
        """Hand over *all* in-flight facts for *target*, due or not."""
        return []

    def pending(self) -> int:
        """Number of facts currently held in flight (all targets)."""
        return 0

    def fault_counters(self) -> dict[str, int]:
        """Counters describing the faults injected so far (telemetry)."""
        return {}


class TransducerNetwork:
    """(N, Upsilon, Pi, P): a transducer placed on every node of a network
    with a distribution policy for the input schema."""

    def __init__(
        self,
        network: Network,
        transducer: Transducer,
        policy: DistributionPolicy,
        *,
        require_domain_guided: bool = False,
    ) -> None:
        if policy.network != network:
            raise ValueError("policy network differs from the transducer network")
        if policy.schema != transducer.schema.inputs:
            raise ValueError("policy schema differs from the input schema")
        if require_domain_guided and not policy.is_domain_guided:
            raise ValueError(
                "a domain-guided transducer network needs a domain-guided policy"
            )
        self.network = network
        self.transducer = transducer
        self.policy = policy

    def new_run(self, instance: Instance, *, channel: Channel | None = None) -> "Run":
        """Start a run of this network on the given global input.

        ``channel`` selects the delivery model; ``None`` means the perfect
        channel (immediate, exactly-once enqueueing).
        """
        return Run(self, instance, channel=channel)


class Run:
    """A (finite prefix of a) run of a transducer network on an input."""

    def __init__(
        self,
        network: TransducerNetwork,
        instance: Instance,
        *,
        channel: Channel | None = None,
    ) -> None:
        self._network = network
        self._instance = instance.restrict(network.transducer.schema.inputs)
        fragments = network.policy.distribute(self._instance)
        # Sorted node order everywhere a dict's insertion order can leak into
        # scheduling or telemetry: Network is a frozenset, and frozenset
        # iteration order varies with the per-process hash salt.
        ordered_nodes = network.network.sorted_nodes()
        # One sans-IO core per node holds its state, input fragment and
        # counters and performs the transition; this class is the driver
        # that owns the buffers, the channel and the global clock.
        self._cores: dict[Hashable, NodeCore] = {
            node: NodeCore(network, node, fragments[node]) for node in ordered_nodes
        }
        self._buffers: dict[Hashable, Counter] = {
            node: Counter() for node in ordered_nodes
        }
        self._delivered_ever: dict[Hashable, set[Fact]] = {
            node: set() for node in ordered_nodes
        }
        self._channel = channel if channel is not None else Channel()
        self.metrics = RunMetrics()
        self.node_stats: dict[Hashable, NodeStats] = {
            node: core.stats for node, core in self._cores.items()
        }
        self._transition_count = 0
        self.history: list[TransitionRecord] = []
        # Streaming telemetry: one entry per quiescent epoch (the output
        # observed just before each delta batch was ingested, plus the
        # final output), and the count of late-arriving facts accepted.
        self.epoch_outputs: list[Instance] = []
        self.deltas_ingested = 0

    # -- accessors -------------------------------------------------------

    @property
    def network(self) -> TransducerNetwork:
        return self._network

    @property
    def instance(self) -> Instance:
        return self._instance

    @property
    def channel(self) -> Channel:
        return self._channel

    def nodes(self) -> list[Hashable]:
        return self._network.network.sorted_nodes()

    def state(self, node: Hashable) -> NodeState:
        return self._cores[node].state

    def buffer(self, node: Hashable) -> Counter:
        return Counter(self._buffers[node])

    def buffered_messages(self) -> int:
        return sum(sum(buffer.values()) for buffer in self._buffers.values())

    def local_input(self, node: Hashable) -> Instance:
        return self._cores[node].fragment

    def global_output(self) -> Instance:
        """out(R): the union of all output facts produced so far."""
        result = Instance()
        for core in self._cores.values():
            result = result | core.state.output
        return result

    # -- the transition relation -----------------------------------------

    def view(self, node: Hashable, delivered: Instance) -> LocalView:
        return self._cores[node].view(delivered)

    def transition(
        self, node: Hashable, deliver: Iterable[Fact] | str | None = "all"
    ) -> TransitionRecord:
        """Perform one transition with *node* active.

        ``deliver`` is ``"all"`` (empty the buffer), ``None`` / ``()`` (a
        heartbeat) or an explicit iterable forming a submultiset of the
        node's buffer.
        """
        buffer = self._buffers[node]
        released = self._channel.release(node, self._transition_count)
        if released:
            buffer.update(released)
            self._note_buffer(node)
        if deliver == "all":
            chosen = Counter(buffer)
        elif deliver is None:
            chosen = Counter()
        else:
            chosen = Counter(deliver)
            overdraw = chosen - buffer
            if overdraw:
                raise ValueError(
                    f"cannot deliver messages not in the buffer: {set(overdraw)}"
                )
        delivered_set = Instance(chosen.keys())
        transducer = self._network.transducer
        core = self._cores[node]
        compiled = transducer.plans_compiled()
        step = core.transition(delivered_set)
        self.metrics.plans_compiled += transducer.plans_compiled() - compiled

        buffer.subtract(chosen)
        for key in [k for k, count in buffer.items() if count <= 0]:
            del buffer[key]
        self._delivered_ever[node].update(delivered_set)

        fanout = 0
        if step.messages:
            # Canonical (sorted) fact and target orders: buffer insertion and
            # the channel's per-fact randomness must not depend on frozenset
            # iteration order, which is salted per process for str values —
            # this is what makes `repro run --chaos --seed S` byte-reproducible
            # across interpreter invocations.
            outgoing = sort_facts(step.messages.facts)
            others = [
                n for n in self._network.network.sorted_nodes() if n != node
            ]
            fanout = len(others)
            for other in others:
                copies = self._channel.transmit(
                    node, other, outgoing, self._transition_count
                )
                if copies:
                    self._buffers[other].update(copies)
                self._note_buffer(other)

        record = TransitionRecord(
            index=self._transition_count,
            node=node,
            delivered=sum(chosen.values()),
            sent=len(step.messages),
            heartbeat=not chosen,
            state_changed=step.changed,
            new_output=len(step.added_output),
        )
        self._transition_count += 1
        self.metrics.record(record, fanout)
        core.stats.deliveries += record.delivered
        self.history.append(record)
        return record

    def _note_buffer(self, node: Hashable) -> None:
        """Track the buffer high-water mark after an enqueue (telemetry)."""
        size = sum(self._buffers[node].values())
        stats = self.node_stats[node]
        if size > stats.buffer_high_water:
            stats.buffer_high_water = size

    def render_trace(self, *, limit: int = 40) -> str:
        """A human-readable trace of the run's transitions (for debugging
        protocol behaviour and for the examples)."""
        lines = []
        for record in self.history[-limit:]:
            kind = "heartbeat" if record.heartbeat else f"recv {record.delivered}"
            change = "changed" if record.state_changed else "idle"
            lines.append(
                f"#{record.index:<4} {record.node!r:>8}  {kind:<10} "
                f"sent {record.sent:<3} {change}"
                + (f" (+{record.new_output} out)" if record.new_output else "")
            )
        return "\n".join(lines)

    def heartbeat(self, node: Hashable) -> TransitionRecord:
        """A transition that delivers nothing (m = ∅)."""
        return self.transition(node, deliver=None)

    # -- rounds and quiescence --------------------------------------------

    def round(self, order: Iterable[Hashable] | None = None) -> bool:
        """Activate every node once (delivering its whole buffer).

        Returns True when any state changed or any *novel* message content
        (never before delivered to its target) was sent.
        """
        changed = False
        nodes = list(order) if order is not None else self.nodes()
        for node in nodes:
            before_buffers = {
                n: set(self._buffers[n]) - self._delivered_ever[n]
                for n in self._buffers
            }
            record = self.transition(node, deliver="all")
            if record.state_changed:
                changed = True
            else:
                for n, pending_novel in (
                    (n, set(self._buffers[n]) - self._delivered_ever[n])
                    for n in self._buffers
                ):
                    if pending_novel - before_buffers[n]:
                        changed = True
                        break
        self.metrics.rounds += 1
        return changed

    def run_to_quiescence(
        self,
        *,
        max_rounds: int = 10_000,
        scheduler: "Scheduler | None" = None,
    ) -> Instance:
        """Execute fair rounds until quiescent; returns the global output.

        Quiescence: a full all-delivery round with no state change and no
        novel message content, with only already-delivered duplicates left
        buffered and nothing held in flight by the channel.  Any in-flight
        messages are force-flushed into the buffers before quiescence may be
        declared — this is what makes delay/drop channels *fair*: every
        message is eventually delivered, even on runs that would otherwise
        go quiet first.
        """
        scheduler = scheduler or FairScheduler()
        for _ in range(max_rounds):
            before = self.metrics.transitions
            scheduler.pre_round(self)
            self.metrics.pre_round_transitions += self.metrics.transitions - before
            order = scheduler.order(self)
            changed = self.round(order)
            if not changed and not self._novel_pending():
                if self._flush_channel():
                    continue
                return self.global_output()
        raise QuiescenceError(
            f"run did not quiesce within {max_rounds} rounds "
            f"({self.buffered_messages()} messages pending, "
            f"{self._channel.pending()} in flight)"
        )

    # -- streaming ingestion ---------------------------------------------

    def ingest(self, facts: Iterable[Fact]) -> int:
        """Extend the input instance with late-arriving *facts*.

        The paper's transducers are well-behaved and inflationary, so a
        fact added to a node's local input is simply reacted to at that
        node's next transition — no new machinery, only bookkeeping: the
        global instance grows and the owning nodes' fragments grow.
        Returns the number of facts that were genuinely new to the run.
        """
        delta = Instance(facts).restrict(
            self._network.transducer.schema.inputs
        ) - self._instance
        if not delta:
            return 0
        self._instance = self._instance | delta
        for node, fragment in self._network.policy.distribute(delta).items():
            self._cores[node].grow_input(fragment)
        self.deltas_ingested += len(delta)
        return len(delta)

    def stream_to_quiescence(
        self,
        feed,
        *,
        max_rounds: int = 10_000,
        scheduler: "Scheduler | None" = None,
    ) -> Instance:
        """Run epoch-by-epoch under a :class:`~repro.streaming.DeltaFeed`.

        Each epoch runs to quiescence, its output is recorded in
        ``epoch_outputs``, and the next batch is ingested; the final
        output is also the last entry of ``epoch_outputs``.  The recorded
        trajectory is what the live delta-preservation oracle checks
        (``repro.conformance.streaming``).
        """
        scheduler = scheduler or FairScheduler()
        self.run_to_quiescence(max_rounds=max_rounds, scheduler=scheduler)
        self.epoch_outputs = [self.global_output()]
        for batch in feed.batches:
            self.ingest(batch.facts)
            self.run_to_quiescence(max_rounds=max_rounds, scheduler=scheduler)
            self.epoch_outputs.append(self.global_output())
        return self.global_output()

    def _flush_channel(self) -> bool:
        """Force every in-flight fact into its target buffer; True when any
        fact moved (the quiescence decision must then be re-examined)."""
        moved = False
        for node in self._buffers:
            released = self._channel.flush(node)
            if released:
                self._buffers[node].update(released)
                self._note_buffer(node)
                moved = True
        return moved

    def _novel_pending(self) -> bool:
        return any(
            set(self._buffers[node]) - self._delivered_ever[node]
            for node in self._buffers
        )


class Scheduler:
    """Chooses node activation orders for rounds; subclasses add policy.

    ``pre_round`` runs before each fair round inside
    :meth:`Run.run_to_quiescence` and may perform extra adversarial
    transitions (partial deliveries, heartbeats, starvation bursts).  The
    runtime accounts those separately as
    ``RunMetrics.pre_round_transitions``, so round-based metrics stay
    comparable across schedulers.  The fair round that always follows keeps
    every schedule fair regardless of what ``pre_round`` does.
    """

    name = "roundrobin"

    def order(self, run: Run) -> list[Hashable]:
        return run.nodes()

    def pre_round(self, run: Run) -> None:
        """Adversarial transitions before the fair round (default: none)."""


class FairScheduler(Scheduler):
    """A seeded random permutation per round — fair because every node runs
    once per round and every buffered message is delivered when its node
    activates."""

    name = "fair"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def order(self, run: Run) -> list[Hashable]:
        nodes = run.nodes()
        self._rng.shuffle(nodes)
        return nodes


class TrickleScheduler(Scheduler):
    """An adversarial-ish scheduler: before each round, every node performs
    extra transitions that deliver roughly half of its buffered messages one
    at a time in random order, maximizing interleavings (used to probe
    confluence of the protocols).

    The prefix is ``ceil(len/2)`` — an earlier version used ``len // 2``,
    which delivers *nothing* when exactly one message is buffered, so
    singleton buffers never trickled and the scheduler degenerated to
    :class:`FairScheduler` on sparse traffic.
    """

    name = "trickle"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def pre_round(self, run: Run) -> None:
        nodes = run.nodes()
        self._rng.shuffle(nodes)
        for node in nodes:
            pending = list(run.buffer(node).elements())
            self._rng.shuffle(pending)
            for message in pending[: (len(pending) + 1) // 2]:
                run.transition(node, deliver=[message])

    def order(self, run: Run) -> list[Hashable]:
        nodes = run.nodes()
        self._rng.shuffle(nodes)
        return nodes

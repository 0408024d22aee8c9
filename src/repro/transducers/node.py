"""One node of a transducer network as a sans-IO state machine.

The paper's transition relation (Section 4.1.3) is one definition —
(state, delivered) → (state′, sent) — and everything a distributed node
does around it (local closure, Safra counting, epoch boundaries, delta
injection, dedup, snapshot + WAL replay) is a deterministic function of the
frames it is handed.  :class:`NodeCore` is that function and nothing else:
it consumes **events** and yields **effects**, and touches no event loop,
socket, file or clock.  The synchronous simulator
(:class:`~repro.transducers.runtime.Run`), the asyncio cluster and the
forked process worker are drivers around it.

Events are generator methods; a driver iterates one to exhaustion,
performing each effect as it appears and ``send()``-ing back its answer:

* :meth:`NodeCore.boot` — first start: the startup heartbeat closure;
* :meth:`NodeCore.recover` — restart from a snapshot and the WAL entries;
* :meth:`NodeCore.frames` — a drained, non-empty list of wire frames;
* :meth:`NodeCore.passive` — the passive point before blocking on the
  mailbox (closure done, mailbox drained): the Safra token action.

Effects:

* :class:`Send` — put a frame on the wire; answered with the number of
  copies the transport accepted (a fault layer may split or duplicate);
* :class:`Log` — append one WAL entry (``boot`` / ``batch`` / ``send`` /
  ``token`` / ``token-sent`` / ``delta``);
* :class:`SaveSnapshot` — :meth:`NodeCore.snapshot` is now consistent with
  everything logged so far;
* :class:`CrashPoint` — a cooperative crash decision point;
* :class:`BackOff` — wait before burning another probe circulation;
* :class:`Stop` — global termination reached this node; stop driving it.

The write-ahead discipline is the *order* of that stream: a batch is logged
before its closure runs, a counted send is followed by its ``send`` entry
with no crash point in between, a token is logged before it is held.  A
driver without a store drops :class:`Log` and :class:`SaveSnapshot`; one
that injects no crashes ignores :class:`CrashPoint`.

Safra's termination detection, the epoch-boundary rule and the recovery
argument are described in :mod:`repro.cluster.runtime`, whose
``ClusterNode`` is the asyncio driver.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Generator, Hashable, Iterable, NamedTuple, Sequence

from ..datalog.instance import Instance
from ..datalog.terms import Fact, sort_facts
from .transducer import Cursor, LocalView

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import TransducerNetwork

__all__ = [
    "NodeCore",
    "NodeState",
    "NodeStats",
    "NodeSummary",
    "QuiescenceError",
    "Step",
    "Send",
    "Log",
    "SaveSnapshot",
    "CrashPoint",
    "BackOff",
    "Stop",
]


class QuiescenceError(RuntimeError):
    """Raised when a run fails to quiesce within its transition budget."""


@dataclass
class NodeState:
    """s(x): the output and memory facts stored at one node."""

    output: Instance = field(default_factory=Instance)
    memory: Instance = field(default_factory=Instance)

    def snapshot(self) -> tuple[Instance, Instance]:
        return (self.output, self.memory)


@dataclass
class NodeStats:
    """Per-node counters maintained during a run (telemetry)."""

    transitions: int = 0
    heartbeats: int = 0
    deliveries: int = 0
    sent_facts: int = 0
    buffer_high_water: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class NodeSummary:
    """What a stopped node shows of its work — the attributes of a
    :class:`NodeCore` the run-level harvest reads, and what a process
    worker's result message decodes to."""

    state: NodeState
    stats: NodeStats
    token_probes: int
    wal_replayed: int
    epochs_injected: int
    epoch_outputs: dict[int, tuple[Fact, ...]]


class Step(NamedTuple):
    """One transition's observable result: what was sent, the output it
    added, and whether it changed the node's output or memory."""

    messages: Instance
    added_output: Instance
    changed: bool


@dataclass(frozen=True)
class Send:
    """Put *frame* on the wire to *target*; the driver answers with the
    number of copies the transport accepted."""

    target: Hashable
    frame: bytes


@dataclass(frozen=True)
class Log:
    """Append *entry* to the node's write-ahead log."""

    entry: tuple


@dataclass(frozen=True)
class SaveSnapshot:
    """Persist :meth:`NodeCore.snapshot` at the current WAL position (taken
    now, by the driver — one without a store never pays for building it)."""


@dataclass(frozen=True)
class CrashPoint:
    """A cooperative crash decision point: every dispatch so far is logged."""


@dataclass(frozen=True)
class BackOff:
    """Wait *seconds* (redelivery timers need room) before the next probe."""

    seconds: float


@dataclass(frozen=True)
class Stop:
    """Global termination was detected; the node is done."""


Effects = Generator[object, object, None]


@functools.cache
def _wire():
    """The wire codec and the durable-state vocabulary, imported on first
    use: ``repro.cluster``'s package init imports ``transducers.runtime``,
    which imports this module."""
    from ..cluster import checkpoint, codec

    return codec, checkpoint


def _wire_sender(node: Hashable) -> Hashable:
    """A codec-representable stand-in for a node identifier."""
    if isinstance(node, (str, int, float, bytes, tuple, bool)) or node is None:
        return node
    return repr(node)


class NodeCore:
    """One node: transducer state, input fragment, Safra bookkeeping, epoch
    bookkeeping, dedup set and replay queue.  Sees nothing of the rest of
    the world but the frames it is handed.

    Its ring position (broadcast targets, successor, initiator) follows
    from the network's sorted node order.  ``dedup`` is for at-least-once
    transports (the process runtime retransmits every frame a restarted
    peer might have missed): frames are then accepted once per durable
    ``(sender, sequence)`` identity.  ``feed`` is the list of late-input
    batches; only the initiator consumes it, one batch per detected
    quiescence.
    """

    def __init__(
        self,
        network: "TransducerNetwork",
        node: Hashable,
        fragment: Instance,
        *,
        max_probes: int = 10_000,
        snapshot_every: int = 1,
        dedup: bool = False,
        feed: Sequence[Iterable[Fact]] = (),
    ) -> None:
        ordered = network.network.sorted_nodes()
        index = ordered.index(node)
        self.node = node
        self.fragment = fragment
        self.state = NodeState()
        self.stats = NodeStats()
        # What the transducer carries from one evaluated transition to the
        # next.  Never snapshotted: a state loaded from outside (recovery, a
        # model checker's branch) that does not continue what it saw resets
        # it, and an empty cursor is the from-scratch evaluation.
        self.cursor = Cursor()
        self._network = network
        self._peers = [n for n in ordered if n != node]  # broadcast targets
        self._ring_next = ordered[(index + 1) % len(ordered)]
        self._initiator = index == 0
        self._max_probes = max_probes
        self._snapshot_every = max(1, snapshot_every)
        self._dedup = dedup
        self._seen_frames: set[tuple] = set()
        self._feed = list(feed) if index == 0 else []
        self.epochs_injected = 0
        self._extra_input: set[Fact] = set()
        self.epoch_outputs: dict[int, tuple[Fact, ...]] = {}
        # The epoch this node currently works in.  Stamped onto outgoing
        # data envelopes so receivers can close epoch boundaries even when
        # a peer's post-injection data races ahead of the initiator's
        # delta envelope on a different connection (transport ordering is
        # per-pair only).
        self.epoch = 0
        self.counter = 0  # data envelopes sent − received (Safra)
        self.black = False
        self.token = None  # the held TokenState, if any
        self.token_probes = 0  # filled at the initiator on success
        self.wal_replayed = 0
        self._probe_started = False
        self._failed_probes = 0
        self._sequence = 0
        self._recovering = False
        self._replay_sends: deque[tuple[Hashable, int, int]] = deque()
        self._closures_since_snapshot = 0

    # -- the transition relation (Section 4.1.3) ----------------------------

    def view(self, delivered: Instance) -> LocalView:
        network = self._network
        return LocalView(
            node=self.node,
            network=network.network,
            schema=network.transducer.schema,
            policy=network.policy,
            local_input=self.fragment,
            output=self.state.output,
            memory=self.state.memory,
            delivered=delivered,
            cursor=self.cursor,
        )

    def transition(self, delivered: Instance) -> Step:
        """One transition with the set *delivered*: output grows by
        Qout(D), memory becomes ``(mem ∪ (ins \\ del)) \\ (del \\ ins)``,
        Qsnd(D) is returned for the driver to address to every other node."""
        update = self._network.transducer.step(self.view(delivered))
        state = self.state
        output, memory = state.snapshot()
        ins_only = update.insertions - update.deletions
        del_only = update.deletions - update.insertions
        state.output = output | update.output
        state.memory = (memory | ins_only) - del_only
        stats = self.stats
        stats.transitions += 1
        if not delivered:
            stats.heartbeats += 1
        stats.sent_facts += len(update.messages)
        added_output = update.output - output
        return Step(
            update.messages,
            added_output,
            bool(added_output or ins_only - memory or del_only & memory),
        )

    def grow_input(self, facts: Iterable[Fact]) -> None:
        """Extend the local input fragment with late-arriving *facts*.  The
        transducers are inflationary, so the node simply reacts at its next
        transition."""
        added = [fact for fact in facts if fact not in self.fragment]
        if added:
            self.fragment = self.fragment | added
            self._extra_input.update(added)

    # -- events ----------------------------------------------------------------

    def boot(self) -> Effects:
        """First start: journal a boot marker, run the startup closure."""
        yield Log(("boot",))
        yield from self._close(())

    def frames(self, frames: Sequence[bytes]) -> Effects:
        """Accept one drained batch of wire frames."""
        codec, checkpoint = _wire()
        accepted = []  # (frame, envelope) of every counted frame
        stop = False
        for frame in frames:
            envelope = codec.decode_envelope(frame)
            if self._dedup and envelope.kind != codec.KIND_STOP:
                # Retransmitted copy of a frame this node already accepted
                # (durably, via the WAL): drop it without touching the
                # Safra counter or colour — the original acceptance
                # already accounted for it.
                ident = (envelope.sender, envelope.sequence)
                if ident in self._seen_frames:
                    continue
                self._seen_frames.add(ident)
            if envelope.kind == codec.KIND_STOP:
                stop = True
            elif envelope.kind == codec.KIND_TOKEN:
                # Write-ahead: the token is durable before it is held.
                yield Log(("token", frame))
                self.token = envelope.token
            else:
                accepted.append((frame, envelope))
        if stop:
            # STOP implies global quiescence was detected, so no data
            # frame can share this drain — nothing is lost by exiting.
            yield Stop()
        elif accepted:
            # Write-ahead: acceptance is durable before any effect, so a
            # crash inside the closure can replay the exact batch.
            yield Log(("batch", tuple(frame for frame, _ in accepted)))
            yield from self._accept(
                checkpoint.closure_op(envelope for _, envelope in accepted)
            )

    def passive(self) -> Effects:
        """The Safra token action; call only at passive points (mailbox
        drained, closure done)."""
        codec, _ = _wire()
        if self._initiator and not self._probe_started:
            self._probe_started = True
            yield from self._send_token(codec.TokenState(count=0, black=False, probe=1))
            return
        if self.token is None:
            return
        token, self.token = self.token, None
        if not self._initiator:
            yield from self._send_token(
                codec.TokenState(
                    count=token.count + self.counter,
                    black=token.black or self.black,
                    probe=token.probe,
                )
            )
            return
        # The probe came home.  Termination iff everything is white and the
        # global envelope count balances out.
        if not token.black and not self.black and token.count + self.counter == 0:
            if (yield from self._inject_epoch()):
                # Global quiescence held, but the feed had another epoch:
                # the injection re-armed the ring (counted envelopes are in
                # flight), so circulate a fresh white probe instead of
                # STOP.  The probe budget resets — each epoch is entitled
                # to its own detection rounds.
                self._failed_probes = 0
            else:
                self.token_probes = token.probe
                for target in self._peers:
                    yield Send(
                        target,
                        self._frame(codec.KIND_STOP, self.stats.transitions),
                    )
                yield Stop()
                return
        else:
            self._failed_probes += 1
            if self._failed_probes >= self._max_probes:
                raise QuiescenceError(
                    f"cluster did not quiesce within {self._max_probes} "
                    f"termination probes (counter={self.counter}, "
                    f"token={token})"
                )
            # Give redelivery timers room before burning another circulation.
            if self._failed_probes > 3:
                yield BackOff(min(0.001 * (self._failed_probes - 3), 0.02))
        yield from self._send_token(
            codec.TokenState(count=0, black=False, probe=token.probe + 1)
        )

    def recover(self, snapshot, entries: Sequence[tuple]) -> Effects:
        """Rebuild pre-crash state: load *snapshot* (may be ``None``), then
        deterministically replay the WAL suffix it does not cover.  Logged
        sends are consumed instead of re-dispatched (they are already on
        the wire; under ``dedup`` they are re-dispatched uncounted), logged
        token receipts and forwards are restored.  No crash point and no
        snapshot is offered until the replay — including the live tail of
        a closure the crash interrupted — is over, so each recovery makes
        real progress."""
        codec, checkpoint = _wire()
        group = functools.partial(
            checkpoint.group_replay_ops, decode_data_frame=codec.decode_envelope
        )
        diverged = f"replay divergence at node {self.node!r}: "
        self._recovering = True
        start = 0
        if snapshot is not None:
            self.counter = snapshot.counter
            self.black = snapshot.black
            self._sequence = snapshot.sequence
            self._probe_started = snapshot.probe_started
            self.state.output = Instance(snapshot.output)
            self.state.memory = Instance(snapshot.memory)
            (
                self.stats.transitions,
                self.stats.heartbeats,
                self.stats.deliveries,
                self.stats.sent_facts,
            ) = snapshot.stats
            self._extra_input = set(snapshot.extra_input)
            self.fragment = self.fragment | snapshot.extra_input
            self.epochs_injected = snapshot.epochs
            self.epoch_outputs = dict(snapshot.epoch_outputs)
            self.epoch = snapshot.current_epoch
            start = snapshot.wal_position
            # A snapshot does not carry a held token: one accepted (logged)
            # before it and not yet forwarded is still this node's to pass on.
            for entry in entries[:start]:
                if entry[0] == "token":
                    self.token = codec.decode_envelope(entry[1]).token
                elif entry[0] == "token-sent":
                    self.token = None
        if self._dedup:
            # Rebuild accepted-frame identities from the *entire* WAL (not
            # just the replayed suffix): frames folded into the snapshot
            # are just as accepted, and a restarted peer will retransmit
            # them too.
            for op in group(entries):
                self._seen_frames.update(op.frame_ids)
        for op in group(entries[start:]):
            if op.kind == "closure":
                self._replay_sends = deque(op.sends)
                if op.boot:
                    yield from self._close(())
                else:
                    yield from self._accept(op)
                if self._replay_sends:
                    raise checkpoint.CheckpointError(
                        f"{diverged}{len(self._replay_sends)} logged sends "
                        f"were never regenerated"
                    )
            elif op.kind == "delta":
                # Re-run the logged injection: the feed is a fixed list, so
                # the assignment regenerates identically; logged sends are
                # consumed exactly like a closure's.
                self.epochs_injected = op.epoch
                self._replay_sends = deque(op.sends)
                if not (yield from self._inject_epoch()):
                    raise checkpoint.CheckpointError(
                        f"{diverged}the WAL records injecting epoch "
                        f"{op.epoch} but the feed has no such epoch"
                    )
                if self._replay_sends:
                    raise checkpoint.CheckpointError(
                        f"{diverged}{len(self._replay_sends)} logged delta "
                        f"sends were never regenerated"
                    )
            elif op.kind == "token":
                self.token = op.token
            else:  # token-sent: the token left again before the crash
                self.token = None
                self.black = False
                self._probe_started = True
                self._sequence = op.sequence
        self.wal_replayed = len(entries[start:])
        self._recovering = False
        self._closures_since_snapshot = 0
        yield SaveSnapshot()

    # -- what a driver may read ----------------------------------------------

    def snapshot(self, wal_position: int):
        """The durable image of this node; *wal_position* is the number of
        WAL entries logged so far, all of which it covers.  Its fact
        sections are left unsorted: the encoder orders them."""
        stats = self.stats
        return _wire()[1].NodeSnapshot(
            counter=self.counter,
            black=self.black,
            sequence=self._sequence,
            transitions=stats.transitions,
            probe_started=self._probe_started,
            wal_position=wal_position,
            stats=(
                stats.transitions,
                stats.heartbeats,
                stats.deliveries,
                stats.sent_facts,
            ),
            output=tuple(self.state.output),
            memory=tuple(self.state.memory),
            extra_input=tuple(self._extra_input),
            epochs=self.epochs_injected,
            epoch_outputs=tuple(sorted(self.epoch_outputs.items())),
            current_epoch=self.epoch,
        )

    # -- closure, dispatch, epochs ---------------------------------------------

    def _frame(self, kind: int, round: int, *, facts: tuple = (), token=None) -> bytes:
        codec, _ = _wire()
        self._sequence += 1
        return codec.encode_envelope(
            codec.Envelope(
                kind=kind,
                sender=_wire_sender(self.node),
                round=round,
                sequence=self._sequence,
                facts=facts,
                token=token,
            )
        )

    def _accept(self, op) -> Effects:
        """Apply one logged batch (a closure ``ReplayOp``): count it, close
        the epoch boundary it proves, grow the input, deliver and close."""
        self.counter -= op.envelopes
        self.black = True
        if op.epoch_boundary >= 0:
            # Close the boundary first: output so far is still the previous
            # epoch's final share (nothing in this batch has been
            # delivered yet).
            self._note_epoch_boundary(op.epoch_boundary)
        self.grow_input(op.delta_facts)
        self.stats.deliveries += len(op.facts)
        yield from self._close(op.facts)

    def _close(self, delivered: Iterable[Fact]) -> Effects:
        """Deliver a batch, then heartbeat to the local fixpoint, sending
        each transition's messages as it goes.

        Crash points sit after each transition's sends are dispatched *and*
        logged — so an injected crash can never split a dispatch from its
        WAL entry, and recovery's deterministic re-execution always finds
        the logged sends as a prefix of what it regenerates.
        """
        codec, _ = _wire()
        while True:
            step = self.transition(Instance(delivered))
            if step.messages:
                facts = tuple(sort_facts(step.messages))
                for target in self._peers:
                    yield from self._dispatch(target, codec.KIND_DATA, self.epoch, facts)
            if not self._recovering:
                yield CrashPoint()
            if not step.changed and not step.messages:
                break
            delivered = ()
        if not self._recovering:
            self._closures_since_snapshot += 1
            if self._closures_since_snapshot >= self._snapshot_every:
                self._closures_since_snapshot = 0
                yield SaveSnapshot()

    def _dispatch(self, target: Hashable, kind: int, round: int, facts: tuple) -> Effects:
        """Send one counted envelope (data or delta) to *target*, honouring
        the write-ahead contract and recovery's logged-send consumption."""
        frame = self._frame(kind, round, facts=facts)
        sent = (_wire_sender(target), self._sequence)
        if self._replay_sends:
            # Recovery replay: this send already happened before the crash
            # (it is on the wire); verify the regeneration matches the log
            # and restore the counter, nothing else.
            *logged, copies = self._replay_sends.popleft()
            if tuple(logged) != sent:
                raise _wire()[1].CheckpointError(
                    f"replay divergence at node {self.node!r}: "
                    f"regenerated send ({sent[0]!r}, seq {sent[1]}) "
                    f"but the WAL recorded ({logged[0]!r}, seq {logged[1]})"
                )
            self.counter += copies
            if self._dedup:
                # A real process kill cannot prove the logged dispatch ever
                # left user space (the log records the intent, the kernel
                # buffer records the truth).  Re-dispatch the byte-identical
                # regeneration, uncounted: peers that already accepted it
                # drop the duplicate by its durable (sender, sequence)
                # identity, and a peer that never saw it finally gets it.
                yield Send(target, frame)
            return
        copies = yield Send(target, frame)
        yield Log(("send", *sent, copies))
        self.counter += copies

    def _send_token(self, token) -> Effects:
        self.black = False
        yield Send(
            self._ring_next,
            self._frame(_wire()[0].KIND_TOKEN, token.probe, token=token),
        )
        # Log the departure (and the post-send sequence allocator, which
        # closure replay alone cannot reconstruct): a node that crashes
        # after forwarding must not resurrect holding the token.
        yield Log(("token-sent", token.probe, self._sequence))

    def _note_epoch_boundary(self, boundary: int) -> None:
        """Close every epoch boundary up to *boundary* from the current
        output, each **once**.  Called before anything from the triggering
        batch takes effect: a delta envelope names its boundary directly,
        and a data frame stamped with sender epoch ``e`` proves boundary
        ``e - 1`` passed — either way, this node's output is still its
        share of each unrecorded boundary's global output (epochs only
        advance through global quiescence, so the boundaries collapse
        together for a node that saw no traffic in between).  Record-once
        matters: the *first* frame carrying evidence of a boundary finds
        the local output exactly at that boundary, while later frames for
        the same boundary may arrive after post-injection work has landed.
        """
        for epoch in range(boundary + 1):
            if epoch not in self.epoch_outputs:
                self.epoch_outputs[epoch] = tuple(sort_facts(self.state.output))
        self.epoch = max(self.epoch, boundary + 1)

    def _inject_epoch(self) -> Generator[object, object, bool]:
        """Initiator only: inject the next feed epoch, if any.

        Runs at the success point of a termination probe — a true global
        synchronisation point (all nodes passive, nothing in flight), so
        the injected envelopes are the only traffic and every receiver can
        snapshot its pre-delta output consistently.  Each peer gets one
        delta envelope (possibly empty — the uniform wake-up is also the
        uniform epoch marker); they are counted and journaled exactly like
        data, so the Safra accounting stays truthful and the ring re-arms.
        """
        epoch = self.epochs_injected
        if epoch >= len(self._feed):
            return False
        network = self._network
        delta = Instance(self._feed[epoch]).restrict(network.transducer.schema.inputs)
        assignment = network.policy.distribute(delta)
        if not self._recovering:
            # Write-ahead: the injection decision is durable before any of
            # its envelopes ship; replay recomputes the assignment from the
            # feed and consumes the logged sends.
            yield Log(("delta", epoch))
        self._note_epoch_boundary(epoch)
        kind = _wire()[0].KIND_DELTA
        for target in self._peers:
            yield from self._dispatch(
                target, kind, epoch, tuple(sort_facts(assignment[target]))
            )
        self.epochs_injected = epoch + 1
        self.grow_input(assignment[self.node])
        yield from self._close(())
        return True

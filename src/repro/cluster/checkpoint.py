"""Durable node state: snapshots plus a write-ahead log of accepted work.

Relational-transducer semantics make a node's entire volatile state a small
queryable database — an output instance, a memory instance, and a handful
of protocol counters (Safra message counter, colour, wire-sequence
allocator).  That is exactly what makes crash recovery cheap here: persist
a **snapshot** of that database now and then, persist every *accepted*
input (delivered data envelopes, termination tokens) and every *counted*
output (wire dispatches) in an append-only **write-ahead log**, and any
crash can be healed by reloading the last snapshot and deterministically
re-running the logged suffix.

Durability rules (the write-ahead contract):

* a data envelope is logged (``batch`` entry) **before** any of its
  effects run — acceptance *is* the durable acknowledgement;
* a wire dispatch is logged (``send`` entry) with the number of copies the
  fault layer put in flight, so a recovering node can reconstruct its
  Safra sent-counter exactly and **skip** re-dispatching frames that are
  already on the wire;
* token receipt and token forwarding are logged (``token`` /
  ``token-sent``) so a crash never swallows the circulating Safra token.

Everything on disk or in memory is encoded with the wire codec's tagged
values (:func:`repro.cluster.codec.encode_value`), so durable state is as
strictly versioned and platform-independent as the wire itself.

Two stores ship: :class:`MemoryCheckpointStore` (per-run, used by the
divergence gate and the fault layer's default) and
:class:`DiskCheckpointStore` (a directory of per-node snapshot files and
length-prefixed WAL files that survives process restarts).
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable

from ..datalog.terms import Fact, fact_order
from .codec import (
    KIND_DELTA,
    CodecError,
    TokenState,
    decode_value,
    encode_value,
    join_encoded,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "CheckpointError",
    "NodeSnapshot",
    "ReplayOp",
    "closure_op",
    "group_replay_ops",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DiskCheckpointStore",
    "NodeJournal",
]

#: Bumped whenever the snapshot layout changes; decoders reject the rest.
#: v2 added the streaming-ingestion fields (``extra_input``, ``epochs``,
#: ``epoch_outputs``).
SNAPSHOT_VERSION = 2

_SNAPSHOT_MAGIC = "repro-snapshot"
_LEN = struct.Struct("<I")


class CheckpointError(RuntimeError):
    """Raised on malformed durable state or a replay that diverges from
    the logged execution (both are unrecoverable bugs, not fair faults)."""


_ORDER, _ENCODED = itemgetter(0), itemgetter(1)


def _encode_facts(facts, memo: dict, kept: dict) -> bytes:
    """The bytes ``encode_value`` writes for the tuple of ``(relation,
    values)`` pairs of *facts* in fact order.

    *memo* maps ``id(fact)`` to ``(fact_order(fact), encoded, fact)``: a
    fact found there is neither keyed nor encoded again.  The entry holds
    its fact, so the id cannot be reused while the entry lives.  The memo
    cannot be keyed by the fact itself: ``Fact("R", (1,)) ==
    Fact("R", (True,))``, but the two encode differently.  Every entry
    used goes to *kept*.
    """
    entries = []
    for fact in facts:
        ident = id(fact)
        entry = memo.get(ident) or kept.get(ident)
        if entry is None:
            entry = (fact_order(fact), encode_value((fact.relation, fact.values)), fact)
        kept[ident] = entry
        entries.append(entry)
    entries.sort(key=_ORDER)
    return join_encoded(list(map(_ENCODED, entries)))


def _facts_from_value(value) -> tuple[Fact, ...]:
    try:
        return tuple(Fact(relation, values) for relation, values in value)
    except (TypeError, ValueError) as error:
        raise CheckpointError(f"malformed fact list in snapshot: {error}") from None


@dataclass(frozen=True)
class NodeSnapshot:
    """One durable image of a node's volatile state.

    ``counter`` is the Safra sent-minus-received counter — snapshotting it
    (and adjusting it per logged WAL entry on replay) is what lets a
    recovered node rejoin the token ring without ever undercounting its
    own in-flight sends.  ``wal_position`` is the number of WAL entries
    already folded into this snapshot; recovery replays only the suffix.
    The fact tuples may come in any order: :meth:`encode` writes them in
    fact order, so a decoded snapshot holds them sorted.
    """

    counter: int
    black: bool
    sequence: int
    transitions: int
    probe_started: bool
    wal_position: int
    stats: tuple[int, int, int, int]  # transitions, heartbeats, deliveries, sent
    output: tuple[Fact, ...]
    memory: tuple[Fact, ...]
    #: Late-arriving input accepted from a delta feed (the fragment a
    #: recovering node must add on top of its configured base fragment).
    extra_input: tuple[Fact, ...] = ()
    #: Feed epochs already injected (nonzero only on the initiator).
    epochs: int = 0
    #: Per-epoch output snapshots: ((epoch, facts), ...) — the trajectory
    #: the delta-preservation oracle reads after the run.
    epoch_outputs: tuple = ()
    #: The epoch this node currently works in (stamped onto outgoing data
    #: frames so receivers can close epoch boundaries even when a peer's
    #: post-injection data races ahead of the initiator's delta envelope).
    current_epoch: int = 0

    def encode(self, memo: dict | None = None) -> bytes:
        """The snapshot's tagged value, each fact section in fact order.

        *memo* is what the previous encode of the same node's snapshots
        left behind (:class:`NodeJournal` keeps one): its facts are
        neither keyed nor encoded again, so an encode costs the facts new
        since then plus one sort.  On return it holds exactly this
        snapshot's facts.
        """
        previous = {} if memo is None else memo
        kept: dict = {}

        def facts(section) -> bytes:
            return _encode_facts(section, previous, kept)

        header = (
            _SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            self.counter,
            self.black,
            self.sequence,
            self.transitions,
            self.probe_started,
            self.wal_position,
            tuple(self.stats),
        )
        blob = join_encoded(
            [
                *map(encode_value, header),
                facts(self.output),
                facts(self.memory),
                facts(self.extra_input),
                encode_value(self.epochs),
                join_encoded(
                    [
                        join_encoded([encode_value(epoch), facts(epoch_facts)])
                        for epoch, epoch_facts in self.epoch_outputs
                    ]
                ),
                encode_value(self.current_epoch),
            ]
        )
        if memo is not None:
            memo.clear()
            memo.update(kept)
        return blob

    @classmethod
    def decode(cls, blob: bytes) -> "NodeSnapshot":
        try:
            value = decode_value(blob)
        except CodecError as error:
            raise CheckpointError(f"undecodable snapshot: {error}") from None
        if (
            not isinstance(value, tuple)
            or len(value) != 15
            or value[0] != _SNAPSHOT_MAGIC
        ):
            raise CheckpointError("not a node snapshot")
        if value[1] != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"unsupported snapshot version {value[1]} (this build speaks "
                f"{SNAPSHOT_VERSION})"
            )
        stats = tuple(value[8])
        if len(stats) != 4 or not all(type(item) is int for item in stats):
            raise CheckpointError(f"malformed stats tuple {stats!r}")
        return cls(
            counter=value[2],
            black=bool(value[3]),
            sequence=value[4],
            transitions=value[5],
            probe_started=bool(value[6]),
            wal_position=value[7],
            stats=stats,  # type: ignore[arg-type]
            output=_facts_from_value(value[9]),
            memory=_facts_from_value(value[10]),
            extra_input=_facts_from_value(value[11]),
            epochs=value[12],
            epoch_outputs=tuple(
                (epoch, _facts_from_value(facts)) for epoch, facts in value[13]
            ),
            current_epoch=value[14],
        )


# ----------------------------------------------------------------------
# WAL entries and replay grouping
# ----------------------------------------------------------------------

_ENTRY_KINDS = {"boot", "batch", "token", "send", "token-sent", "delta"}


def encode_entry(entry: tuple) -> bytes:
    """Encode one WAL entry (a tagged tuple, head = entry kind)."""
    if not entry or entry[0] not in _ENTRY_KINDS:
        raise CheckpointError(f"unknown WAL entry {entry!r}")
    return encode_value(entry)


def decode_entry(blob: bytes) -> tuple:
    try:
        entry = decode_value(blob)
    except CodecError as error:
        raise CheckpointError(f"undecodable WAL entry: {error}") from None
    if not isinstance(entry, tuple) or not entry or entry[0] not in _ENTRY_KINDS:
        raise CheckpointError(f"unknown WAL entry {entry!r}")
    return entry


@dataclass
class ReplayOp:
    """One step of a recovery replay, in logged order.

    ``closure`` ops re-run a deliver-and-close cycle (``boot`` is the
    startup closure); their ``sends`` are the dispatches the pre-crash
    execution already counted, consumed (and skipped on the wire) as the
    deterministic re-execution produces them again.  ``token`` restores a
    held Safra token; ``token-sent`` marks it forwarded and restores the
    sequence allocator to its post-forward value.
    """

    kind: str  # "closure" | "token" | "token-sent" | "delta"
    boot: bool = False
    envelopes: int = 0
    facts: tuple = ()
    sends: tuple = ()  # of (target, sequence, count)
    token: TokenState | None = None
    sequence: int = 0
    #: Input facts accepted from delta envelopes within this closure —
    #: applied to the local fragment *before* the closure re-runs.
    delta_facts: tuple = ()
    #: The highest epoch boundary this closure's frames imply (delta
    #: envelopes name their boundary directly; a data frame stamped with
    #: sender epoch e implies boundary e-1).  Replay re-records every
    #: still-missing boundary up to it from the pre-closure output, just
    #: like live acceptance; -1 means no boundary information.
    epoch_boundary: int = -1
    #: For ``delta`` ops: the feed epoch the initiator injected.  Replay
    #: recomputes the per-node assignment from the (deterministic) feed
    #: and consumes the logged sends, exactly like a closure.
    epoch: int = 0
    #: (sender, sequence) of each accepted frame this op covers — the
    #: durable identity a deduplicating receiver rebuilds after a real
    #: process kill, so retransmitted copies of already-accepted frames
    #: are dropped instead of double-counted.
    frame_ids: tuple = ()


def closure_op(envelopes) -> ReplayOp:
    """The closure one accepted batch of data / delta envelopes calls for
    — what live acceptance applies and what replay re-applies."""
    facts: list = []
    delta_facts: list = []
    boundary = -1
    ids: list = []
    for envelope in envelopes:
        if envelope.kind == KIND_DELTA:
            # A streamed input extension: counted and journaled like data,
            # but the facts grow the local input instead of being delivered.
            delta_facts.extend(envelope.facts)
            boundary = max(boundary, envelope.round)
        else:
            facts.extend(envelope.facts)
            # Data stamped with sender epoch e proves boundary e-1 passed,
            # even if the delta envelope is still in flight elsewhere.
            boundary = max(boundary, envelope.round - 1)
        ids.append((envelope.sender, envelope.sequence))
    return ReplayOp(
        kind="closure",
        envelopes=len(ids),
        facts=tuple(facts),
        delta_facts=tuple(delta_facts),
        epoch_boundary=boundary,
        frame_ids=tuple(ids),
    )


def group_replay_ops(entries, *, decode_data_frame) -> list[ReplayOp]:
    """Fold a WAL suffix into ordered :class:`ReplayOp`s.

    ``decode_data_frame`` maps a logged wire frame to its envelope (the
    caller supplies :func:`repro.cluster.codec.decode_envelope`; injected
    to keep this module free of envelope layout knowledge).
    """
    ops: list[ReplayOp] = []
    for entry in entries:
        kind = entry[0]
        if kind == "boot":
            ops.append(ReplayOp(kind="closure", boot=True))
        elif kind == "batch":
            ops.append(closure_op(decode_data_frame(frame) for frame in entry[1]))
        elif kind == "send":
            if not ops or ops[-1].kind not in ("closure", "delta"):
                raise CheckpointError(
                    "WAL send entry outside any closure — corrupt log"
                )
            ops[-1].sends = ops[-1].sends + ((entry[1], entry[2], entry[3]),)
        elif kind == "delta":
            ops.append(ReplayOp(kind="delta", epoch=entry[1]))
        elif kind == "token":
            envelope = decode_data_frame(entry[1])
            if envelope.token is None:
                raise CheckpointError("token WAL entry without a TokenState")
            ops.append(
                ReplayOp(
                    kind="token",
                    token=envelope.token,
                    frame_ids=((envelope.sender, envelope.sequence),),
                )
            )
        elif kind == "token-sent":
            ops.append(ReplayOp(kind="token-sent", sequence=entry[2]))
    return ops


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------


class CheckpointStore:
    """Base interface: per-node latest snapshot + append-only WAL, with
    byte counters for telemetry (``snapshot_bytes``, ``wal_bytes``)."""

    name = "abstract"

    def __init__(self) -> None:
        self.snapshot_bytes = 0
        self.wal_bytes = 0

    def save_snapshot(self, node: Hashable, blob: bytes) -> None:
        raise NotImplementedError

    def load_snapshot(self, node: Hashable) -> bytes | None:
        raise NotImplementedError

    def append_wal(self, node: Hashable, blob: bytes) -> None:
        raise NotImplementedError

    def wal(self, node: Hashable) -> list[bytes]:
        raise NotImplementedError

    def has_state(self, node: Hashable) -> bool:
        return self.load_snapshot(node) is not None or bool(self.wal(node))


class MemoryCheckpointStore(CheckpointStore):
    """Durability relative to *node* lifetimes, not the process: state
    survives a node task's crash because it lives in the run harness.
    This is the model the divergence gate uses — the same role the kernel
    socket buffer plays for the transport."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._snapshots: dict[Hashable, bytes] = {}
        self._wals: dict[Hashable, list[bytes]] = {}

    def save_snapshot(self, node: Hashable, blob: bytes) -> None:
        self._snapshots[node] = blob
        self.snapshot_bytes += len(blob)

    def load_snapshot(self, node: Hashable) -> bytes | None:
        return self._snapshots.get(node)

    def append_wal(self, node: Hashable, blob: bytes) -> None:
        self._wals.setdefault(node, []).append(blob)
        self.wal_bytes += len(blob)

    def wal(self, node: Hashable) -> list[bytes]:
        return list(self._wals.get(node, []))


class DiskCheckpointStore(CheckpointStore):
    """On-disk backend: ``<key>.snap`` (latest snapshot, replaced
    atomically via rename) and ``<key>.wal`` (append-only, ``u32``
    length-prefixed entries) per node under one directory.  A fresh store
    over the same directory sees everything a previous process wrote.
    """

    name = "disk"

    def __init__(self, directory) -> None:
        super().__init__()
        self._dir = os.fspath(directory)
        os.makedirs(self._dir, exist_ok=True)

    def _key(self, node: Hashable) -> str:
        return hashlib.sha256(repr(node).encode("utf-8")).hexdigest()[:16]

    def _snap_path(self, node: Hashable) -> str:
        return os.path.join(self._dir, f"{self._key(node)}.snap")

    def _wal_path(self, node: Hashable) -> str:
        return os.path.join(self._dir, f"{self._key(node)}.wal")

    def save_snapshot(self, node: Hashable, blob: bytes) -> None:
        path = self._snap_path(node)
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
        self.snapshot_bytes += len(blob)

    def load_snapshot(self, node: Hashable) -> bytes | None:
        try:
            with open(self._snap_path(node), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def append_wal(self, node: Hashable, blob: bytes) -> None:
        with open(self._wal_path(node), "ab") as handle:
            handle.write(_LEN.pack(len(blob)) + blob)
        self.wal_bytes += len(blob)

    def wal(self, node: Hashable) -> list[bytes]:
        try:
            with open(self._wal_path(node), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return []
        entries = []
        position = 0
        while position < len(data):
            # A SIGKILL can land mid-append and tear the final entry.  The
            # write-ahead contract makes dropping the torn tail safe: a
            # torn ``batch``/``token`` never had its effects run (logging
            # precedes effects) and the sender will retransmit the frame;
            # a torn ``send``/``token-sent`` is regenerated by the
            # deterministic replay with the same wire identity, which the
            # receiver's dedup absorbs.  Only the *last* entry can be torn
            # (appends are sequential), so any short read here is a tail.
            if position + _LEN.size > len(data):
                break  # torn tail: header cut short
            (length,) = _LEN.unpack(data[position:position + _LEN.size])
            position += _LEN.size
            if position + length > len(data):
                break  # torn tail: body cut short
            entries.append(data[position:position + length])
            position += length
        return entries


class NodeJournal:
    """One node's handle on a store: entry/snapshot encoding in, decoded
    history out.  This is the only interface node logic touches."""

    def __init__(self, store: CheckpointStore, node: Hashable) -> None:
        self._store = store
        self._node = node
        self._position = len(store.wal(node))
        # The last snapshot's facts, keyed and encoded (NodeSnapshot.encode).
        self._memo: dict = {}

    @property
    def position(self) -> int:
        """Total WAL entries logged for this node (snapshots record it as
        ``wal_position`` so recovery replays only the suffix)."""
        return self._position

    def has_history(self) -> bool:
        return self._store.has_state(self._node)

    @property
    def snapshot_bytes(self) -> int:
        """Snapshot bytes the underlying store has written (telemetry)."""
        return self._store.snapshot_bytes

    def append(self, entry: tuple) -> None:
        """Append one WAL entry — ``("boot",)``, ``("batch", frames)``,
        ``("send", target, sequence, copies)``, ``("token", frame)``,
        ``("token-sent", probe, sequence)`` or ``("delta", epoch)``; which
        one, and when, is the node core's write-ahead discipline."""
        self._store.append_wal(self._node, encode_entry(entry))
        self._position += 1

    # -- the recovery side -------------------------------------------------

    def entries(self) -> list[tuple]:
        return [decode_entry(blob) for blob in self._store.wal(self._node)]

    def save_snapshot(self, snapshot: NodeSnapshot) -> None:
        self._store.save_snapshot(self._node, snapshot.encode(self._memo))

    def load_snapshot(self) -> NodeSnapshot | None:
        blob = self._store.load_snapshot(self._node)
        if blob is None:
            return None
        return NodeSnapshot.decode(blob)


def make_checkpoint_store(spec) -> CheckpointStore:
    """Build a store from a CLI-ish spec: an existing store passes
    through, ``"memory"`` makes the in-run store, anything else is a
    directory path for the disk backend."""
    if isinstance(spec, CheckpointStore):
        return spec
    if spec == "memory":
        return MemoryCheckpointStore()
    return DiskCheckpointStore(spec)

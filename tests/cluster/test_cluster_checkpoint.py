"""Unit tests for the checkpoint layer: snapshots, WAL codecs, stores."""

import pytest

from repro.cluster.checkpoint import (
    CheckpointError,
    DiskCheckpointStore,
    MemoryCheckpointStore,
    NodeJournal,
    NodeSnapshot,
    decode_entry,
    encode_entry,
    group_replay_ops,
    make_checkpoint_store,
)
from repro.cluster.codec import (
    KIND_DATA,
    Envelope,
    TokenState,
    decode_envelope,
    encode_envelope,
)
from repro.datalog.terms import Fact


def _sample_snapshot() -> NodeSnapshot:
    return NodeSnapshot(
        counter=3,
        black=True,
        sequence=17,
        transitions=9,
        probe_started=True,
        wal_position=4,
        stats=(9, 5, 12, 30),
        output=(Fact("T", (1, 2)), Fact("T", (2, 3))),
        memory=(Fact("Seen", ("a",)),),
    )


def _data_frame(facts, sequence=1) -> bytes:
    return encode_envelope(
        Envelope(
            kind=KIND_DATA,
            sender="n1",
            round=1,
            sequence=sequence,
            facts=tuple(facts),
        )
    )


class TestNodeSnapshot:
    def test_round_trip(self):
        snapshot = _sample_snapshot()
        assert NodeSnapshot.decode(snapshot.encode()) == snapshot

    def test_empty_state_round_trip(self):
        snapshot = NodeSnapshot(
            counter=0,
            black=False,
            sequence=0,
            transitions=0,
            probe_started=False,
            wal_position=0,
            stats=(0, 0, 0, 0),
            output=(),
            memory=(),
        )
        assert NodeSnapshot.decode(snapshot.encode()) == snapshot

    def test_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            NodeSnapshot.decode(b"not a snapshot")

    def test_rejects_wrong_shape(self):
        from repro.cluster.codec import encode_value

        with pytest.raises(CheckpointError, match="not a node snapshot"):
            NodeSnapshot.decode(encode_value(("something-else", 1)))


class TestWalEntries:
    def test_round_trips(self):
        frame = _data_frame([Fact("R", (1,))])
        for entry in (
            ("boot",),
            ("batch", (frame, frame)),
            ("token", frame),
            ("send", "n2", 5, 3),
            ("token-sent", 2, 11),
        ):
            assert decode_entry(encode_entry(entry)) == entry

    def test_rejects_unknown_kind(self):
        with pytest.raises(CheckpointError):
            encode_entry(("mystery", 1))


class TestStores:
    @pytest.fixture(params=["memory", "disk"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemoryCheckpointStore()
        return DiskCheckpointStore(tmp_path)

    def test_snapshot_round_trip(self, store):
        journal = NodeJournal(store, "n1")
        assert journal.load_snapshot() is None
        assert not journal.has_history()
        snapshot = _sample_snapshot()
        journal.save_snapshot(snapshot)
        assert journal.load_snapshot() == snapshot
        assert journal.has_history()
        assert store.snapshot_bytes > 0

    def test_wal_append_order_and_position(self, store):
        journal = NodeJournal(store, "n1")
        assert journal.position == 0
        journal.append(("boot",))
        journal.append(("send", "n2", 1, 2))
        journal.append(("token-sent", 1, 4))
        assert journal.position == 3
        assert journal.entries() == [
            ("boot",),
            ("send", "n2", 1, 2),
            ("token-sent", 1, 4),
        ]

    def test_per_node_isolation(self, store):
        a, b = NodeJournal(store, "n1"), NodeJournal(store, "n2")
        a.append(("boot",))
        assert b.entries() == []
        assert a.has_history() and not b.has_history()

    def test_latest_snapshot_wins(self, store):
        journal = NodeJournal(store, "n1")
        journal.save_snapshot(_sample_snapshot())
        second = NodeSnapshot(
            counter=0,
            black=False,
            sequence=99,
            transitions=1,
            probe_started=False,
            wal_position=7,
            stats=(1, 1, 0, 0),
            output=(),
            memory=(),
        )
        journal.save_snapshot(second)
        assert journal.load_snapshot() == second


def test_disk_store_survives_reopen(tmp_path):
    store = DiskCheckpointStore(tmp_path)
    journal = NodeJournal(store, ("node", 1))
    journal.append(("boot",))
    journal.append(("send", "n2", 1, 1))
    journal.save_snapshot(_sample_snapshot())
    # A brand-new store over the same directory sees it all (a new process).
    reopened = NodeJournal(DiskCheckpointStore(tmp_path), ("node", 1))
    assert reopened.position == 2
    assert reopened.entries() == [("boot",), ("send", "n2", 1, 1)]
    assert reopened.load_snapshot() == _sample_snapshot()


def test_disk_store_drops_torn_tail_entry(tmp_path):
    """A SIGKILL mid-append can tear the final WAL entry; recovery must
    keep the intact prefix and silently drop the torn tail (the entry's
    effects never ran, or its send is regenerated and deduplicated)."""
    store = DiskCheckpointStore(tmp_path)
    journal = NodeJournal(store, "n1")
    journal.append(("boot",))
    journal.append(("send", "n2", 1, 1))
    wal_file = next(tmp_path.glob("*.wal"))
    wal_file.write_bytes(wal_file.read_bytes()[:-1])  # tear the send entry
    reopened = NodeJournal(DiskCheckpointStore(tmp_path), "n1")
    assert reopened.entries() == [("boot",)]
    assert reopened.position == 1


def test_disk_store_drops_torn_tail_header(tmp_path):
    store = DiskCheckpointStore(tmp_path)
    journal = NodeJournal(store, "n1")
    journal.append(("boot",))
    wal_file = next(tmp_path.glob("*.wal"))
    wal_file.write_bytes(wal_file.read_bytes() + b"\x07\x00")  # half a header
    assert NodeJournal(DiskCheckpointStore(tmp_path), "n1").entries() == [("boot",)]


def test_make_checkpoint_store():
    memory = make_checkpoint_store("memory")
    assert isinstance(memory, MemoryCheckpointStore)
    assert make_checkpoint_store(memory) is memory


def test_make_checkpoint_store_disk(tmp_path):
    disk = make_checkpoint_store(str(tmp_path / "ckpt"))
    assert isinstance(disk, DiskCheckpointStore)
    NodeJournal(disk, "n1").append(("boot",))
    assert (tmp_path / "ckpt").is_dir()


class TestGroupReplayOps:
    def test_closure_grouping(self):
        frame = _data_frame([Fact("R", (1,)), Fact("R", (2,))])
        entries = [
            ("boot",),
            ("send", "n2", 1, 1),
            ("send", "n3", 2, 2),
            ("token", _token_frame()),
            ("batch", (frame,)),
            ("send", "n2", 3, 1),
            ("token-sent", 1, 5),
        ]
        ops = group_replay_ops(entries, decode_data_frame=decode_envelope)
        kinds = [op.kind for op in ops]
        assert kinds == ["closure", "token", "closure", "token-sent"]
        boot, token, closure, sent = ops
        assert boot.boot and boot.envelopes == 0
        assert boot.sends == (("n2", 1, 1), ("n3", 2, 2))
        assert token.token == TokenState(count=2, black=True, probe=1)
        assert closure.envelopes == 1
        assert closure.facts == (Fact("R", (1,)), Fact("R", (2,)))
        assert closure.sends == (("n2", 3, 1),)
        assert sent.sequence == 5

    def test_send_outside_closure_is_corrupt(self):
        with pytest.raises(CheckpointError, match="corrupt"):
            group_replay_ops(
                [("send", "n2", 1, 1)], decode_data_frame=decode_envelope
            )


def _token_frame() -> bytes:
    from repro.cluster.codec import KIND_TOKEN

    return encode_envelope(
        Envelope(
            kind=KIND_TOKEN,
            sender="n1",
            round=1,
            sequence=9,
            token=TokenState(count=2, black=True, probe=1),
        )
    )

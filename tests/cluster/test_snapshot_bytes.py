"""Snapshot bytes: the memoized encoder writes exactly what the plain
tagged-value encoding of the sorted fact sections writes, however many
snapshots share one memo, and the v2 layout is frozen as a golden."""

import random

from hypothesis import given, strategies as st

from repro.cluster.checkpoint import (
    MemoryCheckpointStore,
    NodeJournal,
    NodeSnapshot,
)
from repro.cluster.codec import encode_value
from repro.datalog.terms import Fact


def reference_encode(snapshot: NodeSnapshot) -> bytes:
    """The snapshot encoder as it was before the memo: every section
    sorted through ``Fact.__lt__`` and encoded as one tagged value."""

    def facts_to_value(facts) -> tuple:
        return tuple((fact.relation, fact.values) for fact in sorted(facts))

    return encode_value(
        (
            "repro-snapshot",
            2,
            snapshot.counter,
            snapshot.black,
            snapshot.sequence,
            snapshot.transitions,
            snapshot.probe_started,
            snapshot.wal_position,
            tuple(snapshot.stats),
            facts_to_value(snapshot.output),
            facts_to_value(snapshot.memory),
            facts_to_value(snapshot.extra_input),
            snapshot.epochs,
            tuple(
                (epoch, facts_to_value(facts)) for epoch, facts in snapshot.epoch_outputs
            ),
            snapshot.current_epoch,
        )
    )


def snapshot_of(output=(), memory=(), extra_input=(), epoch_outputs=(), counter=0):
    return NodeSnapshot(
        counter=counter,
        black=False,
        sequence=counter,
        transitions=counter,
        probe_started=False,
        wal_position=counter,
        stats=(counter, 0, 0, 0),
        output=tuple(output),
        memory=tuple(memory),
        extra_input=tuple(extra_input),
        epochs=len(epoch_outputs),
        epoch_outputs=tuple(epoch_outputs),
        current_epoch=len(epoch_outputs),
    )


def test_equal_facts_that_encode_differently_are_not_confused():
    """``R(1) == R(True)``: a memo keyed by the fact would write the
    first one's bytes for the second."""
    memo: dict = {}
    sequence = [
        snapshot_of(output=[Fact("R", (1,))]),
        snapshot_of(output=[Fact("R", (True,))]),
        snapshot_of(output=[Fact("R", (1.0,))], memory=[Fact("R", (1,))]),
        snapshot_of(output=[Fact("R", ((1, True),))], memory=[Fact("R", ((True, 1),))]),
    ]
    for snapshot in sequence:
        assert snapshot.encode(memo) == reference_encode(snapshot)


def test_a_reused_id_is_not_a_memo_hit():
    """Facts freed between snapshots make room for new objects at the same
    address; the memo holds each fact it keys, so no id is ever reused."""
    memo: dict = {}
    for index in range(200):
        snapshot = snapshot_of(output=[Fact("R", ((1, True)[index % 2],))])
        assert snapshot.encode(memo) == reference_encode(snapshot)
        del snapshot  # frees the fact, unless the memo holds it


def test_the_memo_holds_exactly_the_last_snapshot():
    kept, dropped = Fact("R", (1,)), Fact("R", (2,))
    memo: dict = {}
    snapshot_of(output=[kept, dropped]).encode(memo)
    snapshot_of(output=[kept], epoch_outputs=[(0, (kept,))]).encode(memo)
    assert [entry[2] for entry in memo.values()] == [kept]


# A small pool of values, so snapshots share facts, equal facts of
# different types (1, True, 1.0) meet, and nested tuples and arities mix.
scalars = st.sampled_from([None, 0, 1, True, False, 1.0, -0.0, "", "a", "1", b"", b"a"])
values = st.recursive(
    scalars, lambda children: st.lists(children, max_size=2).map(tuple), max_leaves=4
)
new_facts = st.builds(
    Fact, relation=st.sampled_from(["R", "S"]), values=st.lists(values, max_size=2).map(tuple)
)


@given(pool=st.lists(new_facts, min_size=1, max_size=12), data=st.data())
def test_one_memo_across_many_snapshots_matches_the_reference(pool, data):
    """Snapshots draw from one pool of fact objects (memo hits) and from
    freshly built facts (misses, some equal to pooled ones)."""
    sections = st.lists(st.one_of(st.sampled_from(pool), new_facts), max_size=8)
    memo: dict = {}
    for counter in range(data.draw(st.integers(min_value=1, max_value=6))):
        snapshot = snapshot_of(
            output=data.draw(sections),
            memory=data.draw(sections),
            extra_input=data.draw(sections),
            epoch_outputs=[(0, tuple(data.draw(sections)))],
            counter=counter,
        )
        assert snapshot.encode(memo) == reference_encode(snapshot)


def test_journal_writes_reference_bytes_across_a_growing_state():
    """A node's state as it is in a run: a set that grows by a few facts
    per closure (mostly the same objects), snapshotted after each."""
    rng = random.Random(7)
    choices = [None, 0, 1, True, 2.5, "x", b"y", (1, "z"), ((True,), 1.0)]
    store = MemoryCheckpointStore()
    journal = NodeJournal(store, "n1")
    output: set = set()
    memory: set = set()
    epochs: list = []
    for counter in range(2000):
        for _ in range(rng.randrange(3)):
            arity = rng.randrange(3)
            fact = Fact(rng.choice("RST"), tuple(rng.choice(choices) for _ in range(arity)))
            (output if rng.random() < 0.5 else memory).add(fact)
        if memory and rng.random() < 0.1:
            memory.discard(rng.choice(sorted(memory)))
        if rng.random() < 0.01:
            epochs.append((len(epochs), tuple(sorted(output))))
        snapshot = snapshot_of(output, memory, (), epochs, counter)
        journal.save_snapshot(snapshot)
        assert store.load_snapshot("n1") == reference_encode(snapshot)


GOLDEN = NodeSnapshot(
    counter=-2,
    black=True,
    sequence=17,
    transitions=9,
    probe_started=True,
    wal_position=4,
    stats=(9, 5, 12, 30),
    output=(Fact("T", (2, 3)), Fact("T", (1, 2))),
    memory=(
        Fact("Seen", ("a", None)),
        Fact("Seen", (True, 1.5)),
        Fact("Got", ((1, "x"), b"\x00")),
    ),
    extra_input=(Fact("E", (3, 4)),),
    epochs=1,
    epoch_outputs=((0, (Fact("T", (1, 2)),)),),
    current_epoch=1,
)

GOLDEN_HEX = (
    "550f000000530e000000726570726f2d736e617073686f744901000000024901"
    "000000fe54490100000011490100000009544901000000045504000000490100"
    "00000949010000000549010000000c49010000001e5502000000550200000053"
    "0100000054550200000049010000000149010000000255020000005301000000"
    "5455020000004901000000024901000000035503000000550200000053030000"
    "00476f7455020000005502000000490100000001530100000078420100000000"
    "550200000053040000005365656e55020000005444000000000000f83f550200"
    "000053040000005365656e55020000005301000000614e550100000055020000"
    "0053010000004555020000004901000000034901000000044901000000015501"
    "0000005502000000490100000000550100000055020000005301000000545502"
    "000000490100000001490100000002490100000001"
)


def test_v2_layout_is_frozen():
    assert GOLDEN.encode().hex() == GOLDEN_HEX
    assert GOLDEN.encode({}).hex() == GOLDEN_HEX
    decoded = NodeSnapshot.decode(bytes.fromhex(GOLDEN_HEX))
    assert decoded.output == (Fact("T", (1, 2)), Fact("T", (2, 3)))
    assert decoded.encode().hex() == GOLDEN_HEX

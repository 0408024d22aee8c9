"""The sans-IO node core (``repro.transducers.node``), driven without an
event loop, a socket or a file.

``MemoryRing`` is a deterministic in-memory driver: lists for mailboxes,
outboxes and WALs, every effect performed in program order.  On top of it:

* the write-ahead discipline, read off the effect streams;
* a real-kill crash after *every* effect index of every node, recovered
  from snapshot + WAL, must still refine the query's spec;
* each ``replay divergence`` error, triggered by a tampered entry list.
"""

import pytest

from repro.cluster.checkpoint import CheckpointError
from repro.cluster.codec import KIND_DATA, KIND_DELTA, KIND_TOKEN, decode_envelope
from repro.cluster.gate import workload_by_key
from repro.core.analyzer import planned_network, query_for
from repro.datalog import Instance, parse_facts, parse_program
from repro.monotonicity.classes import AdditionKind
from repro.runtimes import Observation, refines, spec_for
from repro.streaming import DeltaFeed
from repro.transducers.node import (
    CrashPoint,
    Log,
    NodeCore,
    SaveSnapshot,
    Send,
    Stop,
)

TC = parse_program("T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).")
CHAIN = Instance(parse_facts("E(1, 2). E(2, 3). E(3, 4)."))
FEED = DeltaFeed.from_texts(["E(4, 5).", "E(5, 1)."])


class Killed(Exception):
    pass


class MemoryRing:
    """A ring of cores under the process runtime's delivery model: frames
    are delivered at least once (a restarted node's mailbox is gone, every
    peer retransmits its whole outbox), cores deduplicate.  ``kill=(node,
    k)`` kills *node* right after its *k*-th effect."""

    def __init__(self, network, instance, *, feed=None, kill=None):
        self.network = network
        self.nodes = network.network.sorted_nodes()
        inputs = network.transducer.schema.inputs
        self.fragments = network.policy.distribute(instance.restrict(inputs))
        self.feed = [batch.facts for batch in feed.batches] if feed else []
        self.kill = kill
        self.mailbox = {node: [] for node in self.nodes}
        self.outbox = {node: [] for node in self.nodes}  # (target, frame) ever sent
        self.wal = {node: [] for node in self.nodes}
        self.snapshot = dict.fromkeys(self.nodes)
        self.trace = {node: [] for node in self.nodes}  # (event, effect, token held)
        self.stopped = set()
        self.cores = {node: self._core(node) for node in self.nodes}

    def _core(self, node):
        return NodeCore(
            self.network, node, self.fragments[node], dedup=True, feed=self.feed
        )

    def perform(self, node, event, *args):
        core = self.cores[node]
        effects, answer = getattr(core, event)(*args), None
        try:
            while True:
                effect = effects.send(answer)
                answer = None
                if isinstance(effect, Send):
                    self.outbox[node].append((effect.target, effect.frame))
                    self.mailbox[effect.target].append(effect.frame)
                    answer = 1
                elif isinstance(effect, Log):
                    self.wal[node].append(effect.entry)
                elif isinstance(effect, SaveSnapshot):
                    self.snapshot[node] = core.snapshot(len(self.wal[node]))
                elif isinstance(effect, Stop):
                    self.stopped.add(node)
                self.trace[node].append((event, effect, core.token is not None))
                if self.kill == (node, len(self.trace[node])):
                    self.kill = None
                    raise Killed
        except StopIteration:
            pass

    def step(self, node, event, *args):
        """Perform one event; on a kill, restart the node instead (False)."""
        try:
            self.perform(node, event, *args)
            return True
        except Killed:
            self.mailbox[node] = [
                frame
                for peer in self.nodes
                for target, frame in self.outbox[peer]
                if target == node
            ]
            self.cores[node] = self._core(node)
            self.perform(node, "recover", self.snapshot[node], list(self.wal[node]))

    def run(self):
        for node in self.nodes:
            self.step(node, "boot")
        for _ in range(10_000):
            if len(self.stopped) == len(self.nodes):
                return self
            for node in self.nodes:
                # As in ClusterNode.run: a (re)started node is first passive.
                if node in self.stopped or not self.step(node, "passive"):
                    continue
                if self.mailbox[node] and node not in self.stopped:
                    frames, self.mailbox[node] = self.mailbox[node], []
                    self.step(node, "frames", frames)
        raise AssertionError("the ring did not stop")

    def observation(self):
        cores = self.cores.values()
        output = Instance(fact for core in cores for fact in core.state.output)
        epochs = ()
        if self.feed:
            epochs = tuple(
                Instance(f for core in cores for f in core.epoch_outputs.get(epoch, ()))
                for epoch in range(max(core.epochs_injected for core in cores))
            ) + (output,)
        return Observation(output, epochs, quiesced=True, report=None)


def _tc(nodes, feed=None):
    spec = spec_for(query_for(TC), CHAIN, feed, AdditionKind.ANY if feed else None)
    return planned_network(TC, nodes), CHAIN, feed, spec


def _distinct(nodes):
    workload = workload_by_key("thm43-distinct")
    spec = spec_for(workload.query, workload.instance)
    return workload.network(nodes), workload.instance, None, spec


CASES = {
    "tc-2": lambda: _tc(("n1", "n2")),
    "tc-3": lambda: _tc(("n1", "n2", "n3")),
    "tc-stream-2": lambda: _tc(("n1", "n2"), FEED),
    "tc-stream-3": lambda: _tc(("n1", "n2", "n3"), FEED),
    "distinct-2": lambda: _distinct(("n1", "n2")),
    "distinct-3": lambda: _distinct(("n1", "n2", "n3")),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def test_uncrashed_ring_refines_and_keeps_the_write_ahead_order(case):
    network, instance, feed, spec = case
    ring = MemoryRing(network, instance, feed=feed).run()
    assert refines(ring.observation(), spec) == []
    for node, trace in ring.trace.items():
        effects = [effect for _, effect, _ in trace]
        # Every closure (its crash points) is preceded by the log entry
        # that lets a crash inside it be replayed.
        opened = False
        for event, effect, _ in trace:
            if isinstance(effect, Log) and effect.entry[0] != "send":
                opened = effect.entry[0] in ("boot", "batch", "delta")
            assert opened or not isinstance(effect, CrashPoint), (node, event)
        for index, effect in enumerate(effects):
            if not isinstance(effect, Send):
                continue
            envelope = decode_envelope(effect.frame)
            # A counted send is followed at once by its WAL entry: no crash
            # point (nothing at all) can split the dispatch from the log.
            if envelope.kind in (KIND_DATA, KIND_DELTA):
                assert effects[index + 1] == Log(
                    ("send", effect.target, envelope.sequence, 1)
                )
            elif envelope.kind == KIND_TOKEN:
                assert effects[index + 1].entry[0] == "token-sent"
        # A token is logged before it is held.
        logged = [held for _, effect, held in trace
                  if isinstance(effect, Log) and effect.entry[0] == "token"]
        assert logged and not any(logged)


def test_a_kill_after_every_effect_of_every_node_still_refines(case):
    network, instance, feed, spec = case
    clean = MemoryRing(network, instance, feed=feed).run()
    for node, trace in clean.trace.items():
        for index in range(1, len(trace) + 1):
            ring = MemoryRing(network, instance, feed=feed, kill=(node, index)).run()
            assert ring.kill is None, "the kill never fired"
            assert refines(ring.observation(), spec) == [], (node, index)


# -- replay divergence: a WAL that is not a log of this node's execution ----


def _recover(entries, *, feed=()):
    network, instance, _, _ = _tc(("n1", "n2"))
    fragment = network.policy.distribute(instance)["n1"]
    core = NodeCore(network, "n1", fragment, feed=feed)
    effects, answer = core.recover(None, entries), None
    try:
        while True:
            answer = 1 if isinstance(effects.send(answer), Send) else None
    except StopIteration:
        return core


def _logged_by_n1(feed=None):
    network, instance, _, _ = _tc(("n1", "n2"))
    return MemoryRing(network, instance, feed=feed).run().wal["n1"]


def test_an_honest_wal_replays():
    entries = _logged_by_n1(FEED)
    assert {"boot", "send", "delta", "token"} <= {entry[0] for entry in entries}
    core = _recover(entries, feed=[batch.facts for batch in FEED.batches])
    assert core.wal_replayed == len(entries) and core.epochs_injected == 2


def test_replay_rejects_a_send_the_log_recorded_differently():
    entries = _logged_by_n1()
    first = next(i for i, entry in enumerate(entries) if entry[0] == "send")
    kind, target, sequence, copies = entries[first]
    entries[first] = (kind, target, sequence + 7, copies)
    with pytest.raises(CheckpointError, match=r"regenerated send \('n2', seq 1\)"):
        _recover(entries)


def test_replay_rejects_logged_sends_it_never_regenerates():
    entries = _logged_by_n1()
    last = max(i for i, entry in enumerate(entries) if entry[0] == "send")
    entries.insert(last + 1, ("send", "n2", 99, 1))
    with pytest.raises(CheckpointError, match="1 logged sends were never regenerated"):
        _recover(entries)


def test_replay_rejects_an_injection_the_feed_does_not_have():
    with pytest.raises(CheckpointError, match="injecting epoch 5 but the feed has no"):
        _recover([("boot",), ("delta", 5)], feed=[])


def test_replay_rejects_logged_delta_sends_it_never_regenerates():
    entries = _logged_by_n1(FEED)
    delta = next(i for i, entry in enumerate(entries) if entry[0] == "delta")
    closes = next(i for i in range(delta + 1, len(entries)) if entries[i][0] != "send")
    entries.insert(closes, ("send", "n2", 99, 1))
    with pytest.raises(CheckpointError, match="1 logged delta sends were never"):
        _recover(entries, feed=[batch.facts for batch in FEED.batches])

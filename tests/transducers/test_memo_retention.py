"""Regression: a finished run leaves nothing behind, and makes no garbage
only the cycle collector could free.

The Mdistinct protocol once memoized its known-absence sweep in a
module-level dict keyed by the run's policy, so every finished run stayed
reachable until 4 096 runs later.  Its protocol state also held the view
that held it, so every transition left a reference cycle.  The protocol
state is now carried per node in the node's cursor, which references no
view.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.datalog import Instance, parse_facts
from repro.queries import complement_tc_query
from repro.transducers import (
    FairScheduler,
    Network,
    TransducerNetwork,
    distinct_protocol_transducer,
    hash_policy,
    section4_protocols,
)
from repro.transducers.barrier import barrier_baseline

NETWORK = Network(["n1", "n2", "n3"])


def finished_run(index: int) -> weakref.ref:
    """One distinct-protocol run to quiescence; a weak reference to its
    policy.  The input differs per run, as it does between requests."""
    query = complement_tc_query()
    policy = hash_policy(query.input_schema, NETWORK)
    instance = Instance(parse_facts(f"E({index},{index + 1}). E({index + 1},{index + 2})."))
    run = TransducerNetwork(
        NETWORK, distinct_protocol_transducer(query), policy
    ).new_run(instance)
    assert run.run_to_quiescence(scheduler=FairScheduler(index)) == query(instance)
    return weakref.ref(policy)


def test_finished_run_policy_is_collected():
    policy = finished_run(0)
    gc.collect()
    assert policy() is None


def test_retained_memory_does_not_grow_with_runs():
    def retained_after(runs: range) -> int:
        for index in runs:
            finished_run(index)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        after_10 = retained_after(range(10))
        after_50 = retained_after(range(10, 50))
    finally:
        tracemalloc.stop()
    # Through the module-level memo the 40 extra runs retained 0.8 MB;
    # now they retain nothing.
    assert after_50 - after_10 < 64 * 1024, after_50 - after_10


BUNDLES = {
    bundle.key: bundle
    for bundle in (*section4_protocols(), barrier_baseline())
    if bundle.key in ("cor46-broadcast", "thm43-distinct", "thm44-disjoint", "barrier-baseline")
}


@pytest.mark.parametrize("key", sorted(BUNDLES))
def test_a_run_leaves_no_cyclic_garbage(key):
    """Hundreds of cyclic objects per run of these small inputs, thousands
    per benchmark op, while the protocol state referenced its view."""
    bundle = BUNDLES[key]

    def run_to_quiescence():
        network = TransducerNetwork(NETWORK, bundle.transducer, bundle.policy(NETWORK))
        run = network.new_run(bundle.instance)
        assert run.run_to_quiescence(scheduler=FairScheduler(1)) == bundle.expected()

    run_to_quiescence()  # compiles the query plans outside the measurement
    gc.collect()
    gc.disable()
    try:
        run_to_quiescence()
        found = gc.collect()
    finally:
        gc.enable()
    assert found <= 8, found


def test_a_finished_cluster_run_drops_its_snapshot_memos(tmp_path):
    """Each node's journal memoizes its last snapshot's facts, keyed and
    encoded.  The memos live and die with the run's journals: dropping the
    run frees them by reference count alone, so no cycle holds them."""
    from repro.cluster import ClusterRun, DiskCheckpointStore
    from repro.cluster.checkpoint import NodeJournal
    from repro.datalog import Fact

    bundle = BUNDLES["thm43-distinct"]
    network = TransducerNetwork(NETWORK, bundle.transducer, bundle.policy(NETWORK))

    def cluster_run(directory):
        return ClusterRun(
            network, bundle.instance, checkpoints=DiskCheckpointStore(tmp_path / directory)
        )

    cluster_run("warm").run_to_quiescence()  # compiles the query plans
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run = cluster_run("run")
        assert run.run_to_quiescence() == bundle.expected()
        journals = list(run._journals.values())
        assert journals and all(journal._memo for journal in journals)
        refs = [weakref.ref(journal) for journal in journals]
        del run, journals
        assert all(ref() is None for ref in refs)
        gc.collect()
        memo_entries = [
            item for item in gc.garbage
            if type(item) is tuple and len(item) == 3 and isinstance(item[2], Fact)
        ]
        assert not any(isinstance(item, NodeJournal) for item in gc.garbage)
        assert memo_entries == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()

"""Regression: a finished run leaves nothing behind in process-wide memos.

The Mdistinct protocol memoizes its known-absence sweep across
transitions.  The memo used to be a module-level dict keyed by the run's
policy, so every finished run stayed reachable — its policy and the
policy's own memos — until 4 096 runs later.  It now lives on the policy.
"""

import gc
import tracemalloc
import weakref

from repro.datalog import Instance, parse_facts
from repro.flags import query_cache_enabled
from repro.queries import complement_tc_query
from repro.transducers import (
    FairScheduler,
    Network,
    TransducerNetwork,
    distinct_protocol_transducer,
    hash_policy,
)

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
    if query_cache_enabled():
        # The memo was used.  REPRO_DISABLE_QUERY_CACHE builds none; the
        # run must still leave nothing behind.
        assert policy.absence_memo
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
    # with the memo on the policy they retain nothing.
    assert after_50 - after_10 < 64 * 1024, after_50 - after_10

"""The carried cursor never forks from the from-scratch evaluation.

Each node's :class:`~repro.transducers.transducer.Cursor` carries the
decoded protocol state from one evaluated transition to the next.  The
oracle below re-evaluates every transition on a copy of its view with an
empty cursor — the from-scratch computation — and requires the identical
:class:`~repro.transducers.transducer.TransducerUpdate`, over the Section-4
constructions and the barrier, generated inputs, adversarial schedules,
channel faults, streamed feeds and the model checker's branch loads.
"""

from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.datalog import Fact, Instance, parse_facts
from repro.streaming import DeltaFeed
from repro.transducers import (
    CHAOS_PLAN,
    FaultyChannel,
    LocalView,
    Network,
    NodeState,
    Transducer,
    TransducerNetwork,
    make_scheduler,
    section4_protocols,
)
from repro.transducers.barrier import barrier_baseline
from repro.transducers.modelcheck import explore_runs
from repro.transducers.node import NodeCore

NETWORK = Network(["n1", "n2", "n3"])
KEYS = sorted(bundle.key for bundle in (*section4_protocols(), barrier_baseline()))


def bundle_for(key):
    return next(b for b in (*section4_protocols(), barrier_baseline()) if b.key == key)


def from_scratch(view: LocalView) -> LocalView:
    """The same database D, with an empty cursor."""
    return LocalView(
        node=view._node,
        network=view._network,
        schema=view.schema,
        policy=view._policy,
        local_input=view.local_input,
        output=view.output,
        memory=view.memory,
        delivered=view.delivered,
    )


def parts(update):
    return (update.output, update.insertions, update.deletions, update.messages)


@contextmanager
def evaluating(choose):
    """Route every evaluation through ``choose(original, transducer, view)``."""
    original = Transducer.step
    Transducer.step = lambda self, view: choose(original, self, view)
    try:
        yield
    finally:
        Transducer.step = original


@contextmanager
def no_fork_oracle():
    """Check every evaluation against the from-scratch one; yields the
    list the number of checked evaluations is appended to."""
    checked = [0]

    def both(original, transducer, view):
        carried = original(transducer, view)
        assert parts(carried) == parts(original(transducer, from_scratch(view)))
        checked[0] += 1
        return carried

    with evaluating(both):
        yield checked


values = st.integers(min_value=0, max_value=4)
facts = st.lists(
    st.one_of(
        st.builds(Fact, relation=st.just("E"), values=st.tuples(values, values)),
        st.builds(Fact, relation=st.just("Mark"), values=st.tuples(values)),
    ),
    max_size=9,
)


class TestNoFork:
    @given(
        key=st.sampled_from(KEYS),
        data=facts,
        cuts=st.lists(st.integers(min_value=0, max_value=9), max_size=2),
        schedule=st.sampled_from(["fair", "storm", "trickle", "chaos"]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_transition_matches_an_empty_cursor(
        self, key, data, cuts, schedule, seed
    ):
        """``cuts`` splits the input into a base and streamed delta batches
        (no cuts: a plain run)."""
        bounds = [0, *sorted(cuts), len(data)]
        base, *batches = [data[a:b] for a, b in zip(bounds, bounds[1:])]
        bundle = bundle_for(key)
        network = TransducerNetwork(NETWORK, bundle.transducer, bundle.policy(NETWORK))
        channel = FaultyChannel(CHAOS_PLAN, seed) if schedule == "chaos" else None
        run = network.new_run(Instance(base), channel=channel)
        scheduler = make_scheduler(schedule, seed)
        with no_fork_oracle() as checked:
            if batches:
                run.stream_to_quiescence(DeltaFeed(batches), scheduler=scheduler)
            else:
                run.run_to_quiescence(scheduler=scheduler)
        assert checked[0] > 0

    def test_bundles_on_their_witness_inputs(self):
        for key in KEYS:
            bundle = bundle_for(key)
            run = TransducerNetwork(
                NETWORK, bundle.transducer, bundle.policy(NETWORK)
            ).new_run(bundle.instance)
            with no_fork_oracle():
                output = run.run_to_quiescence(scheduler=make_scheduler("chaos", 3))
            assert output == bundle.expected(), key


TWO = Network(["a", "b"])


class TestModelCheckerBranches:
    """explore_runs loads configurations of every branch into one shared
    core per node: each load that does not continue what the cursor saw
    must reset it."""

    def test_reports_equal_the_from_scratch_exploration(self):
        instance = Instance(parse_facts("E(1,2)."))
        for key in KEYS:
            bundle = bundle_for(key)
            network = TransducerNetwork(TWO, bundle.transducer, bundle.policy(TWO))
            with no_fork_oracle():
                carried = explore_runs(network, instance, max_configurations=300)
            with evaluating(lambda original, t, view: original(t, from_scratch(view))):
                fresh = explore_runs(network, instance, max_configurations=300)
            assert carried == fresh, key

    def test_a_non_superset_branch_load_resets_the_cursor(self):
        bundle = bundle_for("thm44-disjoint")
        network = TransducerNetwork(TWO, bundle.transducer, bundle.policy(TWO))
        fragment = bundle.policy(TWO).distribute(bundle.instance)["a"]
        core = NodeCore(network, "a", fragment)
        with no_fork_oracle():
            first = core.transition(Instance())
            assert first.messages  # the casts, announcements, requests
            state = core.cursor.carried(bundle.transducer)
            # Load the configuration the first transition started from: it
            # holds everything the cursor absorbed, but not the sent_*
            # markers the cursor counted as made.
            core.state = NodeState()
            again = core.transition(Instance())
            assert core.cursor.carried(bundle.transducer) is not state
            assert again.messages == first.messages
            core.transition(Instance())  # absorbs the memory `again` wrote
            state = core.cursor.carried(bundle.transducer)
            # A branch lacking a memory fact the cursor absorbed.
            memory = sorted(core.state.memory)
            core.state = NodeState(core.state.output, Instance(memory[1:]))
            core.transition(Instance())
            assert core.cursor.carried(bundle.transducer) is not state

"""Property tests: the production engine equals the naive T_P reference on
generated semi-positive and stratified programs (ground rules and the
``max_iterations`` error included), and the Section-4 protocols are
confluent under the adversarial scheduler/channel zoo."""

import functools

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Atom,
    EvaluationError,
    Fact,
    Instance,
    Program,
    Rule,
    evaluate_stratified,
)
from repro.kernel import KernelEvaluator
from repro.queries.program_generator import GeneratorConfig, random_program
from repro.reference import naive_fixpoint
from repro.transducers import (
    CHAOS_PLAN,
    FairScheduler,
    FaultyChannel,
    Network,
    TransducerNetwork,
    chaos_scheduler_zoo,
    section4_protocols,
)

values = st.integers(min_value=0, max_value=3)
instances = st.frozensets(
    st.one_of(
        st.builds(Fact, relation=st.just("E"), values=st.tuples(values, values)),
        st.builds(Fact, relation=st.just("V"), values=st.tuples(values)),
    ),
    max_size=8,
).map(Instance)
program_seeds = st.integers(min_value=0, max_value=200)
run_seeds = st.integers(min_value=0, max_value=50)

SEMIPOSITIVE = GeneratorConfig(strata=1)
STRATIFIED = GeneratorConfig(strata=2)


def with_ground_rule(program: Program) -> Program:
    """Graft a ground (empty positive body) rule onto *program*."""
    ground = Rule(Atom("G", (0,)), pos=[], neg=[Atom("Absent", ())])
    return Program(list(program) + [ground])


class TestSemiNaiveMatchesNaive:
    @given(program_seeds, instances)
    @settings(max_examples=25, deadline=None)
    def test_random_semipositive_programs(self, seed, instance):
        program = random_program(seed, SEMIPOSITIVE)
        assert KernelEvaluator(program).run(instance) == naive_fixpoint(
            program, instance
        )

    @given(program_seeds, instances)
    @settings(max_examples=25, deadline=None)
    def test_with_injected_ground_rule(self, seed, instance):
        program = with_ground_rule(random_program(seed, SEMIPOSITIVE))
        semi = KernelEvaluator(program).run(instance)
        assert semi == naive_fixpoint(program, instance)
        assert Fact("G", (0,)) in semi  # the ground rule actually fired

    @given(program_seeds, instances)
    @settings(max_examples=20, deadline=None)
    def test_random_stratified_programs(self, seed, instance):
        program = random_program(seed, STRATIFIED)
        assert evaluate_stratified(program, instance) == naive_fixpoint(
            program, instance
        )

    @given(program_seeds, instances, st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_max_iterations_error_parity(self, seed, instance, cap):
        """Both engines count the T_P rounds that produce something new plus
        the one that detects the fixpoint, and fail with the same error."""
        program = random_program(seed, SEMIPOSITIVE)

        def outcome(evaluate):
            try:
                return evaluate(instance, max_iterations=cap)
            except EvaluationError as error:
                return str(error)

        assert outcome(KernelEvaluator(program).run) == outcome(
            functools.partial(naive_fixpoint, program)
        )


NETWORK = Network(["n1", "n2", "n3"])
BUNDLES = {bundle.key: bundle for bundle in section4_protocols()}


class TestChaosConfluence:
    """Every adversarial schedule of a Section-4 protocol converges to the
    same global output as the fair baseline — Theorems 4.3/4.4/4.5."""

    @given(run_seeds, st.sampled_from(sorted(BUNDLES)))
    @settings(max_examples=12, deadline=None)
    def test_faulted_runs_match_fair_baseline(self, seed, key):
        bundle = BUNDLES[key]
        policy = bundle.policy(NETWORK)

        def outcome(scheduler, channel=None):
            net = TransducerNetwork(NETWORK, bundle.transducer, policy)
            run = net.new_run(bundle.instance, channel=channel)
            return run.run_to_quiescence(scheduler=scheduler)

        fair = outcome(FairScheduler(seed))
        assert fair == bundle.expected()
        scheduler = chaos_scheduler_zoo(seed)[seed % 5]
        assert outcome(scheduler, FaultyChannel(CHAOS_PLAN, seed)) == fair


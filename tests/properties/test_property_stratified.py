"""Property tests: one interned database per stratified evaluation.

``StratifiedEvaluator`` interns its input once, saturates every stratum on
that one database (all strata share one symbol table) and decodes only
what it returns.  Checked against the naive ``T_P`` reference over the
generated stratified programs, each also grafted with a top stratum that
carries constants and a ground rule, over inputs that hold idb facts —
some of an output relation at the wrong arity; and checked against the
per-stratum evaluation it replaced for the ``max_iterations`` outcome.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import Atom, Fact, Instance, Program, Rule, StratifiedEvaluator
from repro.datalog.evaluation import EvaluationError, naive_fixpoint
from repro.datalog.stratification import stratify
from repro.datalog.terms import Variable
from repro.kernel import KernelEvaluator
from repro.queries.program_generator import GeneratorConfig, random_program

values = st.integers(min_value=0, max_value=3)
facts = st.one_of(
    st.builds(Fact, relation=st.just("E"), values=st.tuples(values, values)),
    st.builds(Fact, relation=st.just("V"), values=st.tuples(values)),
    # Facts over the grafted top stratum's relations: an input idb fact of
    # the right arity (it joins and is output) and one of the wrong arity
    # (it matches no atom and is never output).
    st.builds(Fact, relation=st.just("Lift"), values=st.tuples(values)),
    st.builds(Fact, relation=st.just("Lift"), values=st.tuples(values, values)),
)
instances = st.frozensets(facts, max_size=8).map(Instance)
program_seeds = st.integers(min_value=0, max_value=200)
strata_counts = st.sampled_from([2, 3])


def generated(seed: int, strata: int) -> Program:
    return random_program(seed, GeneratorConfig(strata=strata))


def with_top_stratum(program: Program) -> Program:
    """*program* plus rules above all of its strata: constants in the rules
    of a stratum >= 2 (interned when that stratum compiles, into the table
    the input is interned into), a ground rule guarded by the negation of a
    generated idb relation, and a join of the two."""
    relation = sorted(program.idb())[-1]
    arity = program.sch()[relation]
    xs = tuple(Variable(f"x{i}") for i in range(arity))
    y = Variable("y")
    top = [
        Rule(Atom("Top", (*xs, "tag")), [Atom(relation, xs)], neg=[Atom("E", (2, 2))]),
        Rule(Atom("Lift", (3,)), [], neg=[Atom(relation, (1,) * arity)]),
        Rule(Atom("Both", (y, "tag")), [Atom("Lift", (y,)), Atom("V", (y,))]),
    ]
    return Program(
        [*program, *top],
        output_relations={*program.output_relations, "Top", "Lift", "Both"},
    )


def per_stratum(program: Program, instance: Instance, max_iterations: int) -> Instance:
    """The evaluation the one-database path replaced: one kernel, one symbol
    table, one intern and one full decode per stratum."""
    current = instance
    for stage in stratify(program).strata:
        current = KernelEvaluator(stage, check_semipositive=False).run(
            current, max_iterations=max_iterations
        )
    return current


def outcome(evaluate):
    try:
        return evaluate()
    except EvaluationError as error:
        return str(error)


def assert_matches_naive(evaluator: StratifiedEvaluator, program: Program, instance: Instance):
    expected = naive_fixpoint(program, instance)
    projected = expected.restrict(program.output_schema())
    output = evaluator.output(instance)
    assert output == projected
    assert sorted(map(repr, output)) == sorted(map(repr, projected))
    assert evaluator.run(instance) == expected


class TestOneDatabaseMatchesNaive:
    @given(program_seeds, strata_counts, instances)
    @settings(max_examples=30, deadline=None)
    def test_generated_programs(self, seed, strata, instance):
        program = generated(seed, strata)
        assert_matches_naive(StratifiedEvaluator(program), program, instance)

    @given(program_seeds, strata_counts, instances)
    @settings(max_examples=30, deadline=None)
    def test_with_constants_and_ground_rule_on_top(self, seed, strata, instance):
        program = with_top_stratum(generated(seed, strata))
        assert_matches_naive(StratifiedEvaluator(program), program, instance)

    @given(program_seeds, st.lists(instances, min_size=5, max_size=5))
    @settings(max_examples=15, deadline=None)
    def test_one_evaluator_over_five_inputs(self, seed, inputs):
        """The symbol table outlives every evaluation: a reused evaluator
        answers exactly what fresh ones do, byte for byte."""
        program = with_top_stratum(generated(seed, 2))
        reused = StratifiedEvaluator(program)
        for instance in inputs:
            fresh = StratifiedEvaluator(program)
            for method in ("output", "run"):
                mine = getattr(reused, method)(instance)
                theirs = getattr(fresh, method)(instance)
                assert mine == theirs
                assert sorted(map(repr, mine)) == sorted(map(repr, theirs))
            assert_matches_naive(reused, program, instance)

    @given(program_seeds, instances, st.integers(min_value=0, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_max_iterations_outcome_unchanged(self, seed, instance, cap):
        """Every stratum is still bounded by ``max_iterations`` on its own,
        with the same error text as the per-stratum evaluation."""
        program = with_top_stratum(generated(seed, 2))
        new = outcome(lambda: StratifiedEvaluator(program).run(instance, max_iterations=cap))
        old = outcome(lambda: per_stratum(program, instance, cap))
        assert new == old
        if isinstance(new, str):
            assert new == f"fixpoint did not converge within {cap} iterations"

    def test_cap_zero_on_rows_no_rule_joins(self):
        """Input rows no stratum seeds on (another relation, another arity)
        give the shared database nothing to join; the per-stratum count
        still spent one iteration finding nothing new."""
        x, y = Variable("x"), Variable("y")
        program = Program([Rule(Atom("T", (x, y)), [Atom("E", (x, y))])])
        for instance in (
            Instance([Fact("Other", (1,))]),
            Instance([Fact("E", (1,))]),
            Instance([Fact("E", (1, 2))]),
            Instance(),
        ):
            new = outcome(lambda: StratifiedEvaluator(program).run(instance, max_iterations=0))
            assert new == outcome(lambda: per_stratum(program, instance, 0))

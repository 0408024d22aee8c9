"""Property tests over randomly generated Datalog¬ programs: the analyzer,
the fragment lattice and the component semantics hold with no hand-picking."""

from hypothesis import given, settings, strategies as st

from repro.core import Fragment, analyze, classify_fragment
from repro.datalog import (
    Instance,
    evaluate,
    evaluate_stratified,
    is_con_datalog,
    is_connected_program,
    is_semicon_datalog,
    is_stratifiable,
    stratify,
)
from repro.datalog.program import Program
from repro.queries import random_instance
from repro.queries.program_generator import GeneratorConfig, random_program

seeds = st.integers(min_value=0, max_value=300)
connected_config = GeneratorConfig(connect_rules=True, negation_probability=0.3)


class TestGeneratorSoundness:
    @given(seeds)
    @settings(max_examples=60)
    def test_generated_programs_stratifiable(self, seed):
        assert is_stratifiable(random_program(seed))

    @given(seeds)
    @settings(max_examples=60)
    def test_generated_programs_safe_and_parseable(self, seed):
        program = random_program(seed)
        # Rules validated at construction; round-trip through repr/parser:
        from repro.datalog import parse_rules

        for rule in program:
            assert parse_rules(repr(rule))[0] == rule

    @given(seeds)
    @settings(max_examples=40)
    def test_connected_config_generates_connected_rules(self, seed):
        program = random_program(seed, connected_config)
        assert is_connected_program(program)


class TestFragmentLattice:
    @given(seeds)
    @settings(max_examples=60)
    def test_fragment_implications(self, seed):
        program = random_program(seed)
        if is_con_datalog(program):
            assert is_semicon_datalog(program)
        if program.is_positive():
            assert program.is_semi_positive()
        if is_semicon_datalog(program):
            assert is_stratifiable(program)

    @given(seeds)
    @settings(max_examples=60)
    def test_analyzer_fragment_is_consistent(self, seed):
        program = random_program(seed)
        fragment = classify_fragment(program)
        assert fragment in Fragment.ORDER
        if fragment == Fragment.DATALOG:
            assert program.is_positive() and not program.uses_inequalities()
        if fragment == Fragment.SP_DATALOG:
            assert program.is_semi_positive() and not program.is_positive()
        if fragment in (Fragment.CON_DATALOG,):
            assert is_connected_program(program)

    @given(seeds)
    @settings(max_examples=40)
    def test_analysis_model_matches_class(self, seed):
        analysis = analyze(random_program(seed))
        if analysis.monotonicity == "M":
            assert analysis.coordination_class == "F0"
        if analysis.monotonicity == "Mdisjoint":
            assert analysis.model == "domain-guided"


class TestEvaluationInvariants:
    def _input_for(self, program: Program, seed: int) -> Instance:
        return random_instance(program.edb(), ["a", "b", "c", "d"], 4, seed=seed)

    @given(seeds, st.integers(min_value=0, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_rule_order_irrelevant(self, seed, shuffle_seed):
        import random as stdlib_random

        program = random_program(seed)
        instance = self._input_for(program, seed)
        baseline = evaluate_stratified(program, instance)
        rules = list(program.rules)
        stdlib_random.Random(shuffle_seed).shuffle(rules)
        shuffled = Program(
            rules,
            output_relations=program.output_relations,
            extra_edb=program.edb(),
        )
        assert evaluate_stratified(shuffled, instance) == baseline

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_genericity_of_generated_programs(self, seed):
        program = random_program(seed)
        instance = self._input_for(program, seed)
        mapping = {v: f"g_{v}" for v in instance.adom()}
        assert evaluate(program, instance).rename(mapping) == evaluate(
            program, instance.rename(mapping)
        )

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_connected_programs_distribute_over_components(self, seed):
        """Lemma 5.2 as a property over generated connected programs."""
        program = random_program(seed, connected_config)
        from repro.queries import multi_component_instance

        graph = multi_component_instance([3, 3], seed=seed)
        # Map the component instance's E facts into the program's edb schema.
        instance = Instance(f for f in graph if "E" in program.edb())
        if "V" in program.edb():
            from repro.datalog import Fact

            instance = instance | Instance(
                Fact("V", (value,)) for value in graph.adom()
            )
        whole = evaluate(program, instance)
        componentwise = Instance()
        for component in instance.components():
            componentwise = componentwise | evaluate(program, component)
        assert whole == componentwise

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_strata_monotone_growth(self, seed):
        """Each stratum only adds facts on top of the previous ones."""
        program = random_program(seed)
        instance = self._input_for(program, seed)
        from repro.kernel import KernelEvaluator

        stratification = stratify(program)
        current = instance
        for stage in stratification.strata:
            following = KernelEvaluator(stage, check_semipositive=False).run(current)
            assert current <= following
            current = following

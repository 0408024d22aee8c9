"""Property tests for the one stratifier behind Datalog¬ and ILOG¬.

Over generated programs (some with negation through recursion), the
stratum levels are contiguous, every stratum holds exactly the rules whose
head sits at its level, and ``stratify_ilog`` groups an ILOG¬ program's
rules exactly as ``stratify`` groups them over the program's Datalog image
(the same rules with the invention slot left off), or fails with the same
error.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import NotStratifiableError, Program, stratify
from repro.ilog import stratify_ilog
from repro.queries.program_generator import (
    GeneratorConfig,
    random_ilog_program,
    random_program,
)

seeds = st.integers(min_value=0, max_value=2**30)
configs = st.sampled_from(
    [
        GeneratorConfig(),
        GeneratorConfig(strata=4, relations_per_stratum=1, negation_probability=0.8),
        GeneratorConfig(strata=3, negate_same_stratum=True),
    ]
)


@given(seeds, configs)
@settings(max_examples=150, deadline=None)
def test_levels_are_contiguous_and_group_the_rules(seed, config):
    program = random_program(seed, config)
    try:
        stratification = stratify(program)
    except NotStratifiableError:
        return
    assert set(stratification.stratum_of.values()) == set(
        range(1, stratification.depth + 1)
    )
    for level, stage in enumerate(stratification.strata, start=1):
        assert stage.rules
        assert {stratification.stratum_of[r.head.relation] for r in stage} == {level}
    assert sum(len(stage) for stage in stratification.strata) == len(program)


@given(seeds, configs)
@settings(max_examples=150, deadline=None)
def test_ilog_strata_are_the_strata_of_the_datalog_image(seed, config):
    program = random_ilog_program(seed, config)
    image = Program([ilog_rule.rule for ilog_rule in program])
    try:
        expected = [list(stage) for stage in stratify(image).strata]
    except NotStratifiableError as error:
        with pytest.raises(NotStratifiableError) as ilog_error:
            stratify_ilog(program)
        assert str(ilog_error.value) == str(error)
        return
    strata = stratify_ilog(program)
    assert [[ilog_rule.rule for ilog_rule in stage] for stage in strata] == expected

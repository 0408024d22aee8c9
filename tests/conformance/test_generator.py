"""The fragment-targeted samplers: coverage and delta admissibility."""

from __future__ import annotations

import random

import pytest

from repro.conformance.generator import (
    FRAGMENT_TARGETS,
    WFS_TARGETS,
    sample_delta,
    sample_ilog_program,
    sample_instance,
    sample_program,
)
from repro.core.analyzer import analyze
from repro.monotonicity.classes import (
    AdditionKind,
    is_domain_disjoint,
    is_domain_distinct,
)

SAMPLES = 25


def _rng(salt: int) -> random.Random:
    return random.Random(0xC0FFEE + salt)


@pytest.mark.parametrize(
    "target", FRAGMENT_TARGETS + WFS_TARGETS, ids=lambda t: t.name
)
class TestFragmentTargets:
    def test_samples_stay_inside_expected_fragments(self, target):
        rng = _rng(1)
        for _ in range(SAMPLES):
            program = sample_program(rng, target)
            analysis = analyze(program)
            assert analysis.fragment in target.expected_fragments

    def test_target_fragment_is_actually_reached(self, target):
        """Each target hits its eponymous fragment (not just weaker ones)."""
        rng = _rng(2)
        observed = {
            analyze(sample_program(rng, target)).fragment
            for _ in range(SAMPLES * 2)
        }
        assert target.name in observed

    def test_programs_are_safe_and_have_outputs(self, target):
        rng = _rng(3)
        for _ in range(SAMPLES):
            program = sample_program(rng, target)
            assert program.output_relations
            assert program.edb()

    def test_instances_fit_the_edb_schema(self, target):
        rng = _rng(4)
        program = sample_program(rng, target)
        schema = program.edb()
        instance = sample_instance(rng, schema)
        for fact in instance:
            assert fact.relation in schema
            assert len(fact.values) == schema.arity(fact.relation)


def test_sampling_by_target_name_matches_target_object():
    program_by_name = sample_program(_rng(5), "datalog")
    program_by_target = sample_program(_rng(5), FRAGMENT_TARGETS[0])
    assert repr(program_by_name.rules) == repr(program_by_target.rules)


@pytest.mark.parametrize(
    "kind, admissible",
    [
        (AdditionKind.DOMAIN_DISTINCT, is_domain_distinct),
        (AdditionKind.DOMAIN_DISJOINT, is_domain_disjoint),
    ],
    ids=["distinct", "disjoint"],
)
def test_deltas_are_admissible_by_construction(kind, admissible):
    rng = _rng(6)
    program = sample_program(rng, "datalog")
    schema = program.edb()
    base = sample_instance(rng, schema)
    for _ in range(SAMPLES):
        delta = sample_delta(rng, base, schema, kind)
        assert admissible(delta, base)


def test_any_deltas_fit_the_schema():
    rng = _rng(7)
    program = sample_program(rng, "datalog")
    schema = program.edb()
    base = sample_instance(rng, schema)
    delta = sample_delta(rng, base, schema, AdditionKind.ANY)
    for fact in delta:
        assert fact.relation in schema


def test_ilog_programs_parse_and_invent():
    rng = _rng(8)
    saw_invention = False
    for _ in range(SAMPLES):
        program = sample_ilog_program(rng)
        assert program.output_relations
        saw_invention = saw_invention or bool(program.invention_relations)
    assert saw_invention

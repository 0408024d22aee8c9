"""Metamorphic oracles vs the paper's class structure (Theorem 3.1).

The boundary tests work the way the paper's proofs do: *positive* evidence
is a counterexample search that comes up empty over a searched pair family
of the guaranteed kind, and *negative* evidence is an explicit witness pair
the checker confirms — no expected outputs are hardcoded anywhere.
"""

from __future__ import annotations

import random

import pytest

from repro.conformance.generator import (
    FRAGMENT_TARGETS,
    sample_instance,
    sample_program,
)
from repro.conformance.metamorphic import MetamorphicViolation, check_metamorphic
from repro.core.analyzer import analyze, query_for
from repro.datalog import parse_program
from repro.monotonicity.checker import check_monotonicity, random_pairs
from repro.monotonicity.classes import AdditionKind, MonotonicityClass
from repro.monotonicity.witnesses import (
    theorem31_witnesses,
    witness_cotc_not_distinct,
    witness_triangles_not_disjoint,
)

TC = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- T(x, y), E(y, z).
    O(x, y) :- T(x, y).
    """
)
UNREACHABLE = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- T(x, y), E(y, z).
    O(x) :- V(x), not H(x).
    H(x) :- T(s, x), S(s).
    """
)


def _rng(salt: int) -> random.Random:
    return random.Random(0xFEED + salt)


def test_kind_map_covers_exactly_the_guaranteed_classes():
    kinds = {klass.value: klass.addition_kind for klass in MonotonicityClass}
    assert kinds == {
        "M": AdditionKind.ANY,
        "Mdistinct": AdditionKind.DOMAIN_DISTINCT,
        "Mdisjoint": AdditionKind.DOMAIN_DISJOINT,
        "C": None,  # no condition: every query belongs, nothing to sample
    }


@pytest.mark.parametrize("program", [TC, UNREACHABLE], ids=["tc", "unreachable"])
def test_guaranteed_classes_hold_on_random_deltas(program):
    """Positive side: the fragment's guarantee survives many random deltas."""
    analysis = analyze(program)
    assert analysis.monotonicity is not None
    rng = _rng(1)
    for _ in range(20):
        instance = sample_instance(rng, program.edb())
        assert check_metamorphic(program, instance, rng, deltas=3) is None


def test_guarantee_cross_checked_against_searched_pair_family():
    """The same positive claim, derived through the checker's own search."""
    for program in (TC, UNREACHABLE):
        analysis = analyze(program)
        kind = MonotonicityClass(analysis.monotonicity).addition_kind
        verdict = check_monotonicity(
            query_for(program),
            kind,
            random_pairs(program.edb(), kind, count=40, seed=9),
        )
        assert verdict.holds
        assert verdict.pairs_checked > 0


@pytest.mark.parametrize(
    "witness_factory, weaker_kind",
    [
        (witness_cotc_not_distinct, AdditionKind.DOMAIN_DISJOINT),
        (witness_triangles_not_disjoint, None),
    ],
    ids=["cotc", "triangles"],
)
def test_theorem31_boundaries(witness_factory, weaker_kind):
    """Negative side: each witness refutes exactly its claimed class, and
    (where the paper places the query strictly between classes) the next
    weaker condition still survives a search."""
    witness = witness_factory()
    refuted = check_monotonicity(
        witness.query, witness.kind, [(witness.base, witness.addition)]
    )
    assert not refuted.holds
    assert refuted.violation is not None
    if weaker_kind is not None:
        survived = check_monotonicity(
            witness.query,
            weaker_kind,
            random_pairs(
                witness.query.input_schema, weaker_kind, count=40, seed=13
            ),
        )
        assert survived.holds


def test_all_theorem31_witnesses_verify():
    for witness in theorem31_witnesses(max_i=2):
        assert witness.verify(), witness.describe()


def test_no_violations_across_the_sampled_fragment_zoo():
    """The fuzz oracle itself: generated programs never break their class."""
    rng = _rng(2)
    for target in FRAGMENT_TARGETS:
        for _ in range(5):
            program = sample_program(rng, target)
            instance = sample_instance(rng, program.edb())
            violation = check_metamorphic(program, instance, rng)
            assert violation is None, violation.describe()


def test_violation_record_is_json_ready():
    violation = MetamorphicViolation(
        program_text="O(x) :- E(x, y).",
        output_relations=("O",),
        fragment="datalog",
        monotonicity="M",
        kind="any",
        base_text="E(1, 2).",
        delta_text="E(2, 3).",
        lost_text="O(1).",
    )
    record = violation.to_dict()
    assert record["fragment"] == "datalog"
    assert "guarantees M" in violation.describe()
    assert "O(1)" in violation.describe()

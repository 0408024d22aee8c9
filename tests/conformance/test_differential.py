"""The differential engine: agreement, planted bugs, crash capture."""

from __future__ import annotations

import pytest

from repro.conformance.differential import (
    MUTATIONS,
    DifferentialCase,
    run_case,
)
from repro.conformance.stacks import EvaluationStack, StackContext
from repro.datalog import Instance, parse_facts, parse_program

NEQ_PROGRAM = parse_program("O(x) :- E(x, y), x != y.")
# E(1,1) only matches when the x != y filter is (wrongly) dropped.
NEQ_FACTS = Instance(parse_facts("E(1, 1). E(2, 3)."))


def _case(program, facts, **knobs) -> DifferentialCase:
    return DifferentialCase(
        program=program, instance=facts, context=StackContext(**knobs)
    )


def test_all_stacks_agree_on_a_clean_case(tc_program, chain_graph):
    verdict = run_case(_case(tc_program, chain_graph))
    assert verdict.passed
    assert len(verdict.outcomes) == 4
    assert len({o.fingerprint for o in verdict.outcomes}) == 1
    assert all(o.error is None for o in verdict.outcomes)


def test_planted_inequality_bug_diverges():
    verdict = run_case(
        _case(NEQ_PROGRAM, NEQ_FACTS),
        mutate={"kernel": "strip-inequalities"},
    )
    assert not verdict.passed
    assert [o.stack for o in verdict.divergences] == ["kernel"]
    # The mutated stack over-derives: it also keeps the E(1,1) match.
    (diverged,) = verdict.divergences
    assert diverged.output_facts > verdict.baseline.output_facts


def test_planted_negation_bug_diverges(cotc_program):
    facts = Instance(parse_facts("E(1, 2). Adom(1). Adom(2). Adom(3)."))
    verdict = run_case(
        _case(cotc_program, facts),
        mutate={"sync-run": "strip-negation"},
    )
    assert not verdict.passed
    assert [o.stack for o in verdict.divergences] == ["sync-run"]


def test_planted_wfs_bug_diverges_and_spares_stratified_programs(cotc_program):
    """Γ(∅) passed off as the model: 1 -> 2 <-> 3 has no winner (2 and 3
    draw, 1 only reaches a drawn position), the over-approximation has
    three."""
    from repro.datalog import winmove_program

    game = Instance(parse_facts("Move(1, 2). Move(2, 3). Move(3, 2)."))
    verdict = run_case(
        _case(winmove_program(), game),
        mutate={"kernel": "wfs-over-approximation"},
    )
    assert [o.stack for o in verdict.divergences] == ["kernel"]
    assert verdict.baseline.output_facts == 0
    assert verdict.divergences[0].output_facts == 3
    assert run_case(_case(winmove_program(), game)).passed
    # Stratified programs never reach the well-founded evaluator.
    assert MUTATIONS["wfs-over-approximation"](cotc_program) is cotc_program


def test_mutations_preserve_schema_and_outputs():
    for transform in MUTATIONS.values():
        mutated = transform(NEQ_PROGRAM)
        assert mutated.output_relations == NEQ_PROGRAM.output_relations
        assert set(mutated.edb()) == set(NEQ_PROGRAM.edb())


class _BoomStack(EvaluationStack):
    name = "boom"

    def evaluate(self, program, instance, context):
        raise RuntimeError("engine exploded")


def test_stack_crash_is_a_divergence_not_an_exception(tc_program, chain_graph):
    from repro.conformance.stacks import build_stacks

    stacks = (*build_stacks(("naive",)), _BoomStack())
    verdict = run_case(_case(tc_program, chain_graph), stacks=stacks)
    assert not verdict.passed
    (diverged,) = verdict.divergences
    assert diverged.stack == "boom"
    assert "engine exploded" in diverged.error


def test_provenance_is_replayable(tc_program, chain_graph):
    verdict = run_case(_case(tc_program, chain_graph, seed=5, scheduler="storm"))
    record = verdict.provenance()
    assert record["passed"] is True
    assert record["context"]["scheduler"] == "storm"
    reparsed = parse_program(record["program"])
    assert len(reparsed.rules) == len(tc_program.rules)
    assert Instance(parse_facts(record["facts"])) == chain_graph
    assert {o["stack"] for o in record["outcomes"]} == {
        "naive", "kernel", "sync-run", "cluster",
    }


def test_stack_subset_by_name():
    verdict = run_case(
        _case(NEQ_PROGRAM, NEQ_FACTS), stacks=("naive", "kernel")
    )
    assert verdict.passed
    assert [o.stack for o in verdict.outcomes] == ["naive", "kernel"]

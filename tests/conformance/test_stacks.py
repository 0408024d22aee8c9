"""Every evaluation stack computes the same Q(I) as the query semantics."""

from __future__ import annotations

import pytest

from repro.conformance.stacks import (
    DEFAULT_STACK_NAMES,
    StackContext,
    build_stacks,
)
from repro.core.analyzer import query_for


def _expected(program, instance):
    return query_for(program)(instance.restrict(program.edb()))


@pytest.mark.parametrize("name", DEFAULT_STACK_NAMES)
class TestStacksAgreeWithQuerySemantics:
    def test_positive_recursion(self, name, tc_program, chain_graph):
        (stack,) = build_stacks((name,))
        result = stack.evaluate(tc_program, chain_graph, StackContext())
        assert result == _expected(tc_program, chain_graph)

    def test_semipositive_negation(self, name, cotc_program, chain_graph):
        (stack,) = build_stacks((name,))
        result = stack.evaluate(cotc_program, chain_graph, StackContext())
        assert result == _expected(cotc_program, chain_graph)


def test_sync_run_under_chaos_and_every_scheduler(tc_program, chain_graph):
    (stack,) = build_stacks(("sync-run",))
    expected = _expected(tc_program, chain_graph)
    for scheduler in ("fair", "trickle", "storm"):
        context = StackContext(seed=7, scheduler=scheduler, chaos=True)
        assert stack.evaluate(tc_program, chain_graph, context) == expected


def test_cluster_with_chaos_and_crash_schedule(tc_program, chain_graph):
    (stack,) = build_stacks(("cluster",))
    expected = _expected(tc_program, chain_graph)
    context = StackContext(seed=11, chaos=True, crash=True)
    assert stack.evaluate(tc_program, chain_graph, context) == expected


def test_build_stacks_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown stack"):
        build_stacks(("naive", "nonesuch"))


def test_context_roundtrips_through_dict():
    context = StackContext(
        seed=3, nodes=("a", "b"), scheduler="storm", chaos=True,
        transport="tcp", crash=True,
    )
    assert StackContext.from_dict(context.to_dict()) == context

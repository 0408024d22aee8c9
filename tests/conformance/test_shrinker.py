"""The shrinker: failure-preserving, 1-minimal, domain-canonical."""

from __future__ import annotations

from repro.conformance.differential import DifferentialCase, run_case
from repro.conformance.shrinker import default_failure_predicate, shrink_case
from repro.conformance.stacks import StackContext
from repro.datalog import Instance, parse_facts, parse_program

# The inequality rule is load-bearing under the planted bug; everything
# else (the P chain, the extra E/V facts) is noise the shrinker must drop.
NOISY_PROGRAM = parse_program(
    """
    O(x) :- E(x, y), x != y.
    P(x, y) :- E(x, y), V(x).
    P(x, z) :- P(x, y), E(y, z).
    """
)
# q only has the self-loop, so O(q) exists exactly under the planted bug.
NOISY_FACTS = Instance(
    parse_facts("E('q', 'q'). E('r', 's'). E('s', 't'). V('r'). V('q').")
)
MUTATE = {"kernel": "strip-inequalities"}
STACKS = ("naive", "kernel")


def _case() -> DifferentialCase:
    return DifferentialCase(
        program=NOISY_PROGRAM, instance=NOISY_FACTS, context=StackContext()
    )


def test_shrunk_case_still_fails_and_is_smaller():
    failing = default_failure_predicate(stacks=STACKS, mutate=MUTATE)
    assert failing(_case())
    shrunk = shrink_case(_case(), failing)
    assert failing(shrunk)
    assert len(shrunk.program.rules) < len(NOISY_PROGRAM.rules)
    assert len(shrunk.instance) < len(NOISY_FACTS)


def test_shrunk_case_is_one_minimal():
    failing = default_failure_predicate(stacks=STACKS, mutate=MUTATE)
    shrunk = shrink_case(_case(), failing)
    # The self-loop E(c, c) under the single inequality rule is the whole
    # story: one rule, one fact.
    assert len(shrunk.program.rules) == 1
    assert len(shrunk.instance) == 1
    for fact in shrunk.instance:
        smaller = DifferentialCase(
            program=shrunk.program,
            instance=Instance(f for f in shrunk.instance if f != fact),
            context=shrunk.context,
        )
        assert not failing(smaller)


def test_domain_is_canonicalized():
    failing = default_failure_predicate(stacks=STACKS, mutate=MUTATE)
    shrunk = shrink_case(_case(), failing)
    assert shrunk.instance.adom() <= {f"c{i}" for i in range(5)}


def test_shrinker_is_identity_on_passing_predicates():
    never_fails = lambda case: False  # noqa: E731
    case = _case()
    assert shrink_case(case, never_fails) is case


def test_shrunk_case_replays_identically():
    failing = default_failure_predicate(stacks=STACKS, mutate=MUTATE)
    shrunk = shrink_case(_case(), failing)
    verdict = run_case(shrunk, stacks=STACKS, mutate=MUTATE)
    assert not verdict.passed
    clean = run_case(shrunk, stacks=STACKS)
    assert clean.passed

"""Fragment-targeted sampling of programs, instances and deltas.

The fuzzer does not want one distribution of programs — it wants coverage
of the paper's fragment zoo (Figure 2 left column), because each fragment
exercises a different engine path: positive programs take the broadcast
protocol, SP-Datalog the absence protocol, semicon-Datalog¬ the
domain-guided handshake, general stratified programs the coordinating
barrier fallback, and non-stratifiable programs the well-founded
evaluator.  Each target below is a :class:`GeneratorConfig` biased
toward one fragment; sampling is best-effort (a "semicon" draw may come out
connected or even semi-positive), so callers that care about the *actual*
fragment classify the sample with :func:`repro.core.analyzer.analyze`.

Deltas reuse the monotonicity generators: domain-distinct and
domain-disjoint additions are built *by construction* (Section 3.1), which
is what makes the metamorphic oracles of Lemma 3.2 executable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..datalog.instance import Instance
from ..datalog.program import Program
from ..datalog.schema import Schema
from ..monotonicity.classes import AdditionKind
from ..queries.generators import (
    random_domain_disjoint_addition,
    random_domain_distinct_addition,
    random_instance,
)
from ..queries.program_generator import (
    GeneratorConfig,
    random_ilog_program,
    random_program,
)

__all__ = [
    "FRAGMENT_TARGETS",
    "WFS_TARGETS",
    "FragmentTarget",
    "sample_program",
    "sample_ilog_program",
    "sample_instance",
    "sample_delta",
]


@dataclass(frozen=True)
class FragmentTarget:
    """A named sampling target: the config biased toward one fragment."""

    name: str
    config: GeneratorConfig
    #: Fragments this target is *expected* to land in (a sanity check used
    #: by the generator tests; the fuzzer itself re-classifies samples).
    expected_fragments: tuple[str, ...]


#: The sampled fragment zoo.  Small shapes keep a single differential case
#: in the low milliseconds; the fuzzer's value is in the number of cases,
#: not their size.
FRAGMENT_TARGETS: tuple[FragmentTarget, ...] = (
    FragmentTarget(
        name="datalog",
        config=GeneratorConfig(
            strata=1,
            negation_probability=0.0,
            inequality_probability=0.0,
        ),
        expected_fragments=("datalog",),
    ),
    FragmentTarget(
        name="datalog-neq",
        config=GeneratorConfig(
            strata=1,
            negation_probability=0.0,
            inequality_probability=0.9,
        ),
        expected_fragments=("datalog", "datalog-neq"),
    ),
    FragmentTarget(
        name="sp-datalog",
        config=GeneratorConfig(
            strata=1,
            negation_probability=0.8,
            inequality_probability=0.2,
        ),
        expected_fragments=("datalog", "datalog-neq", "sp-datalog"),
    ),
    FragmentTarget(
        name="con-datalog",
        config=GeneratorConfig(
            strata=2,
            negation_probability=0.6,
            connect_rules=True,
        ),
        expected_fragments=(
            "datalog",
            "datalog-neq",
            "sp-datalog",
            "con-datalog",
        ),
    ),
    FragmentTarget(
        name="semicon-datalog",
        config=GeneratorConfig(
            strata=2,
            negation_probability=0.6,
            connect_rules=True,
            connect_last_stratum=False,
        ),
        expected_fragments=(
            "datalog",
            "datalog-neq",
            "sp-datalog",
            "con-datalog",
            "semicon-datalog",
        ),
    ),
    FragmentTarget(
        name="stratified",
        config=GeneratorConfig(
            strata=3,
            negation_probability=0.5,
            inequality_probability=0.3,
        ),
        expected_fragments=(
            "datalog",
            "datalog-neq",
            "sp-datalog",
            "con-datalog",
            "semicon-datalog",
            "stratified",
        ),
    ),
)

#: Negation through recursion: outside stratified Datalog¬, evaluated under
#: the well-founded semantics (win-move is the one-rule member).  Connected
#: samples take the domain-guided protocol (Section 7 remark), the rest the
#: barrier; both pit the naive Γ of the ``naive`` stack against the
#: kernel's alternating fixpoint.  Kept out of :data:`FRAGMENT_TARGETS` so
#: the fuzzer's round-robin over the Figure 2 zoo — and with it every
#: fixed-seed case sequence — is unchanged; the fuzz loop samples these on a
#: side stream.
WFS_TARGETS: tuple[FragmentTarget, ...] = (
    FragmentTarget(
        name="wfs-connected",
        config=GeneratorConfig(
            strata=1,
            negation_probability=0.8,
            connect_rules=True,
            negate_same_stratum=True,
        ),
        expected_fragments=(
            "datalog",
            "datalog-neq",
            "sp-datalog",
            "con-datalog",
            "wfs-connected",
        ),
    ),
    FragmentTarget(
        name="wfs",
        config=GeneratorConfig(
            strata=2,
            negation_probability=0.8,
            inequality_probability=0.3,
            negate_same_stratum=True,
        ),
        expected_fragments=(
            "datalog",
            "datalog-neq",
            "sp-datalog",
            "con-datalog",
            "semicon-datalog",
            "stratified",
            "wfs-connected",
            "wfs",
        ),
    ),
)

_TARGETS_BY_NAME = {
    target.name: target for target in FRAGMENT_TARGETS + WFS_TARGETS
}


def sample_program(rng: random.Random, target: str | FragmentTarget) -> Program:
    """One program drawn from *target*'s configuration."""
    if isinstance(target, str):
        target = _TARGETS_BY_NAME[target]
    return random_program(rng.randrange(1 << 30), target.config)


def sample_ilog_program(rng: random.Random):
    """One weakly-safe wILOG¬ program (see :func:`random_ilog_program`)."""
    config = GeneratorConfig(strata=1, negation_probability=0.4)
    return random_ilog_program(rng.randrange(1 << 30), config)


def sample_instance(
    rng: random.Random,
    schema: Schema,
    *,
    max_facts_per_relation: int = 4,
    domain_size: int = 5,
) -> Instance:
    """A small random instance over *schema* (the program's edb)."""
    domain = [f"a{i}" for i in range(domain_size)]
    return random_instance(
        schema,
        domain,
        rng.randrange(1, max_facts_per_relation + 1),
        seed=rng.randrange(1 << 30),
    )


def sample_delta(
    rng: random.Random,
    base: Instance,
    schema: Schema,
    kind: AdditionKind,
    *,
    max_facts: int = 3,
) -> Instance:
    """A random addition J of the requested *kind* with respect to *base*."""
    size = rng.randrange(1, max_facts + 1)
    seed = rng.randrange(1 << 30)
    if kind is AdditionKind.DOMAIN_DISJOINT:
        return random_domain_disjoint_addition(base, schema, size, seed=seed)
    if kind is AdditionKind.DOMAIN_DISTINCT:
        return random_domain_distinct_addition(base, schema, size, seed=seed)
    domain = sorted(base.adom(), key=repr) + [f"x{i}" for i in range(2)]
    return random_instance(schema, domain, size, seed=seed)

"""Stratified evaluation of ILOG¬ programs over the Herbrand universe.

Valuations are computed exactly as for Datalog¬ (the join machinery of
:mod:`repro.datalog.evaluation` is reused); an inventing rule's head fact is
completed with the Skolem term ``f_R(V(u1), ..., V(uk))`` in its first
position.  Since Skolem terms are hashable values, invented facts flow
through subsequent rules like ordinary facts.

Value invention can make the fixpoint infinite (Cabibbo: the program's
output is then *undefined*).  The evaluator guards with a fact budget and a
Skolem-depth budget and raises :class:`DivergenceError` when either is
exceeded.
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.evaluation import FactIndex, match_rule
from ..datalog.instance import Instance
from ..datalog.stratification import (
    NotStratifiableError,
    PrecedenceGraph,
    _strongly_connected_components,
)
from ..datalog.terms import Fact
from .program import ILOGProgram, ILOGRule, skolem_functor_name
from .terms import SkolemTerm, term_depth

__all__ = [
    "DivergenceError",
    "ilog_precedence_graph",
    "stratify_ilog",
    "evaluate_ilog",
    "ilog_query_output",
]


class DivergenceError(RuntimeError):
    """The fixpoint would be infinite: the program's output is undefined."""


def ilog_precedence_graph(program: ILOGProgram) -> PrecedenceGraph:
    """The idb-restricted precedence graph of an ILOG¬ program."""
    idb = set(program.idb())
    positive: dict[str, set[str]] = {}
    negative: dict[str, set[str]] = {}
    for ilog_rule in program:
        head = ilog_rule.head_relation
        for atom in ilog_rule.rule.pos:
            if atom.relation in idb:
                positive.setdefault(atom.relation, set()).add(head)
        for atom in ilog_rule.rule.neg:
            if atom.relation in idb:
                negative.setdefault(atom.relation, set()).add(head)
    return PrecedenceGraph(
        nodes=frozenset(idb),
        positive={k: frozenset(v) for k, v in positive.items()},
        negative={k: frozenset(v) for k, v in negative.items()},
    )


def stratify_ilog(program: ILOGProgram) -> list[list[ILOGRule]]:
    """Group the rules of *program* into strata (same algorithm as for
    Datalog¬; raises :class:`NotStratifiableError` on recursion through
    negation)."""
    graph = ilog_precedence_graph(program)
    successors = {node: set(graph.successors(node)) for node in graph.nodes}
    components = _strongly_connected_components(sorted(graph.nodes), successors)
    component_of: dict[str, int] = {}
    for number, members in enumerate(components):
        for member in members:
            component_of[member] = number
    for source, target, is_negative in graph.edges():
        if is_negative and component_of[source] == component_of[target]:
            raise NotStratifiableError(
                f"recursion through negation between {source} and {target}"
            )
    level = {number: 1 for number in range(len(components))}
    for component in list(range(len(components)))[::-1]:
        for member in components[component]:
            for target in graph.positive.get(member, ()):
                tc = component_of[target]
                if tc != component:
                    level[tc] = max(level[tc], level[component])
            for target in graph.negative.get(member, ()):
                tc = component_of[target]
                level[tc] = max(level[tc], level[component] + 1)
    stratum_of = {node: level[component_of[node]] for node in graph.nodes}
    depth = max(stratum_of.values(), default=1)
    buckets: list[list[ILOGRule]] = [[] for _ in range(depth)]
    for ilog_rule in program:
        buckets[stratum_of[ilog_rule.head_relation] - 1].append(ilog_rule)
    return [bucket for bucket in buckets if bucket]


def _derive(ilog_rule: ILOGRule, valuation) -> Fact:
    """The head fact for one satisfying valuation, invention included."""
    base = ilog_rule.rule.head.apply(valuation)
    if not ilog_rule.invents:
        return base
    skolem = SkolemTerm(skolem_functor_name(base.relation), base.values)
    return Fact(base.relation, (skolem,) + base.values)


def _fixpoint(
    rules: Iterable[ILOGRule],
    index: FactIndex,
    *,
    max_facts: int,
    max_depth: int,
) -> None:
    """Naive fixpoint of one stratum, in place on *index*.

    Negation within a stratum refers only to lower strata (stratification
    guarantees it), whose facts are already frozen inside *index*; the naive
    loop therefore converges — or trips a divergence guard.
    """
    rules = list(rules)
    changed = True
    while changed:
        changed = False
        derived: list[Fact] = []
        for ilog_rule in rules:
            for valuation in match_rule(ilog_rule.rule, index):
                fact = _derive(ilog_rule, valuation)
                if any(term_depth(v) > max_depth for v in fact.values):
                    raise DivergenceError(
                        f"Skolem nesting exceeded depth {max_depth} in "
                        f"relation {fact.relation}: output undefined"
                    )
                derived.append(fact)
        for fact in derived:
            if index.add(fact):
                changed = True
                if len(index) > max_facts:
                    raise DivergenceError(
                        f"fixpoint exceeded {max_facts} facts: output undefined"
                    )


def evaluate_ilog(
    program: ILOGProgram,
    instance: Instance,
    *,
    max_facts: int = 100_000,
    max_depth: int = 8,
) -> Instance:
    """The full output P(I) of an ILOG¬ program (all relations).

    Raises :class:`DivergenceError` when the fixpoint would be infinite and
    :class:`NotStratifiableError` for recursion through negation.
    """
    index = FactIndex(instance)
    for stratum in stratify_ilog(program):
        _fixpoint(stratum, index, max_facts=max_facts, max_depth=max_depth)
    return index.to_instance()


def ilog_query_output(
    program: ILOGProgram,
    instance: Instance,
    *,
    max_facts: int = 100_000,
    max_depth: int = 8,
) -> Instance:
    """The designated output relations of P(I), projected per Section 2."""
    result = evaluate_ilog(
        program, instance, max_facts=max_facts, max_depth=max_depth
    )
    return result.restrict(program.output_schema())

"""Stratified evaluation of ILOG¬ programs over the Herbrand universe.

Valuations are computed exactly as for Datalog¬ (the naive join of
:mod:`repro.reference.datalog` is reused); an inventing rule's head fact is
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

from ..datalog.instance import Instance
from ..datalog.stratification import PrecedenceGraph, _graph, _levels
from ..datalog.terms import Fact
from ..reference.datalog import FactIndex, match_rule
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
    return _graph((ilog_rule.rule for ilog_rule in program), program.idb())


def stratify_ilog(program: ILOGProgram) -> list[list[ILOGRule]]:
    """Group the rules of *program* into strata (same algorithm as for
    Datalog¬; raises :class:`NotStratifiableError` on recursion through
    negation)."""
    stratum_of = _levels(ilog_precedence_graph(program))
    buckets: list[list[ILOGRule]] = [[] for _ in range(max(stratum_of.values()))]
    for ilog_rule in program:
        buckets[stratum_of[ilog_rule.head_relation] - 1].append(ilog_rule)
    return buckets


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

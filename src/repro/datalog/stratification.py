"""Syntactic stratification of Datalog¬ programs (Section 2 of the paper).

A program P is syntactically stratifiable when there is a stratum-number
assignment ``rho : idb(P) -> {1..|idb(P)|}`` such that for every rule with
head predicate T:

* ``rho(R) <= rho(T)`` for every idb relation R occurring positively, and
* ``rho(R) <  rho(T)`` for every idb relation R occurring negatively.

Equivalently: the *precedence graph* on idb predicates (positive and negative
edges) has no cycle through a negative edge.  We compute the canonical
minimal stratification by longest-negative-path over the condensation of the
precedence graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .program import Program
from .rules import Rule

__all__ = [
    "PrecedenceGraph",
    "Stratification",
    "NotStratifiableError",
    "precedence_graph",
    "stratify",
    "is_stratifiable",
]


class NotStratifiableError(ValueError):
    """Raised for programs with recursion through negation."""


@dataclass(frozen=True)
class PrecedenceGraph:
    """The predicate dependency graph of a program, restricted to idb nodes.

    ``positive`` and ``negative`` map a body predicate R to the set of head
    predicates T of rules in which R occurs positively / negatively (i.e.
    edges point from the dependency to the dependent head).
    """

    nodes: frozenset[str]
    positive: dict[str, frozenset[str]]
    negative: dict[str, frozenset[str]]

    def successors(self, node: str) -> frozenset[str]:
        return self.positive.get(node, frozenset()) | self.negative.get(
            node, frozenset()
        )

    def edges(self) -> Iterator[tuple[str, str, bool]]:
        """Yield ``(source, target, is_negative)`` triples."""
        for source, targets in self.positive.items():
            for target in targets:
                yield source, target, False
        for source, targets in self.negative.items():
            for target in targets:
                yield source, target, True


def precedence_graph(program: Program) -> PrecedenceGraph:
    """Build the idb-restricted precedence graph of *program*."""
    return _graph(program, program.idb())


def _graph(rules: Iterable[Rule], idb: Iterable[str]) -> PrecedenceGraph:
    """The precedence graph of *rules* restricted to the *idb* nodes."""
    idb = set(idb)
    positive: dict[str, set[str]] = {}
    negative: dict[str, set[str]] = {}
    for rule in rules:
        head = rule.head.relation
        for atom in rule.pos:
            if atom.relation in idb:
                positive.setdefault(atom.relation, set()).add(head)
        for atom in rule.neg:
            if atom.relation in idb:
                negative.setdefault(atom.relation, set()).add(head)
    return PrecedenceGraph(
        nodes=frozenset(idb),
        positive={k: frozenset(v) for k, v in positive.items()},
        negative={k: frozenset(v) for k, v in negative.items()},
    )


def _strongly_connected_components(
    nodes: Iterable[str], successors: dict[str, set[str]]
) -> list[list[str]]:
    """Tarjan's algorithm, iterative to avoid recursion limits."""
    index_counter = 0
    indices: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    for start in nodes:
        if start in indices:
            continue
        work: list[tuple[str, Iterator[str]]] = [(start, iter(successors.get(start, ())))]
        indices[start] = lowlink[start] = index_counter
        index_counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in indices:
                    indices[succ] = lowlink[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


@dataclass(frozen=True)
class Stratification:
    """A stratification of a program.

    ``stratum_of`` maps each idb predicate to its 1-based stratum number;
    ``strata`` is the induced sequence of semi-positive subprograms
    P1, ..., Pk (rules grouped by head stratum).
    """

    program: Program
    stratum_of: dict[str, int]
    strata: tuple[Program, ...]

    @property
    def depth(self) -> int:
        return len(self.strata)

    def stratum_rules(self, level: int) -> tuple[Rule, ...]:
        """Rules of the 1-based *level* (conveniently re-exposed)."""
        return self.strata[level - 1].rules

    def last_stratum_heads(self) -> frozenset[str]:
        top = self.depth
        return frozenset(
            name for name, level in self.stratum_of.items() if level == top
        )


def _levels(graph: PrecedenceGraph) -> dict[str, int]:
    """The minimal stratum of every node of *graph*, numbered from 1.

    Raises :class:`NotStratifiableError` when the graph has a cycle through
    a negative edge.  The levels are contiguous: a component's level is 1,
    the level of a predecessor, or that level + 1, so every level from 1
    to the deepest is occupied.
    """
    successors: dict[str, set[str]] = {
        node: set(graph.successors(node)) for node in graph.nodes
    }
    components = _strongly_connected_components(sorted(graph.nodes), successors)
    component_of: dict[str, int] = {}
    for number, members in enumerate(components):
        for member in members:
            component_of[member] = number

    # A negative edge inside one SCC = recursion through negation.
    for source, target, is_negative in graph.edges():
        if is_negative and component_of[source] == component_of[target]:
            raise NotStratifiableError(
                f"recursion through negation between {source} and {target}"
            )

    # Longest path over the condensation, counting negative edges.  Tarjan
    # emits SCCs in reverse topological order (successors finish first), so
    # levels propagate forward over the reversed emission order.
    level: dict[int, int] = {number: 1 for number in range(len(components))}
    for component in reversed(range(len(components))):
        for member in components[component]:
            for target in graph.positive.get(member, ()):  # rho(R) <= rho(T)
                tc = component_of[target]
                if tc != component:
                    level[tc] = max(level[tc], level[component])
            for target in graph.negative.get(member, ()):  # rho(R) < rho(T)
                tc = component_of[target]
                level[tc] = max(level[tc], level[component] + 1)
    return {node: level[component_of[node]] for node in graph.nodes}


def stratify(program: Program) -> Stratification:
    """Compute the canonical minimal stratification of *program*.

    Raises :class:`NotStratifiableError` when the precedence graph has a
    cycle through a negative edge.
    """
    stratum_of = _levels(precedence_graph(program))
    buckets: list[list[Rule]] = [[] for _ in range(max(stratum_of.values()))]
    for rule in program:
        buckets[stratum_of[rule.head.relation] - 1].append(rule)
    strata = tuple(Program(bucket, output_relations=None) for bucket in buckets)
    return Stratification(program=program, stratum_of=stratum_of, strata=strata)


def is_stratifiable(program: Program) -> bool:
    """True when *program* admits a syntactic stratification."""
    try:
        stratify(program)
    except NotStratifiableError:
        return False
    return True

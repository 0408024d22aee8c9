"""The paper's witness queries over directed graphs (binary relation ``E``).

These are exactly the separating examples used in the proof of Theorem 3.1
plus the standard graph queries referenced throughout:

* :func:`transitive_closure_query` — TC (monotone, in Datalog);
* :func:`complement_tc_query` — Q_TC, the complement of the transitive
  closure (in Mdisjoint \\ Mdistinct);
* :func:`clique_query` — Q^k_clique: the edge relation unless an undirected
  k-clique exists (separates the bounded distinct classes);
* :func:`star_query` — Q^k_star: the edge relation unless a star with k
  spokes exists (separates the bounded disjoint classes);
* :func:`triangle_unless_two_disjoint_query` — all triangles unless two
  vertex-disjoint triangles exist (in C \\ Mdisjoint);
* :func:`win_move_query` — the win-move query under well-founded semantics
  (non-monotone, in Mdisjoint — the headline example of [32]).
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable

from ..datalog.instance import Instance
from ..datalog.schema import Schema
from ..datalog.terms import Fact
from ..datalog.wellfounded import WellFoundedEvaluator, winmove_program
from .base import FunctionQuery, Query

__all__ = [
    "EDGE_SCHEMA",
    "OUTPUT_EDGE_SCHEMA",
    "edges_of",
    "undirected_adjacency",
    "has_clique",
    "max_star_spokes",
    "triangles",
    "transitive_closure_query",
    "complement_tc_query",
    "clique_query",
    "star_query",
    "triangle_unless_two_disjoint_query",
    "win_move_query",
    "emptiness_flag_query",
]

EDGE_SCHEMA = Schema({"E": 2})
OUTPUT_EDGE_SCHEMA = Schema({"O": 2})


def edges_of(instance: Instance) -> set[tuple[Hashable, Hashable]]:
    """The directed edge set of the ``E`` relation of *instance*."""
    return {(f.values[0], f.values[1]) for f in instance if f.relation == "E"}


def undirected_adjacency(
    edges: Iterable[tuple[Hashable, Hashable]]
) -> dict[Hashable, set[Hashable]]:
    """Adjacency of the underlying undirected graph (self-loops dropped)."""
    adjacency: dict[Hashable, set[Hashable]] = {}
    for a, b in edges:
        if a == b:
            adjacency.setdefault(a, set())
            continue
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    return adjacency


def has_clique(instance: Instance, k: int) -> bool:
    """True when the undirected version of E contains a k-clique.

    Uses a pruned recursive search over neighbourhoods; adequate for the
    small separating instances and the benchmark graph sizes.
    """
    if k <= 1:
        return k == 1 and bool(instance.adom()) or k <= 0
    adjacency = undirected_adjacency(edges_of(instance))
    nodes = [n for n, nbrs in adjacency.items() if len(nbrs) >= k - 1]
    candidates = set(nodes)

    def extend(clique: list[Hashable], allowed: set[Hashable]) -> bool:
        if len(clique) == k:
            return True
        if len(clique) + len(allowed) < k:
            return False
        for node in list(allowed):
            remaining = allowed & adjacency[node]
            if extend(clique + [node], remaining):
                return True
            allowed = allowed - {node}
        return False

    return extend([], candidates)


def max_star_spokes(instance: Instance) -> int:
    """The largest number of spokes of any (out-)star in E.

    A star with k spokes is a centre c with k distinct out-neighbours
    different from c.
    """
    spokes: dict[Hashable, set[Hashable]] = {}
    for a, b in edges_of(instance):
        if a != b:
            spokes.setdefault(a, set()).add(b)
    return max((len(targets) for targets in spokes.values()), default=0)


def triangles(instance: Instance) -> list[tuple[Hashable, Hashable, Hashable]]:
    """All directed triangles (x, y, z) with E(x,y), E(y,z), E(z,x) and
    x, y, z pairwise distinct — the pattern of Example 5.1."""
    edges = edges_of(instance)
    successors: dict[Hashable, set[Hashable]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    found: list[tuple[Hashable, Hashable, Hashable]] = []
    for x, ys in successors.items():
        for y in ys:
            if y == x:
                continue
            for z in successors.get(y, ()):
                if z == x or z == y:
                    continue
                if (z, x) in edges:
                    found.append((x, y, z))
    return found


def _exists_two_disjoint_triangles(instance: Instance) -> bool:
    """True when two vertex-disjoint (directed) triangles exist."""
    all_triangles = triangles(instance)
    for first, second in combinations(all_triangles, 2):
        if not (set(first) & set(second)):
            return True
    return False


def transitive_closure_query() -> Query:
    """TC: O(a, b) whenever there is a nonempty E-path from a to b.

    Monotone — the canonical member of M.
    """

    def compute(instance: Instance) -> Instance:
        edges = edges_of(instance)
        successors: dict[Hashable, set[Hashable]] = {}
        for a, b in edges:
            successors.setdefault(a, set()).add(b)
        closure: set[tuple[Hashable, Hashable]] = set(edges)
        frontier = set(edges)
        while frontier:
            fresh: set[tuple[Hashable, Hashable]] = set()
            for a, b in frontier:
                for c in successors.get(b, ()):
                    if (a, c) not in closure:
                        fresh.add((a, c))
            closure |= fresh
            frontier = fresh
        return Instance(Fact("O", pair) for pair in closure)

    return FunctionQuery("TC", EDGE_SCHEMA, OUTPUT_EDGE_SCHEMA, compute)


def complement_tc_query() -> Query:
    """Q_TC: O(a, b) for all pairs of the active domain with *no* E-path
    from a to b.

    The paper's witness for Mdisjoint \\ Mdistinct (Theorem 3.1(1)).
    """
    closure = transitive_closure_query()

    def compute(instance: Instance) -> Instance:
        reachable = {(f.values[0], f.values[1]) for f in closure(instance)}
        domain = instance.adom()
        return Instance(
            Fact("O", (a, b))
            for a in domain
            for b in domain
            if (a, b) not in reachable
        )

    return FunctionQuery("coTC", EDGE_SCHEMA, OUTPUT_EDGE_SCHEMA, compute)


def clique_query(k: int) -> Query:
    """Q^k_clique: the edge relation when no undirected k-clique exists,
    the empty relation otherwise (Theorem 3.1(3))."""
    if k < 2:
        raise ValueError("clique size must be at least 2")

    def compute(instance: Instance) -> Instance:
        if has_clique(instance, k):
            return Instance()
        return Instance(Fact("O", f.values) for f in instance if f.relation == "E")

    return FunctionQuery(f"clique[{k}]", EDGE_SCHEMA, OUTPUT_EDGE_SCHEMA, compute)


def star_query(k: int) -> Query:
    """Q^k_star: the edge relation when no star with k spokes exists,
    the empty relation otherwise (Theorem 3.1(4) and (6))."""
    if k < 1:
        raise ValueError("a star needs at least one spoke")

    def compute(instance: Instance) -> Instance:
        if max_star_spokes(instance) >= k:
            return Instance()
        return Instance(Fact("O", f.values) for f in instance if f.relation == "E")

    return FunctionQuery(f"star[{k}]", EDGE_SCHEMA, OUTPUT_EDGE_SCHEMA, compute)


def triangle_unless_two_disjoint_query() -> Query:
    """All triangles, on condition that no two disjoint triangles exist —
    the paper's witness for Mdisjoint ⊊ C (Theorem 3.1(1), third part).

    Output schema: ternary ``O(x, y, z)`` per directed triangle.
    """

    def compute(instance: Instance) -> Instance:
        if _exists_two_disjoint_triangles(instance):
            return Instance()
        return Instance(Fact("O", triple) for triple in triangles(instance))

    return FunctionQuery(
        "triangles-unless-2-disjoint", EDGE_SCHEMA, Schema({"O": 3}), compute
    )


def win_move_query() -> Query:
    """The win-move query: Win(x) for the positions *won* under the
    well-founded semantics of ``Win(x) <- Move(x, y), not Win(y)``.

    Non-monotone, yet in Mdisjoint (Section 7 / [32]).  The returned query
    owns one evaluator, so every transition of a node holding it (and every
    input of a process worker) reuses the same compiled rules.
    """
    evaluator = WellFoundedEvaluator(winmove_program())
    return FunctionQuery(
        "win-move", Schema({"Move": 2}), Schema({"Win": 1}), evaluator.output
    )


def emptiness_flag_query() -> Query:
    """A deliberately non-generic-feeling but still generic query used in
    tests: outputs every edge reversed when the graph has at least one edge.

    Monotone; exercises output schemas that differ from the input.
    """

    def compute(instance: Instance) -> Instance:
        return Instance(Fact("O", (b, a)) for a, b in edges_of(instance))

    return FunctionQuery("reverse-edges", EDGE_SCHEMA, OUTPUT_EDGE_SCHEMA, compute)

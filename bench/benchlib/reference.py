"""The benchmark's own oracle: the five queries in plain Python.

None of this imports the program under test, so the correctness check of a
timed run never depends on the code being timed.  Inputs are the generator's
structured data (relation -> tuples of ints), outputs are sets of tuples of
the query's output relation; :func:`fingerprint` renders them in the
program's canonical ``output_fingerprint`` format (sha256 over the sorted
fact reprs) so they can be compared with what a run reports.
"""

from __future__ import annotations

import hashlib


def _successors(edges) -> dict:
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    return succ


def _adom(data: dict) -> set:
    return {value for rows in data.values() for row in rows for value in row}


def transitive_closure(edges) -> set:
    succ = _successors(edges)
    pairs = set()
    for source in succ:
        seen: set = set()
        stack = list(succ[source])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        pairs.update((source, node) for node in seen)
    return pairs


def complement_tc(edges) -> set:
    closure = transitive_closure(edges)
    domain = _adom({"E": edges})
    return {(x, y) for x in domain for y in domain if (x, y) not in closure}


def semi_positive(edges, marks) -> set:
    marked = {row[0] for row in marks}
    return {(x, y) for x, y in edges if y not in marked}


def win_move(moves) -> set:
    """Won positions under the well-founded semantics, by backward
    induction: a position without moves is lost, a position with a move to
    a lost one is won, a position whose moves all reach won ones is lost,
    everything else is drawn."""
    succ = _successors(moves)
    pred = _successors((b, a) for a, b in moves)
    open_moves = {p: len(set(succ.get(p, ()))) for p in _adom({"Move": moves})}
    status: dict = {}
    queue = [p for p, count in open_moves.items() if count == 0]
    for p in queue:
        status[p] = "lost"
    while queue:
        p = queue.pop()
        for q in set(pred.get(p, ())):
            if q in status:
                continue
            if status[p] == "lost":
                status[q] = "won"
                queue.append(q)
            else:
                open_moves[q] -= 1
                if open_moves[q] == 0:
                    status[q] = "lost"
                    queue.append(q)
    return {(p,) for p, verdict in status.items() if verdict == "won"}


def triangles_without_disjoint_pair(edges) -> set:
    """``O(x)``: x is in the active domain and on no directed triangle that
    has a vertex-disjoint directed triangle beside it."""
    edge_set = set(edges)
    succ = _successors(edge_set)
    found = set()
    for x, y in edge_set:
        for z in succ.get(y, ()):
            if (z, x) in edge_set and len({x, y, z}) == 3:
                found.add((x, y, z))
    excluded = set()
    for first in found:
        if first[0] in excluded:
            continue
        vertices = set(first)
        if any(vertices.isdisjoint(other) for other in found):
            excluded.add(first[0])
    return {(x,) for x in _adom({"E": edges}) if x not in excluded}


#: kind -> (output relation, function of the op's data).
QUERIES = {
    "tc": ("T", lambda d: transitive_closure(d["E"])),
    "cotc": ("O", lambda d: complement_tc(d["E"])),
    "sp": ("O", lambda d: semi_positive(d["E"], d.get("Mark", ()))),
    "wm": ("Win", lambda d: win_move(d["Move"])),
    "wm_o": ("O", lambda d: win_move(d["Move"])),
    "tri": ("O", lambda d: triangles_without_disjoint_pair(d["E"])),
}


def evaluate(kind: str, data: dict) -> tuple[str, set]:
    relation, function = QUERIES[kind]
    return relation, function(data)


def fingerprint(relation: str, rows) -> str:
    """sha256 over the facts rendered ``R(v1, v2)`` and sorted by their
    ``(type name, repr)`` value keys — the program's canonical digest."""
    # Every generated value is an int, so the type names tie and the order
    # is that of the repr tuples.
    ordered = sorted(tuple(map(repr, row)) for row in rows)
    text = "\n".join(f"{relation}({', '.join(row)})" for row in ordered)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_fingerprint(kind: str, data: dict) -> str:
    return fingerprint(*evaluate(kind, data))

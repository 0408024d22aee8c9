"""Seeded input generation: every op is a pure function of (workload, seed).

Randomness comes only from ``random.Random(<string>)`` (seeded through
sha512, so independent of ``PYTHONHASHSEED``); nothing here reads a clock.
The program under test is handed only the rendered text.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

#: The five query programs (Figure 2's classes) plus the service tenant's
#: win-move variant with a designated ``O`` output.
PROGRAMS = {
    "tc": "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
    "cotc": (
        "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n"
        "O(x,y) :- Adom(x), Adom(y), not T(x,y)."
    ),
    "sp": "O(x, y) :- E(x, y), not Mark(y).",
    "wm": "Win(x) :- Move(x, y), not Win(y).",
    "wm_o": "Win(x) :- Move(x, y), not Win(y).\nO(x) :- Win(x).",
    "tri": (
        "T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.\n"
        "D(x1) :- T(x1, x2, x3), T(y1, y2, y3),\n"
        "         x1 != y1, x1 != y2, x1 != y3,\n"
        "         x2 != y1, x2 != y2, x2 != y3,\n"
        "         x3 != y1, x3 != y2, x3 != y3.\n"
        "O(x) :- Adom(x), not D(x)."
    ),
}

#: The protocol the analyzer routes each program to.
PROTOCOL = {
    "tc": "broadcast",
    "sp": "distinct",
    "cotc": "disjoint",
    "wm": "disjoint",
    "wm_o": "disjoint",
    "tri": "barrier",
}


@dataclass(frozen=True)
class Op:
    """One operation: the query kind, its generated input and how to run it."""

    id: str
    kind: str
    data: dict = field(hash=False)
    params: dict = field(hash=False, default_factory=dict)

    @property
    def program(self) -> str:
        return PROGRAMS[self.kind]

    @property
    def facts(self) -> str:
        return render_facts(self.data)

    @property
    def input_sha(self) -> str:
        blob = json.dumps(
            [self.kind, self.program, self.facts, self.params], sort_keys=True
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def render_facts(data: dict) -> str:
    return " ".join(
        f"{relation}({','.join(str(v) for v in row)})."
        for relation in sorted(data)
        for row in data[relation]
    )


def random_edges(rng: random.Random, nodes: int, edges: int) -> list:
    """*edges* distinct directed non-loop edges over ``0..nodes-1``."""
    edges = min(edges, nodes * (nodes - 1))
    chosen: set = set()
    while len(chosen) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            chosen.add((a, b))
    return sorted(chosen)


def graph_data(kind: str, rng: random.Random, nodes: int, edges: int) -> dict:
    """Input for *kind* on a random graph of the given size."""
    if kind in ("wm", "wm_o"):
        return {"Move": random_edges(rng, nodes, edges)}
    data = {"E": random_edges(rng, nodes, edges)}
    if kind == "sp":
        data["Mark"] = sorted((v,) for v in rng.sample(range(nodes), nodes // 3))
    return data


def small_data(kind: str, rng: random.Random, facts: int) -> dict:
    """Input of *facts* facts for the distributed workloads: a graph with
    two edges per node (for ``sp`` the marked third of the nodes counts in)."""
    if kind == "sp":
        nodes = max(4, facts * 3 // 7)
        return graph_data(kind, rng, nodes, facts - nodes // 3)
    return graph_data(kind, rng, max(4, facts // 2), facts)

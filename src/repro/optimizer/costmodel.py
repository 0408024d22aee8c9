"""The coordination cost model: predicted (rounds, messages, transitions).

The Section-4 protocols have sharply different cost shapes — measured by
``benchmarks/bench_protocol_costs.py`` / ``bench_coordination_price.py``
and committed as the paired runs of ``BENCH_optimizer.json``: broadcast
quiesces in ~4 rounds, the policy-aware absence protocol slightly later,
the domain-guided handshake and the All-barrier pay extra message hops
(ack / OK / done chains) that cost ~3 more rounds regardless of input
size.  The model captures exactly that structure:

* ``rounds ~ a + b * nodes`` per protocol kind (the handshake depth is a
  property of the protocol, input size only perturbs it);
* ``messages ~ a + b * nodes + c * nodes * facts`` (every protocol's
  data-driven messaging scales with how much input each node must ship);
* ``transitions = rounds * nodes`` — structural: under the fair
  scheduler every node takes exactly one transition per round.

Coefficients are fitted by least squares over observations from
:func:`calibration_observations` (the ``protocol_cost_sweep`` of
:mod:`repro.core.experiments` plus an All-barrier arm over the same
inputs).  ``DEFAULT_COST_MODEL`` carries committed coefficients from that
calibration so certificates are deterministic and dependency-free; the
``repro optimize --calibrate`` path refits from fresh measurements.

The planner only ever *compares* predictions — chosen bundle vs the
All-barrier — on the lexicographic ``(rounds, transitions)`` key, the
same gate the service's paired-seed A/B comparison uses, so absolute
calibration error cancels where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

__all__ = [
    "PROTOCOL_KINDS",
    "CostVector",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "calibration_observations",
    "fit_cost_model",
    "protocol_kind",
]

#: The four protocol families the planner can route to.
PROTOCOL_KINDS = ("broadcast", "distinct", "disjoint", "barrier")

#: Monotonicity class -> the protocol kind the planner routes it to.
KIND_FOR_CLASS: dict[str | None, str] = {
    "M": "broadcast",
    "Mdistinct": "distinct",
    "Mdisjoint": "disjoint",
    None: "barrier",
}


def protocol_kind(transducer_name: str) -> str:
    """The protocol family of a transducer name (``"distinct[datalog[O]]"``
    -> ``"distinct"``).  Unknown prefixes map to ``"barrier"`` — the
    conservative cost assumption."""
    kind = transducer_name.partition("[")[0]
    return kind if kind in PROTOCOL_KINDS else "barrier"


@dataclass(frozen=True)
class CostVector:
    """A predicted or measured protocol cost."""

    rounds: float
    messages: float
    transitions: float

    def ordering_key(self) -> tuple[float, float]:
        """The comparison key of the service's A/B gate: lexicographic on
        (rounds, transitions).  Messages are reported but not gated — the
        handshake protocols trade more messages for fewer rounds."""
        return (self.rounds, self.transitions)

    def cheaper_than(self, other: "CostVector") -> bool:
        return self.ordering_key() < other.ordering_key()

    def to_dict(self) -> dict[str, float]:
        return {
            "rounds": round(self.rounds, 3),
            "messages": round(self.messages, 3),
            "transitions": round(self.transitions, 3),
        }


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting (tiny systems only)."""
    size = len(rhs)
    rows = [list(row) + [value] for row, value in zip(matrix, rhs)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        if abs(rows[pivot][col]) < 1e-12:
            continue  # singular direction: leave the coefficient at 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for other in range(size):
            if other == col:
                continue
            factor = rows[other][col] / rows[col][col]
            rows[other] = [
                a - factor * b for a, b in zip(rows[other], rows[col])
            ]
    solution = []
    for col in range(size):
        if abs(rows[col][col]) < 1e-12:
            solution.append(0.0)
        else:
            solution.append(rows[col][size] / rows[col][col])
    return solution


def _least_squares(
    rows: Sequence[Sequence[float]], targets: Sequence[float]
) -> list[float]:
    """Ordinary least squares via the normal equations."""
    params = len(rows[0])
    normal = [[0.0] * params for _ in range(params)]
    rhs = [0.0] * params
    for row, target in zip(rows, targets):
        for i in range(params):
            rhs[i] += row[i] * target
            for j in range(params):
                normal[i][j] += row[i] * row[j]
    return _solve(normal, rhs)


@dataclass(frozen=True)
class CostModel:
    """Per-protocol-kind linear coefficients.

    ``rounds[kind] = (a, b)`` predicts ``a + b * nodes``;
    ``messages[kind] = (a, b, c)`` predicts ``a + b*nodes + c*nodes*facts``.
    """

    rounds: dict[str, tuple[float, float]]
    messages: dict[str, tuple[float, float, float]]

    def predict(self, kind: str, *, nodes: int, facts: int) -> CostVector:
        if kind not in self.rounds:
            raise KeyError(f"unknown protocol kind {kind!r}")
        ra, rb = self.rounds[kind]
        ma, mb, mc = self.messages[kind]
        rounds = max(1.0, ra + rb * nodes)
        messages = max(0.0, ma + mb * nodes + mc * nodes * facts)
        return CostVector(
            rounds=rounds, messages=messages, transitions=rounds * nodes
        )

    def predict_class(
        self, monotonicity: str | None, *, nodes: int, facts: int
    ) -> CostVector:
        return self.predict(
            KIND_FOR_CLASS[monotonicity], nodes=nodes, facts=facts
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "rounds": {k: list(v) for k, v in sorted(self.rounds.items())},
            "messages": {k: list(v) for k, v in sorted(self.messages.items())},
        }


def fit_cost_model(
    observations: Iterable[tuple[str, int, int, Any]]
) -> CostModel:
    """Least-squares fit from ``(kind, nodes, facts, RunMetrics)`` rows."""
    by_kind: dict[str, list[tuple[int, int, Any]]] = {}
    for kind, nodes, facts, metrics in observations:
        by_kind.setdefault(kind, []).append((nodes, facts, metrics))
    rounds: dict[str, tuple[float, float]] = {}
    messages: dict[str, tuple[float, float, float]] = {}
    for kind, rows in by_kind.items():
        round_rows = [(1.0, float(n)) for n, _f, _m in rows]
        round_targets = [float(m.rounds) for _n, _f, m in rows]
        ra, rb = _least_squares(round_rows, round_targets)
        rounds[kind] = (ra, rb)
        message_rows = [
            (1.0, float(n), float(n) * float(f)) for n, f, _m in rows
        ]
        message_targets = [float(m.message_facts_sent) for _n, _f, m in rows]
        ma, mb, mc = _least_squares(message_rows, message_targets)
        messages[kind] = (ma, mb, mc)
    return CostModel(rounds=rounds, messages=messages)


def calibration_observations(
    *,
    node_counts: Iterable[int] = (1, 2, 3, 4),
    edge_counts: Iterable[int] = (4, 8, 16),
    seed: int = 0,
) -> list[tuple[str, int, int, Any]]:
    """Fresh calibration data: the three Section-4 protocols *and* the
    All-barrier, over the same inputs across network and input sizes
    (the union of the two ``bench_protocol_costs.py`` sweeps plus the
    barrier arm they lack)."""
    from ..core.experiments import protocol_costs, random_graph

    observations: list[tuple[str, int, int, Any]] = []
    for edges in edge_counts:
        instance = random_graph(max(6, int(edges)), int(edges), seed=seed)
        for count in node_counts:
            for kind, metrics in protocol_costs(count, instance, seed, barrier=True):
                observations.append((kind, count, len(instance), metrics))
    return observations


#: Committed coefficients from ``fit_cost_model(calibration_observations())``
#: (node_counts 1-4, edge_counts 4/8/16, seed 0).  Regenerate with
#: ``repro optimize --calibrate``; ``repro gate optimizer`` refits too and
#: the artifact test pins the *ordering* these induce against the measured
#: ordering in BENCH_optimizer.json, not the raw values.
DEFAULT_COST_MODEL = CostModel(
    rounds={
        "broadcast": (2.0, 0.6),
        "distinct": (1.5, 1.0),
        "disjoint": (2.0, 1.7333),
        "barrier": (2.0, 1.8),
    },
    messages={
        "broadcast": (-9.3333, 3.1111, 0.6667),
        "distinct": (-205.6667, 50.6889, 13.9762),
        "disjoint": (-198.0, 83.5333, 7.6714),
        "barrier": (-73.0, 30.4667, 3.0),
    },
)

"""Satellite check: the fitted cost model's predicted (rounds,
transitions) ordering agrees with the *measured* ordering recorded in the
committed gate artifacts, for every protocol kind the paired runs chose."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from repro.optimizer import DEFAULT_COST_MODEL, protocol_kind

REPO = Path(__file__).resolve().parents[2]


def _comparisons() -> list[dict]:
    artifact = json.loads((REPO / "BENCH_optimizer.json").read_text())
    return [record for record in artifact["records"] if "optimized" in record]


def _predicted_key(kind: str, *, nodes: int = 3, facts: int = 8):
    return DEFAULT_COST_MODEL.predict(kind, nodes=nodes, facts=facts).ordering_key()


def _mean_key(arms: list[dict]) -> tuple[float, float]:
    return (
        sum(arm["measured"]["rounds"] for arm in arms) / len(arms),
        sum(arm["measured"]["transitions"] for arm in arms) / len(arms),
    )


class TestCommittedServiceArtifact:
    """Per chosen protocol kind, the optimizer gate's paired runs order
    against the barrier arm as the model predicts.  (The class is named for
    the service load artifact that first carried these pairs.)"""

    def test_prediction_matches_measured_ordering(self):
        by_kind = defaultdict(list)
        for comparison in _comparisons():
            kind = protocol_kind(comparison["optimized"]["protocol"])
            if kind != "barrier":
                by_kind[kind].append(comparison)
        assert set(by_kind) == {"broadcast", "distinct", "disjoint"}
        for kind, rows in sorted(by_kind.items()):
            measured_cheaper = _mean_key(
                [row["optimized"] for row in rows]
            ) < _mean_key([row["barrier"] for row in rows])
            predicted_cheaper = _predicted_key(kind) < _predicted_key("barrier")
            assert measured_cheaper == predicted_cheaper, (
                f"{kind}: model predicts "
                f"{'cheaper' if predicted_cheaper else 'not cheaper'} than the "
                f"barrier but the mean over {len(rows)} paired runs says the "
                "opposite"
            )


class TestCommittedOptimizerArtifact:
    def test_sweep_recorded_agreement_holds(self):
        comparisons = _comparisons()
        assert comparisons
        agree = sum(1 for c in comparisons if c["prediction_agrees"])
        assert agree / len(comparisons) >= 0.85
        assert all(c["byte_identical"] for c in comparisons)
        upgraded = [c for c in comparisons if c["upgraded"]]
        assert upgraded and all(c["measured_cheaper"] for c in upgraded)

    def test_headline_targets_met(self):
        artifact = json.loads((REPO / "BENCH_optimizer.json").read_text())
        for metric, cell in artifact["headline"].items():
            assert cell["ok"], f"{metric} below its floor in committed artifact"


class TestScenariosArtifactHasNoCostArms:
    def test_gracefully_out_of_scope(self):
        """BENCH_scenarios.json records streaming-scenario gates, not
        paired protocol costs — nothing for the model to disagree with.
        This pins that assumption so a future cost-bearing format is
        noticed here."""
        artifact = json.loads((REPO / "BENCH_scenarios.json").read_text())
        assert not any(
            "optimized" in record or "barrier" in record
            for record in artifact["records"]
        )

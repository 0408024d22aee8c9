"""The gate registry (``repro.gates``): one schema, one headline-vs-floor
loop, one entry point — and the committed artifacts are full, passing runs
of it."""

import json
from pathlib import Path

import pytest

from repro import gates
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent


def _stub_gate(*, passed: bool) -> gates.Gate:
    return gates.Gate(
        title="stub",
        records=lambda smoke: iter([{"item": "only", "passed": passed}]),
        floors={"stub_pass": 1.0},
        line=lambda record: record["item"],
    )


def test_the_registry_is_the_three_gates():
    assert set(gates.GATES) == {"cluster", "scenarios", "optimizer"}


def test_floors_are_pinned():
    assert {name: gate.floors for name, gate in gates.GATES.items()} == {
        "cluster": {"cluster_no_divergence": 1.0},
        "scenarios": {"scenario_gate_pass": 1.0},
        "optimizer": {
            "optimizer_byte_identical": 1.0,
            "optimizer_upgraded_cheaper": 1.0,
            "optimizer_prediction_agreement": 0.85,
            "optimizer_refit_ordering": 1.0,
        },
    }


@pytest.mark.parametrize("name", sorted(gates.GATES))
def test_committed_artifact_is_a_full_passing_run(name):
    artifact = json.loads((REPO / f"BENCH_{name}.json").read_text())
    assert gates.validate_artifact(artifact) == []
    assert artifact["gate"] == name
    assert artifact["mode"] == "full"
    assert artifact["passed"] and all(r["passed"] for r in artifact["records"])


def test_a_failing_record_fails_the_gate_and_the_command(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(gates.GATES, "stub", _stub_gate(passed=False))
    artifact = gates.run_gate("stub", smoke=True)
    assert artifact["passed"] is False
    assert artifact["mode"] == "smoke"
    assert artifact["headline"] == {
        "stub_pass": {"value": 0.0, "floor": 1.0, "ok": False}
    }
    assert gates.validate_artifact(artifact) == []

    output = tmp_path / "stub.json"
    assert main(["gate", "stub", "--output", str(output)]) == 1
    assert json.loads(output.read_text())["passed"] is False
    assert "FAILED" in capsys.readouterr().out


def test_a_passing_gate_exits_zero_and_writes_nothing_unasked(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setitem(gates.GATES, "stub", _stub_gate(passed=True))
    monkeypatch.chdir(tmp_path)
    assert main(["gate", "stub"]) == 0
    assert list(tmp_path.iterdir()) == []
    assert "verdict: PASS" in capsys.readouterr().out


def test_unknown_gate_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["gate", "scaling"])
    assert usage.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_validate_artifact_names_each_departure(monkeypatch):
    monkeypatch.setitem(gates.GATES, "stub", _stub_gate(passed=True))
    good = gates.run_gate("stub")
    assert gates.validate_artifact(good) == []

    legacy = {"suite": "bench_optimizer", "history": [good]}
    assert "top-level keys" in gates.validate_artifact(legacy)[0]
    assert "unknown gate" in gates.validate_artifact({**good, "gate": "scaling"})[0]

    lowered = json.loads(json.dumps(good))
    lowered["headline"]["stub_pass"]["floor"] = 0.5
    assert "floor 0.5 is not 1.0" in gates.validate_artifact(lowered)[0]

    lying = json.loads(json.dumps(good))
    lying["headline"]["stub_pass"].update(value=0.2)
    assert "ok=True at value 0.2" in gates.validate_artifact(lying)[0]

    assert "records" in gates.validate_artifact({**good, "records": []})[0]
    assert "contradicts" in gates.validate_artifact({**good, "passed": False})[0]

"""Unit tests for the persistent run store: schema, isolation, aggregates."""

import pytest

from repro.service import STORE_SCHEMA_VERSION, RunStore
from repro.service.store import program_sha
from repro.transducers.telemetry import REPORT_VERSION


def _fake_run_report(fingerprint="ab" * 32, messages=6, rounds=3):
    return {
        "version": REPORT_VERSION,
        "protocol": "broadcast[datalog[t]]",
        "policy": "hash",
        "scheduler": "fair",
        "channel": "reliable",
        "nodes": 3,
        "quiesced": True,
        "rounds_to_quiescence": rounds,
        "metrics": {
            "rounds": rounds,
            "transitions": 9,
            "pre_round_transitions": 0,
            "heartbeats": 3,
            "message_deliveries": messages,
            "message_facts_sent": messages,
        },
        "output_facts": 2,
        "output_fingerprint": fingerprint,
        "faults": {},
        "per_node": [
            {
                "node": "'n1'",
                "transitions": 3,
                "heartbeats": 1,
                "deliveries": 2,
                "sent_facts": 2,
                "buffer_high_water": 1,
                "buffered_at_end": 0,
                "output_facts": 2,
                "memory_facts": 2,
            }
        ],
    }


def _record(store, tenant, *, forced=False, messages=6, status="ok"):
    request_id = store.record_request(
        tenant,
        mode="eval",
        program="T(x,y) :- E(x,y).",
        facts="E(1,2).",
        options={"force_barrier": forced},
    )
    return store.record_run(
        tenant,
        request_id,
        mode="eval",
        status=status,
        program="T(x,y) :- E(x,y).",
        decision={
            "protocol": "barrier[t]" if forced else "broadcast[t]",
            "requires_barrier": forced,
            "forced_barrier": forced,
            "model": "original",
            "coordination_class": "F0",
            "reason": "test",
        },
        certificate={"fragment": "datalog", "monotonicity": "M"},
        report=_fake_run_report(messages=messages),
        output_fingerprint="ab" * 32,
        output_facts=2,
        elapsed_s=0.01,
    )


class TestSchema:
    def test_schema_version_stamped(self, tmp_path):
        path = str(tmp_path / "runs.db")
        store = RunStore(path)
        store.close()
        again = RunStore(path)  # reopens cleanly against the same version
        assert again.run_count() == 0
        again.close()

    def test_invalid_report_rejected_on_write(self):
        store = RunStore(":memory:")
        request_id = store.record_request(
            "t1", mode="eval", program="x", facts="", options={}
        )
        with pytest.raises(ValueError, match="missing keys|version"):
            store.record_run(
                "t1",
                request_id,
                mode="eval",
                status="ok",
                program="x",
                report={"version": REPORT_VERSION},
            )

    def test_program_sha_normalizes_whitespace(self):
        assert program_sha("T(x) :- E(x).") == program_sha("T(x)  :-\n  E(x).")


class TestTenantIsolation:
    def test_runs_scoped_to_tenant(self):
        store = RunStore(":memory:")
        run_a = _record(store, "alice")
        _record(store, "bob")
        assert {r["run_id"] for r in store.list_runs("alice")} == {run_a}
        assert store.get_run("bob", run_a) is None
        assert store.get_run("alice", run_a) is not None
        assert store.request_for_run("bob", run_a) is None


class TestAggregates:
    def test_set_verified_round_trips(self):
        store = RunStore(":memory:")
        run_id = _record(store, "alice")
        store.set_verified("alice", run_id, True)
        assert store.get_run("alice", run_id)["verified"] is True

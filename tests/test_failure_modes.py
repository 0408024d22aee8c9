"""Every way a run stops has a type, an exit code and an HTTP status.

The rows of the failure-mode table in ``docs/TESTING.md`` that had no test
of their own: non-quiescence as the CLI and the service report it, typed
errors passing through ``repro.runtimes.execute`` unchanged, and the
schema-version checks of the report, the run store and the snapshot reader.
The other rows name the existing tests that trigger them.
"""

import functools
import io
import sqlite3

import pytest

import repro.cluster.procs as procs
import repro.runtimes as runtimes
from repro.cli import main
from repro.cluster.checkpoint import CheckpointError, NodeSnapshot
from repro.cluster.codec import decode_value, encode_value
from repro.core.analyzer import (
    network_for_plan,
    plan_ilog_distribution,
    planned_network,
)
from repro.datalog import Fact, Instance, parse_facts, parse_program
from repro.ilog import DivergenceError, diverging_counter
from repro.runtimes import execute
from repro.service import RunStore, execute_request
from repro.streaming import DeltaFeed
from repro.transducers.telemetry import validate_report_dict

TC = "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n"
FACTS = "E(1, 2). E(2, 3). E(3, 4)."
TC_NETWORK = planned_network(parse_program(TC), ("n1",))


@pytest.fixture
def one_round(monkeypatch):
    """Every run through the seam gives up after one round."""
    monkeypatch.setattr(
        runtimes, "execute", functools.partial(execute, max_rounds=1)
    )


def test_cli_non_quiescence_warns_prints_partial_output_and_exits_1(
    one_round, tmp_path
):
    (tmp_path / "p.dl").write_text(TC)
    (tmp_path / "f.dl").write_text(FACTS)
    out = io.StringIO()
    code = main(["run", str(tmp_path / "p.dl"), str(tmp_path / "f.dl")], out=out)
    text = out.getvalue()
    assert code == 1
    assert text.startswith("warning:      run did not quiesce within 1 rounds")
    assert "3 output fact(s):" in text  # the partial output, still printed
    assert "matches centralized evaluation: MISMATCH" in text


def test_service_non_quiescence_is_a_recorded_500(one_round):
    store = RunStore(":memory:")
    status, body = execute_request(
        store, {"tenant": "t", "program": TC, "facts": FACTS}
    )
    assert status == 500
    assert body["status"] == "failed" and body["quiesced"] is False
    assert body["error"] == "run did not quiesce"
    assert body["report"]["quiesced"] is False
    stored = store.get_run("t", body["run_id"])
    assert stored["status"] == "failed" and stored["error"] == "run did not quiesce"
    store.close()


def test_ilog_divergence_passes_through_execute_and_is_a_500():
    program = diverging_counter()
    network = network_for_plan(plan_ilog_distribution(program), ("n1", "n2"))
    with pytest.raises(DivergenceError, match="depth"):
        execute("sync", network, Instance(parse_facts("Start(1).")))
    store = RunStore(":memory:")
    status, body = execute_request(
        store,
        {"tenant": "t", "ilog": True, "facts": "Start(1).",
         "program": "N(*, x) :- Start(x).\nN(*, n) :- N(n, x).\nO(x) :- N(n, x)."},
    )
    store.close()
    assert status == 500 and "Skolem nesting exceeded depth" in body["error"]


async def _fails_at_boot(cluster, node, *_):
    raise RuntimeError("boom at boot")


def test_restart_budget_exhaustion_passes_through_execute(monkeypatch):
    monkeypatch.setattr(procs, "_worker_async", _fails_at_boot)
    with pytest.raises(RuntimeError, match=r"(?s)giving up.*boom at boot"):
        execute("processes", TC_NETWORK, Instance(parse_facts(FACTS)))


def test_report_version_mismatch_is_a_value_error():
    report = execute("sync", TC_NETWORK, Instance(parse_facts(FACTS))).report
    payload = report.to_dict()
    validate_report_dict(payload)
    payload["version"] += 1
    with pytest.raises(ValueError, match="does not match"):
        validate_report_dict(payload)


def test_store_schema_version_mismatch_is_a_value_error(tmp_path):
    path = str(tmp_path / "runs.db")
    RunStore(path).close()
    with sqlite3.connect(path) as connection:
        connection.execute("UPDATE meta SET value='99' WHERE key='schema_version'")
    with pytest.raises(ValueError, match="has schema version 99"):
        RunStore(path)


def test_snapshot_version_mismatch_is_a_checkpoint_error():
    snapshot = NodeSnapshot(
        counter=0, black=False, sequence=0, transitions=0, probe_started=False,
        wal_position=0, stats=(0, 0, 0, 0), output=(), memory=(),
    )
    fields = list(decode_value(snapshot.encode()))
    NodeSnapshot.decode(encode_value(tuple(fields)))
    fields[1] += 1
    with pytest.raises(CheckpointError, match="unsupported snapshot version"):
        NodeSnapshot.decode(encode_value(tuple(fields)))


def test_a_feed_batch_mixing_facts_and_non_facts_is_a_typed_error():
    """Checked before the batch is sorted, so the sort's own error (the
    comparator's ``'<' not supported``) never surfaces instead."""
    with pytest.raises(TypeError, match="delta feeds contain Facts, got 1"):
        DeltaFeed([[Fact("E", (1, 2)), 1]])

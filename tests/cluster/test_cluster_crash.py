"""Crash-recovery tests: injected node crashes + checkpoint/WAL restarts
must leave the cluster's output byte-identical to the synchronous
simulator (a crashed run is still a fair run — Theorems 4.3–4.5)."""

import pytest

from repro.cluster import ClusterRun, build_cluster_report
from repro.cluster.checkpoint import DiskCheckpointStore, MemoryCheckpointStore
from repro.cluster.faults import CRASH_PLAN
from repro.cluster.gate import (
    GATE_NETWORK_NODES,
    cluster_fingerprint,
    sync_fingerprint,
    workload_by_key,
)
from repro.transducers import FaultPlan
from repro.transducers.telemetry import output_fingerprint

SAMPLE_KEYS = ("thm43-distinct", "barrier-baseline", "zoo-win-move")


def _crash_run(workload, **kwargs) -> ClusterRun:
    run = ClusterRun(
        workload.network(GATE_NETWORK_NODES),
        workload.instance,
        fault_plan=CRASH_PLAN,
        **kwargs,
    )
    run.run_to_quiescence()
    return run


@pytest.mark.parametrize("key", SAMPLE_KEYS)
@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_crash_runs_match_sync(key, transport):
    workload = workload_by_key(key)
    expected = sync_fingerprint(workload)
    for seed in (0, 1):
        actual, run = cluster_fingerprint(
            workload, transport=transport, faults=True, crashes=True, seed=seed
        )
        assert actual == expected, (
            f"{key} diverged after crash-recovery "
            f"(transport={transport}, seed={seed})"
        )
        # The schedule must actually kill something, or the test is vacuous.
        assert run.crashes >= 1
        assert run.recoveries == run.crashes
        assert run.wal_replayed >= 1
        assert run.report.snapshot_bytes > 0


def test_crash_budget_is_respected():
    workload = workload_by_key("zoo-tc")
    run = _crash_run(workload, seed=0)
    assert 1 <= run.crashes <= CRASH_PLAN.max_crashes


def test_crash_without_explicit_store_defaults_to_memory():
    # crash_rate > 0 with checkpoints=None must not lose state silently.
    workload = workload_by_key("zoo-tc")
    run = _crash_run(workload, seed=1)
    assert run.recoveries >= 1
    assert run.snapshot_bytes > 0


def test_crash_recovery_with_disk_store(tmp_path):
    workload = workload_by_key("thm43-distinct")
    expected = sync_fingerprint(workload)
    run = _crash_run(
        workload, seed=2, checkpoints=DiskCheckpointStore(tmp_path)
    )
    assert output_fingerprint(run.global_output()) == expected
    assert run.recoveries >= 1
    assert list(tmp_path.glob("*.snap")) and list(tmp_path.glob("*.wal"))


def test_crash_recovery_with_store_path(tmp_path):
    workload = workload_by_key("zoo-win-move")
    expected = sync_fingerprint(workload)
    run = _crash_run(workload, seed=3, checkpoints=str(tmp_path / "state"))
    assert output_fingerprint(run.global_output()) == expected
    assert run.recoveries >= 1


def test_snapshot_every_controls_wal_replay_length():
    # Sparse snapshots still recover correctly — replay just covers more WAL.
    workload = workload_by_key("thm43-distinct")
    expected = sync_fingerprint(workload)
    run = _crash_run(workload, seed=0, snapshot_every=1000)
    assert output_fingerprint(run.global_output()) == expected
    assert run.recoveries >= 1


def test_checkpoints_without_crashes_journal_quietly():
    workload = workload_by_key("zoo-tc")
    expected = sync_fingerprint(workload)
    store = MemoryCheckpointStore()
    run = ClusterRun(
        workload.network(GATE_NETWORK_NODES),
        workload.instance,
        checkpoints=store,
    )
    run.run_to_quiescence()
    assert output_fingerprint(run.global_output()) == expected
    assert run.crashes == 0 and run.recoveries == 0 and run.wal_replayed == 0
    assert store.snapshot_bytes > 0  # snapshots were written all along


def test_no_fault_run_reports_zero_crash_telemetry():
    workload = workload_by_key("zoo-tc")
    _, run = cluster_fingerprint(workload)
    assert run.crashes == 0
    assert run.recoveries == 0
    assert run.wal_replayed == 0
    assert run.report.snapshot_bytes == 0


def test_cluster_report_carries_crash_telemetry():
    workload = workload_by_key("thm43-distinct")
    run = _crash_run(workload, seed=0)
    report = build_cluster_report(run)
    payload = report.to_dict()
    assert payload["crashes"] == run.crashes >= 1
    assert payload["recoveries"] == run.recoveries >= 1
    assert payload["wal_replayed"] == run.wal_replayed >= 1
    assert payload["snapshot_bytes"] == run.snapshot_bytes > 0


def test_zero_crash_rate_plan_never_crashes():
    workload = workload_by_key("zoo-tc")
    expected = sync_fingerprint(workload)
    plan = FaultPlan(crash_rate=0.0)
    run = ClusterRun(
        workload.network(GATE_NETWORK_NODES),
        workload.instance,
        fault_plan=plan,
        seed=0,
    )
    run.run_to_quiescence()
    assert output_fingerprint(run.global_output()) == expected
    assert run.crashes == 0

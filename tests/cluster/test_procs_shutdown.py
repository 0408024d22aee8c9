"""Regression: SIGTERM to a ProcessCluster coordinator leaves no orphans.

A driver subprocess runs a deliberately long multi-process workload; the
test waits for all workers to appear in the coordinator's ``pids.json``
audit file, SIGTERMs the *coordinator*, and asserts that (a) the driver
observes :class:`~repro.cluster.procs.ClusterShutdown` and exits through
the graceful path, and (b) every worker pid is dead — the coordinator
reaped its children before unwinding."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

DRIVER = """
import sys
from repro.cluster import ClusterShutdown, ProcessCluster
from repro.cluster.procs import scaling_workload

workload = scaling_workload(components=8, size=600)
cluster = ProcessCluster(
    workload.network(("n1", "n2", "n3")),
    workload.instance,
    run_dir=sys.argv[1],
    timeout=120.0,
)
try:
    cluster.run_to_quiescence()
except ClusterShutdown:
    sys.exit(43)
sys.exit(0)
"""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@pytest.mark.slow
def test_sigterm_reaps_all_workers(tmp_path):
    run_dir = tmp_path / "run"
    pids_path = run_dir / "pids.json"
    env = dict(os.environ)
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_root) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    driver = subprocess.Popen(
        [sys.executable, "-c", DRIVER, str(run_dir)], env=env
    )
    try:
        # Wait until the audit file reports all three workers live.
        deadline = time.monotonic() + 60
        workers: dict = {}
        while time.monotonic() < deadline:
            if driver.poll() is not None:
                pytest.fail(
                    f"driver exited early with {driver.returncode} — the "
                    "workload finished before the signal; enlarge it"
                )
            try:
                workers = json.loads(pids_path.read_text())["workers"]
            except (FileNotFoundError, json.JSONDecodeError, KeyError):
                workers = {}
            if len(workers) == 3:
                break
            time.sleep(0.1)
        assert len(workers) == 3, "workers never came up"

        driver.send_signal(signal.SIGTERM)
        returncode = driver.wait(timeout=30)
        # 43 is the driver's marker for "unwound through ClusterShutdown".
        assert returncode == 43

        # Workers must be reaped by the time the coordinator has exited
        # (allow a beat for the OS to reap the process table entries).
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            alive = [pid for pid in workers.values() if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.1)
        assert not alive, f"orphaned worker pids: {alive}"

        # And the audit file's final state records zero live workers.
        assert json.loads(pids_path.read_text())["workers"] == {}
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()

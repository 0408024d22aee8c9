"""Multi-process runtime tests: the process cluster must be
byte-identical to the synchronous simulator and the asyncio runtime —
including across real process boundaries (forked workers with separate
interners/evaluation counters, differing hash seeds) and across one real
``SIGKILL`` + WAL-replay recovery — and it must leave nothing behind: no
descriptor, no zombie, no helper process, no temporary directory."""

import asyncio
import os
import resource
import subprocess
import sys
import tempfile

import pytest

import repro
import repro.cluster.procs as procs

from repro.cluster.gate import check_process_workload, sync_fingerprint
from repro.cluster.procs import (
    ProcessCluster,
    build_proc_network,
    decode_facts_hex,
    encode_facts_hex,
    scaling_workload,
    scaling_workload_by_key,
    workload_spec_for,
)
from repro.datalog.terms import Fact
from repro.transducers.runtime import QuiescenceError
from repro.transducers.telemetry import output_fingerprint

#: Small enough to keep each worker's work trivial; still three disjoint
#: games, so a 2-node block shard is a genuine partition.
SMALL = dict(components=3, size=10)


def _small_workload():
    return scaling_workload(**SMALL)


def _run(workload, **kwargs) -> ProcessCluster:
    cluster = ProcessCluster(
        workload_spec_for(workload), workload.instance, **kwargs
    )
    cluster.run_to_quiescence()
    return cluster


def _subprocess_env() -> dict:
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ----------------------------------------------------------------------
# Wire helpers and workload reconstruction (no subprocesses)
# ----------------------------------------------------------------------


class TestFactsHex:
    FACTS = (
        Fact("Move", (1, 2)),
        Fact("Move", (2, 1)),
        Fact("Win", ("p", 3)),
    )

    def test_round_trip(self):
        assert decode_facts_hex(encode_facts_hex(self.FACTS)) == tuple(
            sorted(self.FACTS)
        )

    def test_canonical_in_input_order(self):
        """The encoding sorts, so any enumeration order of the same set
        yields identical bytes — fragments hash stably across processes."""
        assert encode_facts_hex(self.FACTS) == encode_facts_hex(
            reversed(self.FACTS)
        )

    def test_empty(self):
        assert decode_facts_hex(encode_facts_hex(())) == ()


class TestWorkloadReconstruction:
    def test_scaling_key_round_trip(self):
        workload = _small_workload()
        rebuilt = scaling_workload_by_key(workload.key)
        assert rebuilt.key == workload.key
        assert rebuilt.instance == workload.instance

    def test_bad_scaling_key_rejected(self):
        with pytest.raises(KeyError):
            scaling_workload_by_key("scaling-tc-oops")

    def test_spec_kind_scaling(self):
        assert workload_spec_for(_small_workload()) == {
            "kind": "scaling",
            "key": f"scaling-wm-c{SMALL['components']}-s{SMALL['size']}",
        }

    def test_spec_kind_gate(self):
        from repro.cluster.gate import workload_by_key

        spec = workload_spec_for(workload_by_key("thm43-distinct"))
        assert spec == {"kind": "gate", "key": "thm43-distinct"}

    def test_build_network_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown workload spec"):
            build_proc_network({"kind": "nope"}, ("n1",))

    def test_build_network_is_deterministic(self):
        spec = workload_spec_for(_small_workload())
        one = build_proc_network(spec, ("n1", "n2"))
        two = build_proc_network(spec, ("n1", "n2"))
        instance = _small_workload().instance
        assert one.policy.distribute(instance) == two.policy.distribute(
            instance
        )


class TestValidation:
    def test_needs_processes_or_nodes(self):
        workload = _small_workload()
        with pytest.raises(ValueError, match="processes=N or nodes"):
            ProcessCluster(workload_spec_for(workload), workload.instance)

    def test_rejects_empty_nodes(self):
        workload = _small_workload()
        with pytest.raises(ValueError, match="at least one node"):
            ProcessCluster(
                workload_spec_for(workload), workload.instance, nodes=()
            )

    def test_rejects_non_string_node_names(self):
        workload = _small_workload()
        with pytest.raises(ValueError, match="must be strings"):
            ProcessCluster(
                workload_spec_for(workload), workload.instance, nodes=(1, 2)
            )

    def test_rejects_unknown_kill_node(self):
        workload = _small_workload()
        with pytest.raises(ValueError, match="kill_node"):
            ProcessCluster(
                workload_spec_for(workload),
                workload.instance,
                processes=2,
                kill_node="n9",
            )

    def test_one_shot(self):
        cluster = _run(_small_workload(), processes=1)
        with pytest.raises(RuntimeError, match="one-shot"):
            cluster.run_to_quiescence()


# ----------------------------------------------------------------------
# Cross-process determinism (real subprocesses)
# ----------------------------------------------------------------------


def test_codec_round_trips_through_a_real_subprocess():
    """Encode here, decode + re-encode in a fresh interpreter: the bytes
    must come back identical (the wire format owes nothing to this
    process's interner or hash seed)."""
    facts = _small_workload().instance
    blob = encode_facts_hex(facts)
    script = (
        "import sys\n"
        "from repro.cluster.procs import decode_facts_hex, encode_facts_hex\n"
        "blob = sys.stdin.read().strip()\n"
        "print(encode_facts_hex(decode_facts_hex(blob)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=blob,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env=_subprocess_env(),
    )
    assert result.stdout.strip() == blob


def test_process_run_matches_sync(tmp_path):
    """The tentpole gate, small: a 2-process run is byte-identical to the
    centralized Q(I), and each worker evaluated with its own process-local
    evaluation state."""
    workload = _small_workload()
    expected = output_fingerprint(workload.expected())
    # Warm the *parent's* transducer through the sync simulator (which
    # steps through the step cache).  Workers are forked from this very
    # process, so they would see these counters if they reused the
    # parent's transducer instead of rebuilding their own from the recipe.
    assert sync_fingerprint(workload, nodes=("n1", "n2")) == expected
    warmed = workload.transducer.evaluation_stats()
    assert warmed["cache_misses"] >= 1
    cluster = _run(workload, processes=2, run_dir=tmp_path / "run")
    assert output_fingerprint(cluster.global_output()) == expected
    assert cluster.transport_name == "proc"
    assert cluster.crashes == 0 and cluster.recoveries == 0
    assert cluster.metrics.transitions > 0
    assert cluster.token_probes > 0
    pids = set()
    for node in cluster.nodes():
        result = cluster.worker_result(node)
        assert result["recovered"] is False
        assert result["stats"]["transitions"] >= 1
        pids.add(result["pid"])
        # Every worker built its own network: the parent's warm counters
        # did not leak into it (the cluster data plane never steps through
        # the step cache, so a cold worker reports zeros).
        assert result["caches"]["cache_hits"] == 0
        assert result["caches"]["cache_misses"] == 0
    assert os.getpid() not in pids
    assert len(pids) == len(cluster.nodes())
    # ... and worker evaluation did not touch the parent's counters either.
    assert workload.transducer.evaluation_stats() == warmed


def test_real_sigkill_recovery(tmp_path):
    """A worker SIGKILLed mid-run is respawned over its checkpoint
    directory, replays its WAL, and the global output stays byte-identical
    to Q(I)."""
    workload = _small_workload()
    expected = output_fingerprint(workload.expected())
    cluster = _run(
        workload,
        processes=3,
        kill_node="n2",
        # The tiny fully-partitioned shard quiesces in one transition, so
        # the probe must fire on the first one for the kill to happen at
        # all (the parent asserts it did, below).
        kill_after=1,
        run_dir=tmp_path / "run",
    )
    assert output_fingerprint(cluster.global_output()) == expected
    assert cluster.crashes >= 1
    assert cluster.recoveries >= 1
    assert cluster.wal_replayed >= 1
    result = cluster.worker_result("n2")
    assert result["recovered"] is True


HASH_SEED_DRIVER = """
from repro.cluster.procs import ProcessCluster, scaling_workload, workload_spec_for
from repro.transducers.telemetry import output_fingerprint

workload = scaling_workload(components={components}, size={size})
cluster = ProcessCluster(
    workload_spec_for(workload), workload.instance, processes=2
)
print(output_fingerprint(cluster.run_to_quiescence()))
"""


def test_byte_identical_across_hash_seeds():
    """Two whole clusters — coordinator and the workers forked from it —
    under different PYTHONHASHSEED values produce the fingerprint the sync
    simulator computes here: nothing in the pipeline leans on builtin
    ``hash`` iteration order.  (Forked workers inherit the coordinator's
    hash seed, so the seed has to vary per driver process, not per worker.)
    """
    fingerprints = []
    for seed in ("1", "2"):
        env = _subprocess_env()
        env["PYTHONHASHSEED"] = seed
        result = subprocess.run(
            [sys.executable, "-c", HASH_SEED_DRIVER.format(**SMALL)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
            env=env,
        )
        fingerprints.append(result.stdout.strip())
    expected = sync_fingerprint(_small_workload(), nodes=("n1", "n2"))
    assert fingerprints == [expected, expected]


def test_process_gate_verdict():
    """The full divergence gate on a small workload: sync == asyncio ==
    process == process-with-real-kill, and the kill run's counters prove
    the kill happened."""
    verdict = check_process_workload(
        _small_workload(), processes=2, kill=True, kill_after=1
    )
    assert verdict.passed, verdict.to_dict()
    assert verdict.crashes >= 1
    assert verdict.recoveries >= 1
    assert verdict.wal_replayed >= 1


def test_large_results_are_not_mistaken_for_crashes():
    """A worker whose result outgrows the socket buffers must still deliver
    it.  It used to close the control socket with the coordinator's
    ``finish`` unread, the kernel answered RST and dropped the unsent tail,
    and the coordinator counted a crash and respawned: right output, wrong
    ``crashes`` / ``recoveries`` (3 runs of 5 before the half-close)."""
    from repro.datalog import Instance, parse_facts

    tc = "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n"
    chain = Instance(parse_facts(" ".join(f"E({i}, {i + 1})." for i in range(120))))
    for seed in range(5):
        cluster = ProcessCluster(
            {"kind": "program", "text": tc}, chain, processes=3, seed=seed
        )
        assert len(cluster.run_to_quiescence()) == 120 * 121 // 2
        assert len(cluster.worker_result("n1")["output"]) > 300_000  # hex chars
        assert (cluster.crashes, cluster.recoveries) == (0, 0), seed


# ----------------------------------------------------------------------
# Process hygiene: nothing outlives a run
# ----------------------------------------------------------------------


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_no_children() -> None:
    """Every child this process ever had has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts descriptors via /proc"
)


async def _fails_at_boot(spec):
    """A ``_worker_async`` stand-in.  Workers are forked from the test
    process, so they inherit a monkeypatched module — and say whose child
    they are."""
    raise RuntimeError(f"boom at boot, parent={os.getppid()}")


@needs_proc_fd
def test_runs_leak_no_descriptor_and_no_zombie():
    """Liveness pipes, stderr files and control connections are all
    closed, and every worker — including a SIGKILLed one and its
    replacement — is reaped, by the time a run returns."""
    workload = _small_workload()
    before = _open_fds()
    for index in range(5):
        kill = {"kill_node": "n2", "kill_after": 1} if index % 2 else {}
        cluster = _run(workload, processes=2, **kill)
        assert cluster.crashes == (1 if kill else 0)
    assert _open_fds() == before
    _assert_no_children()


@needs_proc_fd
def test_timeout_reaps_workers_and_closes_descriptors(monkeypatch):
    async def never_boots(spec):
        await asyncio.sleep(60)

    # A forked worker inherits the patched module: it idles instead of
    # booting, so the coordinator's wall-clock timeout has to clean up.
    monkeypatch.setattr(procs, "_worker_async", never_boots)
    workload = _small_workload()
    before = _open_fds()
    cluster = ProcessCluster(
        workload_spec_for(workload), workload.instance, processes=2, timeout=0.3
    )
    with pytest.raises(QuiescenceError, match="did not quiesce within 0.3s"):
        cluster.run_to_quiescence()
    assert _open_fds() == before
    _assert_no_children()


def test_worker_that_fails_at_boot_exhausts_restarts(monkeypatch, tmp_path):
    """A worker that cannot boot is respawned ``MAX_RESTARTS`` times, then
    the run fails with the child's traceback quoted — written by a direct
    child of this process, through its own stderr file."""
    monkeypatch.setattr(procs, "_worker_async", _fails_at_boot)
    workload = _small_workload()
    run_dir = tmp_path / "run"
    cluster = ProcessCluster(
        workload_spec_for(workload), workload.instance, processes=1, run_dir=run_dir
    )
    with pytest.raises(RuntimeError, match="giving up") as failure:
        cluster.run_to_quiescence()
    message = str(failure.value)
    spawns = procs.MAX_RESTARTS + 1
    assert f"worker n1 died {spawns} times (last returncode 1)" in message
    assert message.count("Traceback (most recent call last)") == spawns
    assert message.count(f"boom at boot, parent={os.getpid()}") == spawns
    assert sorted(path.name for path in run_dir.glob("*.stderr")) == [
        f"n1-{attempt}.stderr" for attempt in range(spawns)
    ]
    assert cluster.crashes == spawns and cluster.recoveries == procs.MAX_RESTARTS
    _assert_no_children()


def test_worker_cpu_is_in_rusage_children_when_the_run_returns():
    """Workers are direct children reaped inside the run — not children of
    a fork server or a pool that outlives it — so their CPU time is already
    charged to RUSAGE_CHILDREN when ``run_to_quiescence`` returns (the
    benchmark's ``cpu_s_per_run`` reads exactly this)."""

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    before = children_cpu()
    _run(_small_workload(), processes=2)
    assert children_cpu() > before
    _assert_no_children()


def test_self_made_run_directory_is_removed(monkeypatch, tmp_path):
    """``run_dir=None`` makes a temporary directory; the run removes it —
    on success and on failure (after the error text quoted what it held)."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    workload = _small_workload()
    _run(workload, processes=2, kill_node="n2", kill_after=1)
    assert os.listdir(tmp_path) == []

    monkeypatch.setattr(procs, "_worker_async", _fails_at_boot)
    with pytest.raises(RuntimeError, match=r"(?s)giving up.*Traceback.*boom at boot"):
        _run(workload, processes=1)
    assert os.listdir(tmp_path) == []


def test_caller_supplied_run_directory_is_kept(tmp_path):
    run_dir = tmp_path / "run"
    _run(_small_workload(), processes=2, run_dir=run_dir)
    kept = {path.name for path in run_dir.iterdir()}
    assert {"pids.json", "n1-0.stderr", "n2-0.stderr", "ckpt-n1", "ckpt-n2"} <= kept

"""The measurement loop shared by all workloads.

A run is: set-up (import, generate, oracle, boot, warm-up ops) → measured
pass (closed loop over the op list, cycling until ``--seconds`` of wall
time are used) → metrics.  The traced run alternates an untraced and a
traced execution of each op so that coverage and overhead of the ledger are
measured against the same inputs in the same process.
"""

from __future__ import annotations

import statistics
import threading
import time

from . import procstat, reference
from .spans import Recorder, duration
from .stats import percentile, tail_supported


class Workload:
    """What a workload module provides.  ``ops`` must be a pure function of
    (seed, smoke); everything else may hold state between ``prepare`` and
    ``close``."""

    name = ""
    why = ""
    clients = 1          # closed-loop client threads driving the measured pass
    warmup = 12          # ops run untimed at the end of set-up

    def ops(self, seed: int, smoke: bool) -> list:
        raise NotImplementedError

    def prepare(self, ops: list, scratch) -> None:
        """Parse inputs, boot whatever the ops need (part of set-up)."""

    def run(self, op):
        """Execute one op through the program's entry point; returns the
        output fingerprint or the output :class:`Instance`."""
        raise NotImplementedError

    def traced(self, op, rec: Recorder):
        """The same op unrolled into its public calls, each under a span."""
        raise NotImplementedError

    def trace_start(self, ops: list, rec: Recorder) -> None:
        """Measurements the ledger needs once, before the traced ops."""

    def layers(self, rec: Recorder, ops_run: int) -> dict:
        """Per-layer metrics of the traced pass (name -> value)."""
        return {}

    def live_pids(self) -> tuple:
        return ()

    def close(self) -> None:
        pass


def result_fingerprint(result) -> str:
    """Digest of an op's result, computed by the benchmark's own renderer.
    A string is a fingerprint reported by the program (service responses)."""
    if isinstance(result, str):
        return result
    relations = {fact.relation for fact in result}
    if len(relations) > 1:
        raise ValueError(f"expected one output relation, got {sorted(relations)}")
    relation = relations.pop() if relations else ""
    return reference.fingerprint(relation, [fact.values for fact in result])


class Outcome:
    """Per-op samples of one pass (thread-safe appends)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.times: list[float] = []
        self.cpu = 0.0
        self.check_time = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def note(self, op, seconds: float, cpu: float, ok: bool, check: float, error=None):
        with self.lock:
            self.attempted += 1
            self.cpu += cpu
            self.check_time += check
            if ok:
                self.times.append(seconds)
            else:
                self.failed += 1
                if error and len(self.errors) < 5:
                    self.errors.append(f"{op.id}: {error}")


def execute(call, op, expected: dict, outcome: Outcome, per_op_cpu: bool, pids):
    """Time one op, then verify it outside the timed region."""
    cpu_before = procstat.cpu_seconds(pids) if per_op_cpu else 0.0
    started = time.perf_counter()
    error = None
    try:
        result = call(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    cpu = procstat.cpu_seconds(pids) - cpu_before if per_op_cpu else 0.0
    check_started = time.perf_counter()
    ok = False
    if error is None:
        try:
            ok = result_fingerprint(result) == expected[op.id]
            if not ok:
                error = "fingerprint differs from the oracle"
        except Exception as exc:
            error = f"unverifiable result: {type(exc).__name__}: {exc}"
    outcome.note(op, seconds, cpu, ok, time.perf_counter() - check_started, error)


def measured_pass(workload: Workload, ops: list, expected: dict, seconds: float) -> dict:
    """The untraced closed-loop pass; returns the end-to-end sample."""
    outcome = Outcome()
    pids = workload.live_pids()
    single = workload.clients == 1
    deadline = time.perf_counter() + seconds
    cpu_before = procstat.cpu_seconds(pids)
    started = time.perf_counter()

    def client(offset: int) -> None:
        index = offset
        while time.perf_counter() < deadline:
            execute(workload.run, ops[index % len(ops)], expected, outcome, single, pids)
            index += workload.clients

    if single:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - started
    # Single client: CPU is summed per op, so the checker's CPU is left out.
    # Several clients: the whole pass, checker included (it is negligible
    # there: the service returns fingerprints, not instances).
    cpu = outcome.cpu if single else procstat.cpu_seconds(pids) - cpu_before
    busy = wall - outcome.check_time / workload.clients
    return {
        "outcome": outcome,
        "wall": wall,
        "busy": busy,
        "cpu": cpu,
        "peak_rss_mb": procstat.peak_rss_mb(pids),
    }


def end_to_end_metrics(sample: dict, setup_s: float) -> dict:
    outcome: Outcome = sample["outcome"]
    times_ms = [t * 1000.0 for t in outcome.times]
    correct = len(times_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_p50_ms": (statistics.median(times_ms) if times_ms else 0.0, "ms"),
        "run_p95_ms": (percentile(times_ms, 0.95) if times_ms else 0.0, "ms"),
        "runs_per_s": (correct / sample["busy"], "1/s"),
        "cpu_s_per_run": (sample["cpu"] / max(outcome.attempted, 1), "s"),
        "peak_rss_mb": (sample["peak_rss_mb"], "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "samples": correct,
        "p95_supported": tail_supported(correct),
        "errors": outcome.errors,
    }


def traced_pass(workload: Workload, ops: list, expected: dict, seconds: float) -> dict:
    """Alternate untraced and traced executions of each op until the time
    is used; returns the per-layer sample."""
    rec = Recorder()
    plain, traced = Outcome(), Outcome()
    pids = workload.live_pids()
    workload.trace_start(ops, rec)
    deadline = time.perf_counter() + seconds
    index = 0

    def run_traced(op):
        rec.op = f"{op.id}#{index}"
        return workload.traced(op, rec)

    while time.perf_counter() < deadline or index < 2:
        op = ops[index % len(ops)]
        order = (workload.run, run_traced) if index % 2 == 0 else (run_traced, workload.run)
        for call in order:
            target = traced if call is run_traced else plain
            execute(call, op, expected, target, False, pids)
        index += 1
    rec.op = None
    top_level = sum(
        duration(s) for s in rec.spans if s["parent"] is None and s["name"] != "replay"
    )
    plain_total = sum(plain.times)
    layers = dict(workload.layers(rec, index))
    if plain.times and traced.times:
        layers.setdefault(
            "trace.coverage_ratio", top_level / plain_total if plain_total else 0.0
        )
        layers["trace.overhead_ratio"] = (
            statistics.median(traced.times) / statistics.median(plain.times) - 1.0
        )
    return {
        "layers": layers,
        "recorder": rec,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": plain.errors + traced.errors,
        "ops": index,
    }

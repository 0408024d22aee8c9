#!/usr/bin/env python3
"""Checks of the benchmark's own machinery (plain ``python3 bench/selftest.py``,
under 30 s): the percentile and verdict rules, span arithmetic, the oracle,
determinism of the generators, that a wrong fingerprint fails a run, and that
the timing proxies do not change what the program computes.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import run as bench  # also puts bench/ and src/ on sys.path

from benchlib import reference, stats
from benchlib.harness import result_fingerprint
from benchlib.spans import Recorder, per_op_totals, self_times


def test_percentile_and_tail_rule():
    sample = list(range(1, 101))
    assert stats.percentile(sample, 0.95) == 95
    assert stats.percentile(sample, 0.50) == 50
    assert stats.percentile([7], 0.95) == 7
    # p95 of 200 samples is rank 190: exactly ten samples beyond it.
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.tail_supported(200) and not stats.tail_supported(199)
    assert not stats.tail_supported(16)


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    kwargs = {"better": "lower", "bound": 0.10}
    assert stats.verdict(steady, [v * 1.02 for v in steady], **kwargs) == "within"
    assert stats.verdict(steady, [v * 1.20 for v in steady], **kwargs) == "worse"
    assert stats.verdict(steady, [v * 0.80 for v in steady], **kwargs) == "better"
    noisy = [100.0, 140.0, 80.0, 120.0, 60.0]
    assert stats.verdict(noisy, noisy, **kwargs) == "unresolved"
    # Higher-is-better metrics flip the sign.
    assert stats.verdict(steady, [v * 0.8 for v in steady],
                         better="higher", bound=0.10) == "worse"


def test_manifest_matches_the_code():
    manifest = bench.load_manifest()
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(bench.WORKLOADS)
    for entry in manifest["workloads"]:
        assert entry["why"] == bench.make_workload(entry["name"]).why
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_span_self_time():
    rec = Recorder()
    rec.op = "op-1"
    rec.spans = [
        {"id": 0, "name": "root", "op": "op-1", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "op": "op-1", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "op": "op-1", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "a", "op": "op-1", "parent": 0, "start": 5.0, "end": 9.0},
    ]
    own = self_times(rec.spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert per_op_totals(rec.spans, "a") == {"op-1": 7.0}
    # The live recorder nests spans by the with-statement.
    live = Recorder()
    with live.span("outer"):
        with live.span("inner"):
            pass
    assert live.spans[1]["parent"] == 0 and live.spans[0]["parent"] is None
    assert live.spans[0]["end"] >= live.spans[1]["end"]


def test_reference_oracle():
    path = [(1, 2), (2, 3), (3, 4)]
    assert reference.transitive_closure(path) == {
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    assert reference.semi_positive([(1, 2), (2, 3)], [(3,)]) == {(1, 2)}
    # 4 has no move: lost; 3 wins; 2 loses; 1 wins.  5 <-> 6 is a draw.
    assert reference.win_move(path + [(5, 6), (6, 5)]) == {(1,), (3,)}
    assert reference.complement_tc([(1, 2)]) == {(1, 1), (2, 1), (2, 2)}
    one = [(1, 2), (2, 3), (3, 1)]
    assert reference.triangles_without_disjoint_pair(one) == {(1,), (2,), (3,)}
    two = one + [(4, 5), (5, 6), (6, 4), (7, 1)]
    assert reference.triangles_without_disjoint_pair(two) == {(7,)}
    # The renderer reproduces the program's canonical digest.
    from repro.datalog import Instance, parse_facts
    from repro.transducers import output_fingerprint

    instance = Instance(parse_facts("T(10,2). T(9,1). T(1,30)."))
    assert output_fingerprint(instance) == result_fingerprint(instance)


def test_generators_are_pure():
    clocks = ("time", "perf_counter", "monotonic", "time_ns")
    saved = {name: getattr(time, name) for name in clocks}

    def forbidden(*_args):
        raise AssertionError("an input generator read the clock")

    for name in bench.WORKLOADS:
        workload = bench.make_workload(name)
        for clock in clocks:
            setattr(time, clock, forbidden)
        try:
            first = workload.ops(bench.DEFAULT_SEED, False)
            again = workload.ops(bench.DEFAULT_SEED, False)
            other = workload.ops(bench.DEFAULT_SEED + 1, False)
        finally:
            for clock, function in saved.items():
                setattr(time, clock, function)
        assert [op.id for op in first] == [op.id for op in again]
        assert [op.input_sha for op in first] == [op.input_sha for op in again]
        assert len({op.id for op in first}) == len(first), "op ids must be unique"
        assert [op.input_sha for op in first] != [op.input_sha for op in other]
    # Another interpreter with another hash salt draws the same inputs.
    script = (
        "import sys; sys.argv=['x']; import run, json;"
        "print(json.dumps({n: [o.input_sha for o in run.make_workload(n).ops(1, False)]"
        " for n in run.WORKLOADS}))"
    )
    outputs = []
    for salt in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=salt)
        done = subprocess.run([sys.executable, "-c", script], cwd=bench.BENCH, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    # ... and they are the inputs the committed oracles were frozen for.
    for seed in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED):
        for name in bench.WORKLOADS:
            with open(bench.expected_path(name, seed), encoding="utf-8") as handle:
                frozen = json.load(handle)["ops"]
            ops = bench.make_workload(name).ops(seed, False)
            assert {op.id: op.input_sha for op in ops} == {
                key: value["input_sha"] for key, value in frozen.items()}, (name, seed)


def test_wrong_fingerprint_fails_the_run():
    args = SimpleNamespace(workload="eval_central", seed=bench.DEFAULT_SEED,
                           smoke=True, trace=0)
    workload, ops, expected, scratch, setup_s, warm = bench.set_up(
        "eval_central", bench.DEFAULT_SEED, True, time.perf_counter())
    try:
        outputs = {}
        for planted in (False, True):
            wanted = dict(expected)
            if planted:
                wanted[ops[0].id] = "0" * 64
            with redirect_stdout(io.StringIO()) as captured:
                code = bench.report_end_to_end(
                    workload, ops, wanted, 0.5, args, bench.stamp(),
                    bench.load_manifest(), setup_s, warm)
            outputs[planted] = (code, json.loads(captured.getvalue().splitlines()[-1]))
    finally:
        workload.close()
        bench.shutil.rmtree(scratch, ignore_errors=True)
    code, result = outputs[False]
    assert code == 0 and result["correct"] and result["failed"] == 0
    code, result = outputs[True]
    assert code != 0 and not result["correct"]
    assert 0 < result["failed"] / result["attempted"] < 1


def test_proxies_forward_unchanged():
    from repro.cluster import ClusterRun, DiskCheckpointStore, TcpTransport
    from repro.core.analyzer import network_for_plan, plan_distribution
    from repro.transducers import make_scheduler

    from benchlib.proxies import (
        RoundMarker,
        TimedDiskStore,
        TimedTcpTransport,
        time_query,
    )
    from benchlib.sim_protocols import parse_inputs

    ops = bench.make_workload("cluster_durable").ops(bench.DEFAULT_SEED, True)
    crash = next(op for op in ops if op.params["flavour"] == "crash")
    program, instance, _, nodes = parse_inputs([crash])[crash.id]
    want = reference.expected_fingerprint(crash.kind, crash.data)
    rec = Recorder()
    with tempfile.TemporaryDirectory(dir=bench.OUT) as scratch:
        for proxied in (False, True):
            plan = plan_distribution(program)
            if proxied:
                time_query(plan, rec)
            transport = TimedTcpTransport() if proxied else TcpTransport()
            store_type = TimedDiskStore if proxied else DiskCheckpointStore
            store = store_type(Path(scratch) / f"ckpt-{proxied}")
            from repro.cluster import CRASH_PLAN

            run = ClusterRun(network_for_plan(plan, nodes), instance,
                             transport=transport, checkpoints=store,
                             fault_plan=CRASH_PLAN, seed=crash.params["seed"])
            assert result_fingerprint(run.run_to_quiescence()) == want
            assert run.crashes >= 1
            if proxied:
                assert transport.frames > 0 and transport.bytes > 0
                assert store.wal_appends > 0 and store.snapshots > 0
                assert store.wal_reads > 0 and rec.spans
    # The scheduler proxy: same schedule, same metrics, same output.
    counts = []
    for proxied in (False, True):
        plan = plan_distribution(program)
        scheduler = make_scheduler("chaos", 3)
        if proxied:
            scheduler = RoundMarker(scheduler, rec)
        run = network_for_plan(plan, nodes).new_run(instance)
        assert result_fingerprint(run.run_to_quiescence(scheduler=scheduler)) == want
        counts.append(run.metrics.to_dict())
    assert counts[0] == counts[1]
    assert sum(s["name"] == "transducers.runtime.round" for s in rec.spans) >= 1


def main() -> int:
    bench.OUT.mkdir(exist_ok=True)
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_") and callable(value)]
    started = time.perf_counter()
    for test in tests:
        test()
        print(f"ok   {test.__name__}")
    print(f"{len(tests)} checks passed in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

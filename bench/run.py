#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end metrics, a layer ledger.

    python3 bench/run.py                               every workload once
    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1
    python3 bench/run.py --runs 10 --out A.json        a set of runs to compare
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --regen-expected
    python3 bench/run.py --smoke

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (the driver's contract):
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See bench/README.md.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from benchlib import reference, stats  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = (
    "eval_central",
    "sim_protocols",
    "cluster_durable",
    "procs_shard",
    "service_mix",
)
SMOKE_SECONDS = 1.0
#: Cold set-ups timed per run: this process's own plus this many children.
SETUP_CHILDREN = 2


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def make_workload(name: str):
    import importlib

    module = importlib.import_module(f"benchlib.{name}")
    return module.WORKLOAD()


def stamp() -> dict:
    """Where and when a result was taken (written into every output file)."""
    commit = "unknown"
    if (ROOT / ".git").exists():  # never look for a repository above the checkout
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "loadavg_1m": os.getloadavg()[0],
    }


def scratch_dir() -> Path:
    """A private directory under bench/out for everything a run writes; the
    program's own temporary files are pointed there too, so the benchmark
    reads and writes only inside its checkout."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tempfile.tempdir = str(path)
    os.environ["TMPDIR"] = str(path)
    return path


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED / f"{workload}-seed{seed}.json"


def build_expected(name: str, seed: int, ops: list, smoke: bool) -> dict:
    """Op id -> fingerprint from the benchmark's own reference evaluation.
    Where a frozen oracle is committed for this seed it must agree — on the
    inputs (the generator has not drifted) and on the fingerprints."""
    expected = {op.id: reference.expected_fingerprint(op.kind, op.data) for op in ops}
    path = expected_path(name, seed)
    if not smoke and path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            frozen = json.load(handle)["ops"]
        current = {
            op.id: {"input_sha": op.input_sha, "fingerprint": expected[op.id]}
            for op in ops
        }
        if frozen != current:
            changed = sorted(k for k in set(frozen) | set(current)
                             if frozen.get(k) != current.get(k))
            raise SystemExit(
                f"{path.name}: frozen oracle disagrees with the generator/"
                f"reference on {len(changed)} op(s), first {changed[:3]}; "
                "run --regen-expected only if the change is intended"
            )
    return expected


def regen_expected() -> int:
    """Write bench/expected/*.json for both committed seeds — after the
    naive T_P stack, ``plan.query`` and the default engine have all agreed
    with the reference on the smoke-sized inputs."""
    from repro.conformance.stacks import StackContext, build_stacks
    from repro.core.analyzer import plan_distribution, query_for
    from repro.datalog import Instance, parse_facts, parse_program

    from benchlib.harness import result_fingerprint

    (naive,) = build_stacks(("naive",))
    for name in WORKLOADS:
        workload = make_workload(name)
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for op in workload.ops(seed, True):
                program = parse_program(op.program)
                instance = Instance(parse_facts(op.facts))
                want = reference.expected_fingerprint(op.kind, op.data)
                got = {
                    "naive": naive.evaluate(program, instance, StackContext()),
                    "plan.query": plan_distribution(program).query(instance),
                    "default": query_for(program)(instance),
                }
                for engine, result in got.items():
                    if result_fingerprint(result) != want:
                        print(f"REFUSED: {name} seed {seed} op {op.id}: "
                              f"{engine} disagrees with the reference")
                        return 1
    EXPECTED.mkdir(exist_ok=True)
    for name in WORKLOADS:
        workload = make_workload(name)
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            ops = workload.ops(seed, False)
            payload = {
                "workload": name,
                "seed": seed,
                "stamp": stamp(),
                "ops": {
                    op.id: {
                        "input_sha": op.input_sha,
                        "fingerprint": reference.expected_fingerprint(op.kind, op.data),
                    }
                    for op in ops
                },
            }
            with open(expected_path(name, seed), "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
            print(f"wrote {expected_path(name, seed).relative_to(ROOT)} ({len(ops)} ops)")
    return 0


# ----------------------------------------------------------------------
# One run of one workload (the driver's contract)
# ----------------------------------------------------------------------


def set_up(name: str, seed: int, smoke: bool, started: float):
    """Everything before the first measured op; returns its duration too."""
    import repro  # noqa: F401 - without the program there is no result to print

    from benchlib.harness import Outcome, execute

    scratch = scratch_dir()
    workload = make_workload(name)
    ops = workload.ops(seed, smoke)
    expected = build_expected(name, seed, ops, smoke)
    try:
        workload.prepare(ops, scratch)
        warm = Outcome()
        for op in ops[: min(workload.warmup, len(ops))]:
            execute(workload.run, op, expected, warm, False, ())
    except BaseException:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    return workload, ops, expected, scratch, time.perf_counter() - started, warm


def child_setup_seconds(name: str, seed: int, smoke: bool) -> float:
    """One more cold set-up, in a fresh interpreter."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"set-up child failed:\n{done.stdout}\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    manifest = load_manifest()
    name, seed, smoke = args.workload, args.seed, args.smoke
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if smoke else manifest["run_seconds"])
    stamped = stamp()
    setups = []
    if not args.trace and not smoke and not args.setup_only:
        # Fresh-interpreter set-ups first, so this process goes straight
        # from its own set-up into the measured pass.
        setups = [child_setup_seconds(name, seed, smoke) for _ in range(SETUP_CHILDREN)]
        started = time.perf_counter()
    else:
        started = _PROCESS_START
    workload, ops, expected, scratch, own_setup, warm = set_up(name, seed, smoke, started)
    try:
        if args.setup_only:
            print(repr(own_setup))
            return 0 if warm.failed == 0 else 1
        setups.append(own_setup)
        if args.trace:
            return report_traced(workload, ops, expected, seconds, args, stamped, manifest)
        return report_end_to_end(
            workload, ops, expected, seconds, args, stamped, manifest,
            statistics.median(setups), warm,
        )
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


def emit(args, stamped, payload: dict, human: list[str]) -> None:
    OUT.mkdir(exist_ok=True)
    record = {"stamp": stamped, "workload": args.workload, "seed": args.seed,
              "trace": int(args.trace), "smoke": args.smoke, **payload}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for line in human:
        print(line)
    print(json.dumps(payload, sort_keys=True))


def report_end_to_end(workload, ops, expected, seconds, args, stamped, manifest,
                      setup_s, warm) -> int:
    from benchlib.harness import end_to_end_metrics, measured_pass

    sample = measured_pass(workload, ops, expected, seconds)
    result = end_to_end_metrics(sample, setup_s)
    attempted = result["attempted"] + warm.attempted
    failed = result["failed"] + warm.failed
    human = [f"# {workload.name} seed={args.seed} ops={result['samples']} "
             f"(distinct {len(ops)}, clients {workload.clients}) "
             f"measured {sample['wall']:.2f}s"]
    wanted = [m["name"] for m in manifest["end_to_end"]]
    metrics = {}
    for metric in wanted:
        value, unit = result["metrics"][metric]
        metrics[metric] = {"value": value, "unit": unit}
        note = ""
        if metric == "run_p95_ms" and not result["p95_supported"]:
            note = "  (fewer than 10 samples beyond it: reads as the slowest ops)"
        human.append(f"{metric:>16} = {value:.4f} {unit}{note}")
    human.append(f"{'failed_ratio':>16} = {failed / max(attempted, 1):.4f} ratio "
                 f"({failed} of {attempted})")
    human.extend(f"  failed: {line}" for line in result["errors"] + warm.errors)
    payload = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    emit(args, stamped, payload, human)
    return 0 if failed == 0 else 1


def report_traced(workload, ops, expected, seconds, args, stamped, manifest) -> int:
    from benchlib.harness import traced_pass

    sample = traced_pass(workload, ops, expected, seconds)
    sample["recorder"].write(OUT / f"trace-{workload.name}.json", stamped)
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    unknown = sorted(set(sample["layers"]) - set(wanted))
    if unknown:
        raise SystemExit(f"layer metrics missing from BENCHMARK.json: {unknown}")
    human = [f"# {workload.name} seed={args.seed} traced ops={sample['ops']} "
             f"spans={len(sample['recorder'].spans)}"]
    metrics = {}
    for metric, unit in wanted.items():
        # A layer this workload never enters did no work: 0 by measurement.
        value = float(sample["layers"].get(metric, 0.0))
        metrics[metric] = {"value": value, "unit": unit}
        if metric in sample["layers"]:
            human.append(f"{metric:>44} = {value:.4f} {unit}")
    human.extend(f"  failed: {line}" for line in sample["errors"])
    payload = {"correct": sample["failed"] == 0, "attempted": sample["attempted"],
               "failed": sample["failed"], "metrics": metrics}
    emit(args, stamped, payload, human)
    return 0 if sample["failed"] == 0 else 1


# ----------------------------------------------------------------------
# Sets of runs, and comparing two of them
# ----------------------------------------------------------------------


def run_set(args) -> int:
    """Every selected workload, ``--runs`` times, each run in its own
    interpreter with its own seed; optionally written out as one set."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    status = 0
    for name in names:
        for repeat in range(args.runs):
            command = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                       "--seed", str(args.seed + repeat), "--trace", str(int(args.trace))]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]) if lines else done.stderr, flush=True)
            if done.returncode != 0:
                status = 1
                print(done.stderr, file=sys.stderr)
            if lines and lines[-1].startswith("{"):
                runs.append({"workload": name, "seed": args.seed + repeat,
                             **json.loads(lines[-1])})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"stamp": stamp(), "runs": runs}, handle, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    return status


def compare(path_a: str, path_b: str) -> int:
    manifest = load_manifest()
    sets = []
    for path in (path_a, path_b):
        with open(path, "r", encoding="utf-8") as handle:
            sets.append(json.load(handle)["runs"])

    def values(runs, workload, metric):
        return [r["metrics"][metric]["value"] for r in runs
                if r["workload"] == workload and metric in r["metrics"]]

    def failed_ratio(runs, workload):
        chosen = [r for r in runs if r["workload"] == workload]
        return sum(r["failed"] for r in chosen) / max(sum(r["attempted"] for r in chosen), 1)

    status = 0
    print(f"{'workload':<16}{'metric':<15}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'bound':>7}  verdict")
    for workload in WORKLOADS:
        for metric in manifest["end_to_end"]:
            a = values(sets[0], workload, metric["name"])
            b = values(sets[1], workload, metric["name"])
            if not a or not b:
                continue
            outcome = stats.verdict(a, b, better=metric["better"], bound=metric["bound"])
            sa, sb = stats.spread(a), stats.spread(b)
            print(f"{workload:<16}{metric['name']:<15}"
                  f"{sa['median']:>12.4f} [{sa['q1']:>8.4f},{sa['q3']:>9.4f}]"
                  f"{sb['median']:>12.4f} [{sb['q1']:>8.4f},{sb['q3']:>9.4f}]"
                  f"{metric['bound']:>7.2f}  {outcome}")
            if outcome == "worse":
                status = 1
        fa, fb = failed_ratio(sets[0], workload), failed_ratio(sets[1], workload)
        rose = fb > fa
        print(f"{workload:<16}{'failed_ratio':<15}{fa:>34.4f}{fb:>34.4f}{0:>7.2f}  "
              f"{'worse' if rose else 'within'}")
        if rose:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, short passes: all workloads in under 10 s")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each workload with seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write the set of runs to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regen-expected", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.regen_expected:
        return regen_expected()
    if args.workload and args.runs == 1 and not args.out:
        return run_one(args)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())

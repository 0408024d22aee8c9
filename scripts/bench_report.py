#!/usr/bin/env python
"""Regenerate the committed gate artifacts (``BENCH_*.json``), one mode per run.

Usage::

    PYTHONPATH=src python scripts/bench_report.py --scaling  # BENCH_scaling.json
    PYTHONPATH=src python scripts/bench_report.py --scaling --smoke --compare-baseline
    PYTHONPATH=src python scripts/bench_report.py --service  # BENCH_service.json
    PYTHONPATH=src python scripts/bench_report.py --service --smoke
    PYTHONPATH=src python scripts/bench_report.py --scenarios  # BENCH_scenarios.json
    PYTHONPATH=src python scripts/bench_report.py --scenarios --smoke
    PYTHONPATH=src python scripts/bench_report.py --optimizer  # BENCH_optimizer.json
    PYTHONPATH=src python scripts/bench_report.py --optimizer --smoke

Exactly one mode flag is required.  Engine speed is not measured here:
``python3 bench/run.py --workload eval_central`` is the live number.

``--service`` switches to the multi-tenant service load test
(``benchmarks/bench_service.py``): >= 200 concurrent POSTs across >= 3
tenants against a live server, then the committed report is distilled by
*querying the sqlite run store* the service wrote — routing table,
coordination-cost comparison (chosen protocol vs forced All-barrier),
per-tenant counts and report-schema validation are all store aggregates,
never client-side tallies — and written as ``BENCH_service.json`` with
the same dated-history upsert.

``--scaling`` switches to the multi-process scaling sweep
(``benchmarks/bench_scaling.py::scaling_sweep``): wall clock at 1→4 worker
processes on the fixed partitionable workload, one real-SIGKILL recovery
run, committed as ``BENCH_scaling.json`` with the same dated-history
upsert and baseline gate.  In ``--smoke`` mode (CI, low-core runners) the
speedup target is reported but not enforced; output consistency and the
recovery run always are.

``--scenarios`` switches to the committed streaming-scenario gate: every
YAML scenario under ``scenarios/`` is replayed through the synchronous
simulator, the asyncio cluster and the process cluster (clean *and*
kill-and-recover), demanding identical per-epoch fingerprints everywhere
plus the live delta-preservation oracle on classified scenarios
(docs/SCENARIOS.md).  The verdicts land in ``BENCH_scenarios.json`` with
the same dated-history upsert; ``--smoke`` only tags the history entry
(the scenarios are tiny, so every arm always runs — the gate properties
are never relaxed).

``--output`` overrides the destination (default: the mode's repo-root
artifact).  The output file keeps a dated **history**: each invocation
upserts one entry under ``history`` instead of overwriting previous
results — a re-run on the same date replaces that day's entry in place (no
duplicates), other dates accumulate, so regressions are visible as a time
series.  Legacy single-entry files are migrated in place on first touch.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "benchmarks"

#: The date stamped onto a legacy (pre-history) single-entry report during
#: migration: the commit date of the run that produced it.
LEGACY_DATE = "2026-08-06"


def load_history(path: Path, *, suite: str) -> dict:
    """Read the existing report, migrating the legacy single-entry layout
    (top-level ``benchmarks``) into ``history`` form."""
    base: dict = {"suite": suite, "history": []}
    if not path.exists():
        return base
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return base
    if "history" in payload:
        base["history"] = list(payload["history"])
        return base
    if "benchmarks" in payload:  # legacy one-shot layout
        base["history"] = [
            {
                "date": LEGACY_DATE,
                "mode": payload.get("mode", "full"),
                "divergences": payload.get("divergences", []),
                "headline": payload.get("headline", {}),
                "benchmarks": payload.get("benchmarks", {}),
            }
        ]
    return base


def upsert_history(history: list[dict], entry: dict) -> list[dict]:
    """Insert *entry* into the dated history, replacing any same-day entry
    in place (re-running the suite twice in one day refreshes that day's
    numbers instead of duplicating the row).  Stray same-day duplicates
    from older files are collapsed too.  Returns the updated list."""
    replaced = False
    updated = []
    for existing in history:
        if existing.get("date") == entry["date"]:
            if not replaced:
                updated.append(entry)
                replaced = True
            continue  # drop further same-day duplicates
        updated.append(existing)
    if not replaced:
        updated.append(entry)
    return updated


def compare_baseline(baseline_path: Path, headline: dict, *, suite: str) -> list[str]:
    """Compare this run's headline speedups against the committed baseline
    file: any metric regressing below its committed target is flagged.
    Returns failure descriptions (empty when everything holds)."""
    report = load_history(baseline_path, suite=suite)
    if not report["history"]:
        return [f"compare-baseline: no history in {baseline_path}"]
    committed = report["history"][-1].get("headline", {})
    failures = []
    for metric, record in sorted(committed.items()):
        target = record.get("target")
        if metric not in headline:
            failures.append(
                f"compare-baseline: {metric} present in {baseline_path.name} "
                "but missing from this run"
            )
            continue
        speedup = headline[metric]["speedup"]
        drift = speedup - record.get("speedup", speedup)
        verdict = "ok" if target is None or speedup >= target else "REGRESSED"
        print(
            f"  baseline {metric}: {speedup:.2f}x now vs "
            f"{record.get('speedup', float('nan')):.2f}x committed "
            f"(target >= {target}x, drift {drift:+.2f}x) {verdict}"
        )
        if target is not None and speedup < target:
            failures.append(
                f"compare-baseline: {metric} at {speedup:.2f}x regressed below "
                f"its committed target {target}x"
            )
    return failures


#: The scaling curve's committed commitment: wall-clock speedup at 4
#: workers vs 1 on the fixed partitionable workload.
SCALING_TARGETS = {"scaling_speedup_4w": 2.0}


def scaling_main(args) -> int:
    """``--scaling`` mode: run the multi-process sweep from
    ``benchmarks/bench_scaling.py`` and distill it into BENCH_scaling.json
    (dated-history upsert + --compare-baseline gate)."""
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from bench_scaling import scaling_sweep

    if args.smoke:
        # CI runners are low-core boxes: assert consistency + recovery,
        # never the speedup (that is the committed full run's job).
        data = scaling_sweep(
            workers=(1, 2, 4), components=8, size=40, kill=True, timeout=180.0
        )
    else:
        data = scaling_sweep(workers=(1, 2, 4), kill=True, timeout=300.0)

    failures = []
    for point in data["points"]:
        marker = "ok" if point["fingerprint_ok"] else "DIVERGED"
        print(
            f"  {point['workers']} worker(s): {point['wall_s']:.2f}s "
            f"(speedup {data['speedups'][str(point['workers'])]:.2f}x) {marker}"
        )
        if not point["fingerprint_ok"]:
            failures.append(
                f"scaling: {point['workers']}-worker output diverged from Q(I)"
            )
    recovery = data["recovery"]
    print(
        f"  recovery run: {recovery['wall_s']:.2f}s, crashes={recovery['crashes']}, "
        f"recoveries={recovery['recoveries']}, wal_replayed={recovery['wal_replayed']}"
    )
    if not recovery["fingerprint_ok"]:
        failures.append("scaling: kill-recovery run output diverged from Q(I)")
    if recovery["recoveries"] < 1 or recovery["wal_replayed"] < 1:
        failures.append("scaling: kill-recovery run exercised no WAL replay")

    headline = {}
    for metric, minimum in SCALING_TARGETS.items():
        speedup = data["speedups"].get("4")
        if speedup is None:
            failures.append(f"{metric}: no 4-worker point in the sweep")
            continue
        ok = speedup >= minimum
        headline[metric] = {"speedup": speedup, "target": minimum, "ok": ok}
        verdict = "ok" if ok else "BELOW TARGET"
        print(f"  headline {metric}: {speedup:.2f}x (target >= {minimum}x) {verdict}")
        if not args.smoke and not ok:
            failures.append(f"{metric}: {speedup:.2f}x below target {minimum}x")

    if args.compare_baseline is not None:
        print(f"== compare-baseline: {args.compare_baseline} ==")
        failures.extend(
            compare_baseline(
                Path(args.compare_baseline), headline, suite="bench_scaling"
            )
        )

    entry = {
        "date": datetime.date.today().isoformat(),
        "mode": "smoke" if args.smoke else "full",
        "headline": headline,
        "sweep": data,
    }
    output = Path(args.output or str(REPO / "BENCH_scaling.json"))
    report = load_history(output, suite="bench_scaling")
    report["history"] = upsert_history(report["history"], entry)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output} ({len(report['history'])} history entr"
          f"{'y' if len(report['history']) == 1 else 'ies'})")
    if failures:
        print("FAILURES:\n  " + "\n  ".join(failures))
        return 1
    return 0


#: The optimizer gate's commitments: sound routing (byte-identity
#: everywhere), at least one genuine upgrade that is measured-cheaper, and
#: cost-model ordering agreement (near-ties may honestly disagree).
OPTIMIZER_TARGETS = {
    "optimizer_byte_identical": 1.0,
    "optimizer_upgraded_cheaper": 1.0,
    "optimizer_prediction_agreement": 0.85,
}


def optimizer_main(args) -> int:
    """``--optimizer`` mode: run the paired optimized-vs-barrier sweep
    from ``benchmarks/bench_optimizer.py`` over the query zoo, check the
    refit cost model still orders the protocols like the committed
    coefficients, and distill it all into BENCH_optimizer.json."""
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from bench_optimizer import optimizer_sweep, refit_agreement

    print("== optimizer sweep: optimized vs All-barrier over the zoo ==")
    sweep = optimizer_sweep(seeds=(0,) if args.smoke else (0, 1))
    comparisons = sweep["comparisons"]
    total = len(comparisons)
    identical = sum(1 for c in comparisons if c["byte_identical"])
    upgraded = [c for c in comparisons if c["upgraded"]]
    upgraded_cheaper = [c for c in upgraded if c["measured_cheaper"]]
    agree = sum(1 for c in comparisons if c["prediction_agrees"])
    print(
        f"  {total} comparisons over {sweep['programs']} programs: "
        f"{identical} byte-identical, {len(upgraded)} upgraded "
        f"({len(upgraded_cheaper)} measured-cheaper), "
        f"{agree} prediction-agreeing"
    )
    for c in upgraded:
        opt, bar = c["optimized"]["measured"], c["barrier"]["measured"]
        print(
            f"    {c['program']} seed={c['seed']}: "
            f"{c['baseline_monotonicity'] or 'barrier'} -> "
            f"{c['effective_monotonicity']} via {c['optimized']['protocol']}"
            f" rounds {opt['rounds']:g} vs {bar['rounds']:g}, transitions "
            f"{opt['transitions']:g} vs {bar['transitions']:g}"
            f" {'CHEAPER' if c['measured_cheaper'] else 'not cheaper'}"
        )

    print("== cost-model refit agreement ==")
    refit = refit_agreement(smoke=args.smoke)
    print(
        f"  committed {'/'.join(refit['committed_order'])} vs refit "
        f"{'/'.join(refit['fitted_order'])} "
        f"({'ok' if refit['agrees'] else 'DISAGREE'})"
    )

    failures = []
    ratios = {
        "optimizer_byte_identical": identical / total if total else 0.0,
        "optimizer_upgraded_cheaper": (
            len(upgraded_cheaper) / len(upgraded) if upgraded else 0.0
        ),
        "optimizer_prediction_agreement": agree / total if total else 0.0,
    }
    headline = {}
    for metric, minimum in OPTIMIZER_TARGETS.items():
        value = ratios[metric]
        ok = value >= minimum
        headline[metric] = {
            "speedup": round(value, 3),
            "target": minimum,
            "ok": ok,
        }
        print(
            f"  headline {metric}: {value:.2f} (target >= {minimum}) "
            f"{'ok' if ok else 'FAILED'}"
        )
        if not ok:
            failures.append(f"{metric}: {value:.2f} below target {minimum}")
    if not refit["agrees"]:
        failures.append(
            "cost-model refit no longer orders the protocols like the "
            "committed coefficients"
        )

    if args.compare_baseline is not None:
        print(f"== compare-baseline: {args.compare_baseline} ==")
        failures.extend(
            compare_baseline(
                Path(args.compare_baseline), headline, suite="bench_optimizer"
            )
        )

    entry = {
        "date": datetime.date.today().isoformat(),
        "mode": "smoke" if args.smoke else "full",
        "headline": headline,
        "sweep": sweep,
        "refit": refit,
    }
    output = Path(args.output or str(REPO / "BENCH_optimizer.json"))
    report = load_history(output, suite="bench_optimizer")
    report["history"] = upsert_history(report["history"], entry)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output} ({len(report['history'])} history entr"
          f"{'y' if len(report['history']) == 1 else 'ies'})")
    if failures:
        print("FAILURES:\n  " + "\n  ".join(failures))
        return 1
    return 0


#: The scenario gate's commitment: every committed streaming scenario
#: passes cross-runtime confluence + the delta-preservation oracle.
SCENARIO_TARGETS = {"scenario_gate_pass": 1.0}


def scenarios_main(args) -> int:
    """``--scenarios`` mode: replay the committed streaming-scenario
    library across all runtimes (including one real-SIGKILL recovery per
    scenario) and distill the verdicts into BENCH_scenarios.json."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.streaming import check_stream_scenario, scenario_library

    scenarios = scenario_library()
    if not scenarios:
        print("FAILURES:\n  no scenarios found under scenarios/")
        return 1

    failures = []
    records = []
    for scenario in scenarios:
        start = time.perf_counter()
        verdict = check_stream_scenario(scenario)
        wall = time.perf_counter() - start
        record = verdict.to_dict()
        record["wall_s"] = round(wall, 3)
        records.append(record)
        oracle_note = (
            f"oracle={scenario.oracle}"
            if verdict.oracle_checked
            else f"oracle={scenario.oracle} (confluence only)"
        )
        print(
            f"  {scenario.name:<26} {oracle_note:<32} "
            f"epochs={verdict.epochs} runtimes={len(verdict.runtimes)} "
            f"recoveries={verdict.recoveries} {wall:.1f}s "
            f"{'ok' if verdict.passed else 'FAILED'}"
        )
        if not verdict.passed:
            details = "; ".join(verdict.preservation_failures) or (
                "per-epoch fingerprints diverged across runtimes"
                if not verdict.fingerprints_ok
                else "kill run exercised no recovery"
            )
            failures.append(f"{scenario.name}: {details}")

    passed = sum(1 for record in records if record["passed"])
    ratio = passed / len(records)
    headline = {
        "scenario_gate_pass": {
            "speedup": round(ratio, 3),
            "target": SCENARIO_TARGETS["scenario_gate_pass"],
            "ok": ratio >= SCENARIO_TARGETS["scenario_gate_pass"],
        }
    }
    print(
        f"  headline scenario_gate_pass: {passed}/{len(records)} "
        f"(target: all) {'ok' if ratio >= 1.0 else 'FAILED'}"
    )

    if args.compare_baseline is not None:
        print(f"== compare-baseline: {args.compare_baseline} ==")
        failures.extend(
            compare_baseline(
                Path(args.compare_baseline), headline, suite="bench_scenarios"
            )
        )

    entry = {
        "date": datetime.date.today().isoformat(),
        "mode": "smoke" if args.smoke else "full",
        "headline": headline,
        "scenarios": records,
    }
    output = Path(args.output or str(REPO / "BENCH_scenarios.json"))
    report = load_history(output, suite="bench_scenarios")
    report["history"] = upsert_history(report["history"], entry)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output} ({len(report['history'])} history entr"
          f"{'y' if len(report['history']) == 1 else 'ies'})")
    if failures:
        print("FAILURES:\n  " + "\n  ".join(failures))
        return 1
    return 0


#: Service-mode gates, expressed as ratios so the shared baseline
#: comparison applies: 1.0 means the property held on every sample.
SERVICE_TARGETS = {
    "service_zero_drops": 1.0,
    "service_fingerprint_parity": 1.0,
    "service_cf_cheaper_than_barrier": 1.0,
}


def service_main(args) -> int:
    """``--service`` mode: run the multi-tenant load test from
    ``benchmarks/bench_service.py``, then build the committed report by
    *querying the run store* the service wrote — routing table, the
    coordination-cost comparison, per-tenant counts, and report-schema
    validation all come from :class:`repro.service.RunStore` aggregates
    (the DataProvider pattern), never from numbers the client kept."""
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from bench_service import service_load_test

    from repro.service import RunStore
    from repro.transducers.telemetry import validate_report_dict  # noqa: F401

    requests = 60 if args.smoke else 240
    print(f"== service load test: {requests} POSTs ==")
    data = service_load_test(requests=requests)
    print(
        f"  {data['requests_ok']}/{data['requests_planned']} ok, "
        f"{data['dropped']} dropped, {data['retries_429']} rate-limited "
        f"retries, {data['throughput_rps']} req/s, "
        f"p95 {data['latency_p95_s']}s"
    )

    # Everything reported below is re-read from the store.
    store = RunStore(data["store_path"])
    try:
        stored_runs = store.run_count()
        tenants = store.tenant_summary()
        routing = store.routing_table()
        comparison = store.coordination_comparison()
        # all_reports() re-validates every stored report against the
        # telemetry schema on the way out — a raise here is a gate failure.
        validated_reports = sum(1 for _ in store.all_reports())
    finally:
        store.close()
        try:
            os.unlink(data["store_path"])
        except OSError:
            pass

    failures = []
    cheaper = data["cf_cheaper_than_barrier"]
    ratios = {
        "service_zero_drops": 1.0 if data["dropped"] == 0 else 0.0,
        "service_fingerprint_parity": 1.0 if data["fingerprint_parity"] else 0.0,
        "service_cf_cheaper_than_barrier": (
            sum(cheaper.values()) / len(cheaper) if cheaper else 0.0
        ),
    }
    headline = {}
    for metric, minimum in SERVICE_TARGETS.items():
        value = ratios[metric]
        ok = value >= minimum
        headline[metric] = {"speedup": round(value, 3), "target": minimum, "ok": ok}
        print(f"  headline {metric}: {value:.2f} (target >= {minimum}) "
              f"{'ok' if ok else 'FAILED'}")
        if not ok:
            failures.append(f"{metric}: {value:.2f} below target {minimum}")
    for fragment, ok in sorted(cheaper.items()):
        print(f"    {fragment}: coordination-free vs barrier "
              f"{'cheaper' if ok else 'NOT CHEAPER'}")
    if validated_reports != stored_runs:
        failures.append(
            f"only {validated_reports}/{stored_runs} stored reports "
            "passed schema validation"
        )

    if args.compare_baseline is not None:
        print(f"== compare-baseline: {args.compare_baseline} ==")
        failures.extend(
            compare_baseline(
                Path(args.compare_baseline), headline, suite="bench_service"
            )
        )

    entry = {
        "date": datetime.date.today().isoformat(),
        "mode": "smoke" if args.smoke else "full",
        "headline": headline,
        "load": {
            key: data[key]
            for key in (
                "requests_planned",
                "requests_ok",
                "dropped",
                "retries_429",
                "retries_503",
                "tenants",
                "threads",
                "wall_s",
                "throughput_rps",
                "latency_mean_s",
                "latency_p95_s",
            )
        },
        "store": {
            "stored_runs": stored_runs,
            "validated_reports": validated_reports,
            "per_tenant": tenants,
        },
        "routing_table": routing,
        "coordination_comparison": comparison,
    }
    output = Path(args.output or str(REPO / "BENCH_service.json"))
    report = load_history(output, suite="bench_service")
    report["history"] = upsert_history(report["history"], entry)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output} ({len(report['history'])} history entr"
          f"{'y' if len(report['history']) == 1 else 'ies'})")
    if failures:
        print("FAILURES:\n  " + "\n  ".join(failures))
        return 1
    return 0


#: mode flag -> (committed artifact, what runs, handler).
MODES = {
    "scaling": (
        "BENCH_scaling.json",
        "multi-process scaling sweep (bench_scaling.scaling_sweep)",
        scaling_main,
    ),
    "service": (
        "BENCH_service.json",
        "service load test (bench_service.service_load_test)",
        service_main,
    ),
    "scenarios": (
        "BENCH_scenarios.json",
        "streaming-scenario gate (repro.streaming.check_stream_scenario)",
        scenarios_main,
    ),
    "optimizer": (
        "BENCH_optimizer.json",
        "per-stratum optimizer gate (bench_optimizer.optimizer_sweep)",
        optimizer_main,
    ),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI smoke mode: smallest sizes, 1 round")
    mode_flags = parser.add_mutually_exclusive_group(required=True)
    for mode, (artifact, banner, _) in MODES.items():
        mode_flags.add_argument(
            f"--{mode}",
            dest="mode",
            action="store_const",
            const=mode,
            help=f"{banner}; writes {artifact}",
        )
    parser.add_argument("--output", default=None)
    parser.add_argument(
        "--compare-baseline",
        nargs="?",
        const="",
        default=None,
        metavar="BASELINE_JSON",
        help="also compare headline speedups against the committed baseline "
        "file (default: the mode's repo-root artifact) and fail on any "
        "metric regressing below its committed target",
    )
    args = parser.parse_args()
    artifact, banner, handler = MODES[args.mode]
    if args.compare_baseline == "":
        args.compare_baseline = str(REPO / artifact)
    print(f"== {banner} ==")
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())

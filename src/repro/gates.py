"""The gate registry: what is gated, at which size, against which floor,
into which file shape — said once.

The repo's correctness claim (every runtime computes ``Q(I)``
byte-identically under any schedule, fault, crash or epoch split its class
permits) is held by three gates, and its claims about the paper by a
fourth.  Each is a generator of per-item verdict records that already exist
elsewhere — :func:`~repro.cluster.gate.check_workload`,
:func:`~repro.streaming.check_stream_scenario`,
:func:`~repro.optimizer.run_comparison`, the drivers of
:mod:`repro.core.experiments` — plus its floors as data.
:func:`run_gate` owns the only progress printer, the only
headline-vs-floor loop and the only artifact schema::

    {"gate": name,
     "stamp": {"date", "python", "commit" (or null)},
     "mode": "smoke" | "full",
     "headline": {metric: {"value", "floor", "ok"}},
     "records": [{..., "passed", "wall_s"}],
     "passed": every headline cell ok}

``repro gate <name> [--smoke] [--output PATH]`` is the one entry point; the
committed ``BENCH_<name>.json`` at the repo root is a full run of it, and
git is the time series.  A new gate registers in :data:`GATES`.
"""

from __future__ import annotations

import datetime
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

__all__ = ["GATES", "Gate", "run_gate", "validate_artifact"]


@dataclass(frozen=True)
class Gate:
    """One registered gate.  ``records(smoke)`` yields JSON-ready verdict
    dicts, each carrying ``"passed"``; ``line(record)`` is the record's
    progress line; ``headline(records)`` distils the records into one value
    per key of ``floors`` — by default the share of records that passed."""

    title: str
    records: Callable[[bool], Iterable[dict]]
    floors: dict[str, float]
    line: Callable[[dict], str]
    headline: Callable[[list[dict]], dict[str, float]] | None = None


def _share(records: list[dict], key: str = "passed") -> float:
    """The fraction of *records* whose *key* holds; an empty sweep gates
    nothing, so it scores 0."""
    return sum(1 for r in records if r[key]) / len(records) if records else 0.0


# ----------------------------------------------------------------------
# cluster: quiescence-equivalence of the asyncio runtime vs the simulator
# ----------------------------------------------------------------------


def _cluster_records(smoke: bool) -> Iterable[dict]:
    """Every gate workload through seeds × {memory, tcp} × {clean, chaos,
    chaos+crash}: 20 seeds per cell, 5 under ``--smoke``."""
    from .cluster.gate import check_workload, gate_workloads

    for workload in gate_workloads():
        yield check_workload(workload, seeds=range(5 if smoke else 20)).to_dict()


# ----------------------------------------------------------------------
# scenarios: per-epoch trajectories of the committed streaming scenarios
# ----------------------------------------------------------------------


def _scenario_records(smoke: bool) -> Iterable[dict]:
    """Every scenario under ``scenarios/`` on all four arms (sync, asyncio,
    processes, processes + SIGKILL).  The scenarios are tiny, so ``--smoke``
    relaxes nothing."""
    from .streaming import check_stream_scenario, scenario_library

    for scenario in scenario_library():
        yield check_stream_scenario(scenario).to_dict()


# ----------------------------------------------------------------------
# optimizer: paired optimized-vs-barrier runs over the zoo + refit ordering
# ----------------------------------------------------------------------

REFIT = "refit-ordering"


def _refit_record(smoke: bool) -> dict:
    """Refit the cost model from fresh calibration sweeps and check that it
    orders the protocols at the gate's network size like the committed
    coefficients do."""
    from .cluster.gate import GATE_NETWORK_NODES
    from .optimizer import (
        DEFAULT_COST_MODEL,
        calibration_observations,
        fit_cost_model,
    )

    sizes = {"node_counts": (1, 3), "edge_counts": (4, 8)} if smoke else {}
    fitted = fit_cost_model(calibration_observations(**sizes))

    def ordering(model) -> list[str]:
        kinds = ("broadcast", "distinct", "disjoint", "barrier")
        return sorted(
            kinds,
            key=lambda kind: model.predict(
                kind, nodes=len(GATE_NETWORK_NODES), facts=8
            ).ordering_key(),
        )

    committed_order, fitted_order = ordering(DEFAULT_COST_MODEL), ordering(fitted)
    return {
        "program": REFIT,
        "committed_order": committed_order,
        "fitted_order": fitted_order,
        "fitted": fitted.to_dict(),
        "passed": committed_order == fitted_order,
    }


def _optimizer_records(smoke: bool) -> Iterable[dict]:
    """One paired comparison per (zoo program, seed) on the cluster gate's
    witness instances — a comparison passes iff its two arms are
    byte-identical — then the refit-ordering record."""
    from .cluster.gate import GATE_NETWORK_NODES, ZOO_INSTANCES
    from .datalog.instance import Instance
    from .datalog.parser import parse_facts
    from .optimizer import plan_optimized, run_comparison
    from .queries.zoo import zoo_entries

    for entry in zoo_entries():
        program = entry.program()
        optimized = plan_optimized(program)
        instance = Instance(parse_facts(ZOO_INSTANCES[entry.name]))
        for seed in (0,) if smoke else (0, 1):
            comparison = run_comparison(
                program, instance, nodes=len(GATE_NETWORK_NODES), seed=seed
            )
            yield {
                "program": entry.name,
                "fragment": entry.fragment,
                "baseline_monotonicity": optimized.baseline.analysis.monotonicity,
                "effective_monotonicity": optimized.effective_monotonicity,
                "seed": seed,
                **comparison.to_dict(),
                "passed": comparison.byte_identical,
            }
    yield _refit_record(smoke)


def _optimizer_headline(records: list[dict]) -> dict[str, float]:
    comparisons = [r for r in records if r["program"] != REFIT]
    return {
        "optimizer_byte_identical": _share(comparisons, "byte_identical"),
        "optimizer_upgraded_cheaper": _share(
            [c for c in comparisons if c["upgraded"]], "measured_cheaper"
        ),
        "optimizer_prediction_agreement": _share(comparisons, "prediction_agrees"),
        "optimizer_refit_ordering": _share(
            [r for r in records if r["program"] == REFIT]
        ),
    }


def _optimizer_line(record: dict) -> str:
    if record["program"] == REFIT:
        return (
            f"{REFIT:<26} committed {'/'.join(record['committed_order'])} "
            f"vs refit {'/'.join(record['fitted_order'])}"
        )
    optimized, barrier = record["optimized"], record["barrier"]
    return (
        f"{record['program']:<26} seed={record['seed']} "
        f"{optimized['protocol'].partition('[')[0]:<9} rounds "
        f"{optimized['measured']['rounds']:g} vs {barrier['measured']['rounds']:g}"
        f"{'  upgraded' if record['upgraded'] else ''}"
        f"{'' if record['prediction_agrees'] else '  (model disagrees)'}"
    )


# ----------------------------------------------------------------------
# paper: every claim the repo makes about the paper, one record per claim
# ----------------------------------------------------------------------


def _paper_records(smoke: bool) -> Iterable[dict]:
    """One record per claim row of every paper driver, in document order
    (EXPERIMENTS.md is rendered from them).  The drivers are small, so
    ``--smoke`` relaxes nothing."""
    from .core import experiments

    for driver in experiments.PAPER_DRIVERS:
        for row in driver():
            yield row.record()


#: name -> gate.  The floors are the acceptance bars: no divergence, every
#: scenario, sound routing (byte-identity everywhere), every genuine upgrade
#: measured-cheaper, cost-model ordering agreement (near-ties may
#: honestly disagree), and every paper claim.
GATES: dict[str, Gate] = {
    "cluster": Gate(
        title="asyncio cluster vs synchronous simulator, per workload",
        records=_cluster_records,
        floors={"cluster_no_divergence": 1.0},
        line=lambda r: (
            f"{r['key']:<28} {r['runs']:4d} runs, {r['crash_runs']} crash runs "
            f"(min recoveries {r['min_recoveries']})"
        ),
    ),
    "scenarios": Gate(
        title="streaming scenarios, per-epoch fingerprints across four arms",
        records=_scenario_records,
        floors={"scenario_gate_pass": 1.0},
        line=lambda r: (
            f"{r['scenario']:<26} oracle={r['oracle']:<9} epochs={r['epochs']} "
            f"arms={len(r['runtimes'])} recoveries={r['recoveries']}"
        ),
    ),
    "optimizer": Gate(
        title="optimized vs All-barrier over the zoo, then the cost-model refit",
        records=_optimizer_records,
        floors={
            "optimizer_byte_identical": 1.0,
            "optimizer_upgraded_cheaper": 1.0,
            "optimizer_prediction_agreement": 0.85,
            "optimizer_refit_ordering": 1.0,
        },
        headline=_optimizer_headline,
        line=_optimizer_line,
    ),
    "paper": Gate(
        title="the paper's figures, theorems and lemmas, one record per claim",
        records=_paper_records,
        floors={"paper_claims_verified": 1.0},
        line=lambda r: f"{r['experiment']:<7} {r['claim'][:60]}",
    ),
}


def _stamp() -> dict:
    """Where and when an artifact was taken."""
    root = Path(__file__).resolve().parents[2]
    commit = None
    if (root / ".git").exists():  # never look for a repository above the checkout
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "commit": commit,
    }


def run_gate(name: str, *, smoke: bool = False, out=None) -> dict:
    """Run the gate registered as *name* and return its artifact (module
    docstring); progress goes to *out* (default ``sys.stdout``)."""
    out = out if out is not None else sys.stdout
    gate = GATES[name]
    mode = "smoke" if smoke else "full"
    print(f"== gate {name} ({mode}): {gate.title} ==", file=out, flush=True)
    records = []
    started = time.perf_counter()
    for record in gate.records(smoke):
        record["wall_s"] = round(time.perf_counter() - started, 3)
        records.append(record)
        print(
            f"  {gate.line(record)}  {record['wall_s']:.1f}s "
            f"{'ok' if record['passed'] else 'FAILED'}",
            file=out, flush=True,
        )
        started = time.perf_counter()
    values = (
        gate.headline(records)
        if gate.headline
        else dict.fromkeys(gate.floors, _share(records))
    )
    headline = {}
    for metric, floor in gate.floors.items():
        value = round(values[metric], 3)
        ok = value >= floor
        headline[metric] = {"value": value, "floor": floor, "ok": ok}
        print(
            f"  headline {metric}: {value:.3f} (floor {floor}) "
            f"{'ok' if ok else 'FAILED'}",
            file=out,
        )
    return {
        "gate": name,
        "stamp": _stamp(),
        "mode": mode,
        "headline": headline,
        "records": records,
        "passed": all(cell["ok"] for cell in headline.values()),
    }


def validate_artifact(payload: dict) -> list[str]:
    """Every way *payload* departs from the artifact schema of a registered
    gate (empty when it conforms).  Says nothing about whether the gate
    passed — that is ``payload["passed"]``."""
    if not isinstance(payload, dict):
        return ["artifact is not a JSON object"]
    expected = {"gate", "stamp", "mode", "headline", "records", "passed"}
    if set(payload) != expected:
        return [f"top-level keys are {sorted(payload)}, not {sorted(expected)}"]
    gate = GATES.get(payload["gate"])
    if gate is None:
        return [f"unknown gate {payload['gate']!r}"]
    problems = []
    stamp = payload["stamp"]
    if not isinstance(stamp, dict) or set(stamp) != {"date", "python", "commit"}:
        problems.append(f"stamp is {stamp!r}, not {{date, python, commit}}")
    if payload["mode"] not in ("smoke", "full"):
        problems.append(f"mode is {payload['mode']!r}")
    headline = payload["headline"]
    if not isinstance(headline, dict) or set(headline) != set(gate.floors):
        return problems + [f"headline metrics are not {sorted(gate.floors)}"]
    for metric, floor in gate.floors.items():
        cell = headline[metric]
        if not isinstance(cell, dict) or set(cell) != {"value", "floor", "ok"}:
            problems.append(f"{metric}: cell is {cell!r}")
        elif cell["floor"] != floor:
            problems.append(f"{metric}: floor {cell['floor']} is not {floor}")
        elif not isinstance(cell["value"], (int, float)) or (
            cell["ok"] is not (cell["value"] >= floor)
        ):
            problems.append(f"{metric}: ok={cell['ok']!r} at value {cell['value']!r}")
    records = payload["records"]
    if not isinstance(records, list) or not records:
        problems.append("records is not a non-empty list")
    elif not all(
        isinstance(r, dict) and isinstance(r.get("passed"), bool) for r in records
    ):
        problems.append("a record carries no boolean 'passed'")
    if not problems and payload["passed"] is not all(
        cell["ok"] for cell in headline.values()
    ):
        problems.append(f"passed={payload['passed']} contradicts the headline")
    return problems

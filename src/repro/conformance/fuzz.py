"""The ``repro fuzz`` driver: budgeted differential + metamorphic fuzzing.

Each iteration derives its own RNG stream from ``(seed, iteration)``, draws
a fragment-targeted program and a random instance, picks runtime knobs
(scheduler, transport, chaos / crash schedules) round-robin so the whole
matrix is exercised at every budget, then

1. runs the case through all four stacks (differential oracle) — and,
   every third iteration, a second case drawn from the non-stratifiable
   targets on its own RNG stream, so the naive stack's Γ meets the
   kernel's alternating fixpoint and the runtimes that ride it,
2. checks the fragment's guaranteed monotonicity class on random deltas
   (metamorphic oracle), and
3. streams a kind-admissible delta feed through a live runtime and checks
   delta preservation mid-run (streaming oracle; the runtime rotates
   sync → asyncio cluster → process cluster on a deterministic cadence),
   and
4. holds the per-stratum optimizer's routing decision to its soundness
   obligations — evidence-audited certificate, downward-consistent
   strata, empirical non-refutation, and byte-identity of the optimized
   execution against the All-barrier baseline (optimizer oracle).

Failures are shrunk and persisted to the corpus (when a corpus directory
is given) and always surface in the JSON telemetry report.  Everything is
deterministic given ``--seed`` — two runs with the same seed produce the
same report minus the ``timing`` section.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace

from ..transducers.faults import SCHEDULER_NAMES
from .differential import DifferentialCase, run_case
from .generator import (
    FRAGMENT_TARGETS,
    WFS_TARGETS,
    sample_instance,
    sample_program,
)
from .metamorphic import check_metamorphic
from .shrinker import default_failure_predicate, shrink_case
from .stacks import DEFAULT_STACK_NAMES, StackContext, build_stacks
from .optimizer import check_optimizer, shrink_optimizer
from .streaming import check_streaming, shrink_streaming

__all__ = ["FUZZ_REPORT_VERSION", "FuzzConfig", "run_fuzz", "write_fuzz_report"]

#: Bumped whenever the fuzz report JSON layout changes incompatibly.
FUZZ_REPORT_VERSION = 3

_SCHEDULERS = tuple(sorted(SCHEDULER_NAMES))

#: Every Nth iteration also runs one well-founded differential case.
_WFS_EVERY = 3


@dataclass(frozen=True)
class FuzzConfig:
    """Budgets and knobs for one fuzz run."""

    seed: int = 0
    iterations: int = 100
    #: Wall-clock budget in seconds; ``None`` means iterations-only.
    time_budget: float | None = None
    stacks: tuple[str, ...] = DEFAULT_STACK_NAMES
    corpus_dir: str | None = None
    #: stack name -> mutation name (planted-bug validation runs only).
    mutate: dict[str, str] = field(default_factory=dict)
    nodes: tuple[str, ...] = ("n1", "n2", "n3")
    metamorphic: bool = True
    streaming: bool = True
    optimizer: bool = True
    shrink: bool = True
    #: Run the slower cluster knobs (tcp transport / crash schedule) every
    #: Nth iteration; 0 disables them entirely.
    tcp_every: int = 5
    crash_every: int = 7
    #: Streaming-oracle runtime rotation: stream through the asyncio
    #: cluster every Nth iteration and the process cluster every Mth
    #: (procs wins ties); other iterations use the sync simulator.
    #: 0 disables that runtime.
    stream_cluster_every: int = 6
    stream_procs_every: int = 25


def _iteration_context(config: FuzzConfig, iteration: int) -> StackContext:
    """Round-robin over the runtime matrix, deterministically."""
    chaos = iteration % 2 == 1
    transport = (
        "tcp"
        if config.tcp_every and iteration % config.tcp_every == config.tcp_every - 1
        else "memory"
    )
    crash = bool(
        config.crash_every
        and iteration % config.crash_every == config.crash_every - 1
    )
    return StackContext(
        seed=config.seed * 1_000_003 + iteration,
        nodes=config.nodes,
        scheduler=_SCHEDULERS[iteration % len(_SCHEDULERS)],
        chaos=chaos or crash,
        transport=transport,
        crash=crash,
    )


def _stream_runtime(config: FuzzConfig, iteration: int) -> str:
    if (
        config.stream_procs_every
        and iteration % config.stream_procs_every == config.stream_procs_every - 1
    ):
        return "procs"
    if (
        config.stream_cluster_every
        and iteration % config.stream_cluster_every == config.stream_cluster_every - 1
    ):
        return "cluster"
    return "sync"


def _derived_rng(seed: int, iteration: int, stream: str = "") -> random.Random:
    # Hash-derived integer seed: stable across processes and PYTHONHASHSEED
    # (tuple seeds would go through hash() and break byte-reproducibility).
    digest = hashlib.sha256(
        f"repro-fuzz{stream}:{seed}:{iteration}".encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def run_fuzz(config: FuzzConfig, *, log=None) -> dict:
    """Run the fuzz loop; returns the JSON-ready telemetry report."""
    from .corpus import entry_from_verdict, write_entry

    stacks = build_stacks(config.stacks)
    started = time.monotonic()
    divergences: list[dict] = []
    metamorphic_violations: list[dict] = []
    streaming_violations: list[dict] = []
    optimizer_violations: list[dict] = []
    streaming_runtimes: dict[str, int] = {}
    corpus_paths: list[str] = []
    cases_by_fragment: dict[str, int] = {}
    wfs_cases: dict[str, int] = {}
    iterations_run = 0
    stop_reason = "iterations"

    def check_differential(
        case: DifferentialCase, iteration: int, target_name: str
    ) -> None:
        verdict = run_case(case, stacks=stacks, mutate=config.mutate or None)
        if verdict.passed:
            return
        if config.shrink:
            predicate = default_failure_predicate(
                stacks=config.stacks, mutate=config.mutate or None
            )
            minimized = shrink_case(case, predicate)
            verdict = run_case(
                minimized, stacks=config.stacks, mutate=config.mutate or None
            )
        record = verdict.provenance()
        record["iteration"] = iteration
        record["fragment_target"] = target_name
        divergences.append(record)
        if config.corpus_dir is not None:
            entry = entry_from_verdict(verdict)
            path = write_entry(config.corpus_dir, entry)
            corpus_paths.append(str(path))
        if log is not None:
            log(
                f"iteration {iteration}: DIVERGENCE "
                f"({len(verdict.divergences)} stack(s) disagree)"
            )

    for iteration in range(config.iterations):
        if (
            config.time_budget is not None
            and time.monotonic() - started > config.time_budget
        ):
            stop_reason = "time-budget"
            break
        iterations_run += 1
        rng = _derived_rng(config.seed, iteration)
        target = FRAGMENT_TARGETS[iteration % len(FRAGMENT_TARGETS)]
        cases_by_fragment[target.name] = cases_by_fragment.get(target.name, 0) + 1
        program = sample_program(rng, target)
        instance = sample_instance(rng, program.edb())
        context = _iteration_context(config, iteration)
        case = DifferentialCase(
            program=program, instance=instance, context=context
        )

        check_differential(case, iteration, target.name)
        if iteration % _WFS_EVERY == _WFS_EVERY - 1:
            wfs_rng = _derived_rng(config.seed, iteration, "-wfs")
            wfs_target = WFS_TARGETS[(iteration // _WFS_EVERY) % len(WFS_TARGETS)]
            wfs_cases[wfs_target.name] = wfs_cases.get(wfs_target.name, 0) + 1
            wfs_program = sample_program(wfs_rng, wfs_target)
            check_differential(
                DifferentialCase(
                    program=wfs_program,
                    instance=sample_instance(wfs_rng, wfs_program.edb()),
                    context=context,
                ),
                iteration,
                wfs_target.name,
            )

        if config.metamorphic:
            violation = check_metamorphic(program, instance, rng)
            if violation is not None:
                record = violation.to_dict()
                record["iteration"] = iteration
                record["fragment_target"] = target.name
                metamorphic_violations.append(record)
                if log is not None:
                    log(f"iteration {iteration}: METAMORPHIC {violation.describe()}")

        if config.streaming:
            runtime = _stream_runtime(config, iteration)
            stream_mutate = config.mutate.get("streaming")
            violation = check_streaming(
                program,
                instance,
                rng,
                context,
                runtime=runtime,
                mutate=stream_mutate,
            )
            streaming_runtimes[runtime] = streaming_runtimes.get(runtime, 0) + 1
            if violation is not None:
                if config.shrink:
                    violation = shrink_streaming(
                        violation, context, mutate=stream_mutate
                    )
                record = violation.to_dict()
                record["iteration"] = iteration
                record["fragment_target"] = target.name
                streaming_violations.append(record)
                if log is not None:
                    log(f"iteration {iteration}: STREAMING {violation.describe()}")

        if config.optimizer:
            optimizer_mutate = config.mutate.get("optimizer")
            violation = check_optimizer(
                program,
                instance,
                rng,
                context,
                mutate=optimizer_mutate,
            )
            if violation is not None:
                if config.shrink:
                    violation = shrink_optimizer(
                        violation, context, mutate=optimizer_mutate
                    )
                record = violation.to_dict()
                record["iteration"] = iteration
                record["fragment_target"] = target.name
                optimizer_violations.append(record)
                if log is not None:
                    log(f"iteration {iteration}: OPTIMIZER {violation.describe()}")

    elapsed = time.monotonic() - started
    report = {
        "version": FUZZ_REPORT_VERSION,
        "seed": config.seed,
        "stacks": list(config.stacks),
        "mutations": dict(config.mutate),
        "iterations_requested": config.iterations,
        "iterations_run": iterations_run,
        "stop_reason": stop_reason,
        "cases_by_fragment": cases_by_fragment,
        "wfs_cases": wfs_cases,
        "divergences": divergences,
        "metamorphic_violations": metamorphic_violations,
        "streaming_violations": streaming_violations,
        "optimizer_violations": optimizer_violations,
        "streaming_runtimes": streaming_runtimes,
        "corpus_entries": corpus_paths,
        "passed": not divergences
        and not metamorphic_violations
        and not streaming_violations
        and not optimizer_violations,
        "timing": {
            "elapsed_seconds": round(elapsed, 3),
            "seconds_per_iteration": round(elapsed / max(1, iterations_run), 4),
        },
    }
    return report


def write_fuzz_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

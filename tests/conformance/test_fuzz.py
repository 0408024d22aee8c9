"""The fuzz driver: determinism, budgets, and planted-bug validation."""

from __future__ import annotations

import copy

import pytest

from repro.conformance.corpus import corpus_entries, load_entry, replay_entry
from repro.conformance.fuzz import (
    FUZZ_REPORT_VERSION,
    FuzzConfig,
    run_fuzz,
    write_fuzz_report,
)

FAST_STACKS = ("naive", "kernel")


def _strip_timing(report: dict) -> dict:
    stripped = copy.deepcopy(report)
    stripped.pop("timing")
    return stripped


def test_report_shape_and_versioning():
    report = run_fuzz(FuzzConfig(seed=1, iterations=6, stacks=FAST_STACKS))
    assert report["version"] == FUZZ_REPORT_VERSION
    assert report["iterations_run"] == 6
    assert report["stop_reason"] == "iterations"
    assert sum(report["cases_by_fragment"].values()) == 6
    assert report["passed"] is True
    assert set(report["timing"]) == {"elapsed_seconds", "seconds_per_iteration"}


def test_same_seed_same_report():
    """Byte-level determinism: only the timing section may differ."""
    config = FuzzConfig(seed=42, iterations=10, stacks=FAST_STACKS)
    first = run_fuzz(config)
    second = run_fuzz(config)
    assert _strip_timing(first) == _strip_timing(second)


def test_different_seeds_draw_different_cases():
    one = run_fuzz(FuzzConfig(seed=1, iterations=4, stacks=FAST_STACKS))
    two = run_fuzz(FuzzConfig(seed=2, iterations=4, stacks=FAST_STACKS))
    assert _strip_timing(one) != _strip_timing(two)


def test_time_budget_stops_the_loop():
    report = run_fuzz(
        FuzzConfig(seed=0, iterations=10_000, time_budget=0.0)
    )
    assert report["stop_reason"] == "time-budget"
    assert report["iterations_run"] < 10_000


def test_full_stack_iterations_are_clean():
    """A slice of the acceptance run (the 200-iteration version is in the
    fuzz tier); every runtime knob combination appears within 35 iterations."""
    report = run_fuzz(FuzzConfig(seed=0, iterations=35))
    assert report["passed"] is True, report["divergences"]
    assert report["divergences"] == []
    assert report["metamorphic_violations"] == []


def test_planted_bug_is_caught_and_minimized(tmp_path):
    """Acceptance: a planted evaluator bug is found in <200 iterations and
    lands in the corpus as a minimized, replayable entry."""
    report = run_fuzz(
        FuzzConfig(
            seed=0,
            iterations=200,
            stacks=FAST_STACKS,
            mutate={"kernel": "strip-inequalities"},
            corpus_dir=str(tmp_path),
            metamorphic=False,
        )
    )
    assert report["passed"] is False
    assert report["divergences"]
    first = report["divergences"][0]
    assert first["iteration"] < 200
    assert any(
        outcome["stack"] == "kernel" and outcome["fingerprint"]
        for outcome in first["outcomes"]
    )
    # Minimized: a handful of rules/facts, not the raw generated case.
    assert len(first["program"].splitlines()) <= 3
    entries = corpus_entries(tmp_path)
    assert entries
    # With the bug "fixed" (no mutation), every corpus entry replays clean.
    for path in entries:
        assert replay_entry(load_entry(path), stacks=FAST_STACKS).passed


def test_wfs_side_stream_leaves_the_main_case_sequence_alone():
    """Every third iteration adds one non-stratifiable case on its own RNG
    stream; the Figure 2 round-robin (and its counts) is untouched."""
    report = run_fuzz(
        FuzzConfig(
            seed=3,
            iterations=12,
            stacks=("naive", "kernel"),
            metamorphic=False,
            streaming=False,
            optimizer=False,
        )
    )
    assert report["passed"] is True, report["divergences"]
    assert sum(report["cases_by_fragment"].values()) == 12
    assert report["wfs_cases"] == {"wfs": 2, "wfs-connected": 2}


def test_planted_wfs_bug_is_caught_by_the_wfs_cases_only():
    """Self-check for the well-founded fragment: an evaluator that stops
    after the first Γ is caught, and only by cases of the WFS targets."""
    report = run_fuzz(
        FuzzConfig(
            seed=0,
            iterations=60,
            stacks=("naive", "kernel"),
            mutate={"kernel": "wfs-over-approximation"},
            metamorphic=False,
            streaming=False,
            optimizer=False,
        )
    )
    assert report["passed"] is False
    assert report["divergences"]
    assert {d["fragment_target"] for d in report["divergences"]} <= {
        "wfs",
        "wfs-connected",
    }


def test_report_writes_as_json(tmp_path):
    import json

    report = run_fuzz(FuzzConfig(seed=5, iterations=3, stacks=FAST_STACKS))
    target = tmp_path / "fuzz.json"
    write_fuzz_report(report, str(target))
    assert json.loads(target.read_text())["seed"] == 5


@pytest.mark.fuzz
def test_acceptance_two_hundred_iterations_zero_divergences():
    """The full acceptance criterion, at full stack depth (fuzz tier)."""
    report = run_fuzz(FuzzConfig(seed=0, iterations=200))
    assert report["passed"] is True, report["divergences"]
    assert report["iterations_run"] == 200
    # Every fragment target got sampled repeatedly.
    assert all(count >= 30 for count in report["cases_by_fragment"].values())

"""Streaming-oracle tests: live delta preservation across the runtimes,
the planted retract-on-delta mutation, and the fuzzer integration."""

import random

import pytest

from repro.conformance.fuzz import FuzzConfig, _stream_runtime, run_fuzz
from repro.core.analyzer import analyze
from repro.conformance.stacks import StackContext
from repro.conformance.streaming import (
    STREAM_MUTATIONS,
    STREAM_RUNTIMES,
    check_streaming,
    shrink_streaming,
)
from repro.datalog import Instance, parse_facts, parse_program

TC = parse_program("T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).")
TC_BASE = Instance(parse_facts("E(1, 2). E(2, 3)."))


class TestCheckStreaming:
    @pytest.mark.parametrize("runtime", STREAM_RUNTIMES)
    def test_clean_program_passes(self, runtime):
        violation = check_streaming(
            TC, TC_BASE, random.Random(3), StackContext(), runtime=runtime
        )
        assert violation is None

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            check_streaming(
                TC, TC_BASE, random.Random(0), StackContext(), runtime="carrier-pigeon"
            )

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="mutation"):
            check_streaming(
                TC, TC_BASE, random.Random(0), StackContext(), mutate="drop-everything"
            )

    def test_unclassified_program_is_skipped(self):
        # A stratified program outside every guarantee class: the paper
        # promises nothing along any feed, so the oracle passes trivially.
        program = parse_program(
            "T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.\n"
            "D(x1) :- T(x1, x2, x3), T(y1, y2, y3),"
            " x1 != y1, x1 != y2, x1 != y3, x2 != y1, x2 != y2, x2 != y3,"
            " x3 != y1, x3 != y2, x3 != y3.\n"
            "O(x) :- Adom(x), not D(x)."
        )
        assert analyze(program).monotonicity is None
        violation = check_streaming(
            program, TC_BASE, random.Random(3), StackContext()
        )
        assert violation is None

    def test_planted_retraction_caught_and_shrunk(self):
        mutate = STREAM_MUTATIONS[0]
        violation = None
        rng = random.Random(0)
        for _ in range(20):
            violation = check_streaming(
                TC, TC_BASE, rng, StackContext(), mutate=mutate
            )
            if violation is not None:
                break
        assert violation is not None
        assert violation.reason == "retraction"
        assert violation.lost_text
        shrunk = shrink_streaming(violation, StackContext(), mutate=mutate)
        assert shrunk.reason == "retraction"
        # Shrinking never grows the case.
        assert len(shrunk.program_text) <= len(violation.program_text)


class TestFuzzIntegration:
    def test_runtime_rotation_is_deterministic(self):
        config = FuzzConfig(iterations=0)
        picks = [_stream_runtime(config, i) for i in range(30)]
        assert picks[5] == "cluster" and picks[24] == "procs"
        assert picks.count("sync") > picks.count("cluster") > 0

    @pytest.mark.fuzz
    def test_clean_fuzz_passes_with_streaming(self):
        report = run_fuzz(
            FuzzConfig(iterations=8, seed=2, stacks=("naive", "kernel"))
        )
        assert report["passed"], report
        assert report["streaming_violations"] == []
        assert sum(report["streaming_runtimes"].values()) > 0

    def test_planted_streaming_bug_fails_fuzz(self):
        report = run_fuzz(
            FuzzConfig(
                iterations=6,
                seed=3,
                stacks=("naive",),
                mutate={"streaming": "retract-on-delta"},
            )
        )
        assert not report["passed"]
        assert report["streaming_violations"]
        record = report["streaming_violations"][0]
        assert record["reason"] == "retraction"
        assert record["runtime"] == "sync"

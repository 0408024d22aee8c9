"""The ``paper`` gate's committed artifact is a fresh run, and EXPERIMENTS.md
is its render.

One ``repro gate paper`` run, checked driver by driver against the
committed ``BENCH_paper.json`` (``wall_s`` aside): a stale artifact or a
driver that regenerates non-deterministically fails the test of its
section, and a hand-edited EXPERIMENTS.md fails the render test."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.gates import run_gate

REPO = Path(__file__).resolve().parents[2]
ARTIFACT = REPO / "BENCH_paper.json"

#: Every experiment id, each held fresh == committed by exactly one test.
CHECKED = {
    "FIG1", "THM3.1", "L3.2", "FIG2", "THM4.3", "THM4.4", "THM4.5", "COR4.6",
    "F-HIER", "LEM5.2", "THM5.3", "THM5.4", "WM", "PROTO", "COORD", "CONF",
    "CHAOS",
}


def _claims(records, experiments):
    return [
        {key: value for key, value in record.items() if key != "wall_s"}
        for record in records
        if record["experiment"] in experiments
    ]


@pytest.fixture(scope="module")
def runs():
    fresh = run_gate("paper", out=io.StringIO())["records"]
    return fresh, json.loads(ARTIFACT.read_text())["records"]


def assert_fresh(runs, *experiments):
    fresh, committed = runs
    assert _claims(committed, experiments), f"no committed {experiments} records"
    assert _claims(fresh, experiments) == _claims(committed, experiments)


def test_every_experiment_has_a_check(runs):
    fresh, committed = runs
    assert {r["experiment"] for r in fresh + committed} == CHECKED


class TestTheoremDrivers:
    def test_theorem43(self, runs):
        assert_fresh(runs, "THM4.3")

    def test_theorem44(self, runs):
        assert_fresh(runs, "THM4.4")

    def test_theorem45(self, runs):
        assert_fresh(runs, "THM4.5", "COR4.6")

    def test_confluence_and_chaos(self, runs):
        assert_fresh(runs, "CONF", "CHAOS")

    def test_lemma52(self, runs):
        assert_fresh(runs, "LEM5.2")

    def test_winmove(self, runs):
        assert_fresh(runs, "WM")

    def test_theorem54(self, runs):
        assert_fresh(runs, "THM5.4")

    def test_f_hierarchy(self, runs):
        assert_fresh(runs, "F-HIER")


class TestSlowDrivers:
    """The drivers that search the most (I, J) pairs."""

    def test_figure1(self, runs):
        assert_fresh(runs, "FIG1", "THM3.1", "L3.2")

    def test_figure2(self, runs):
        assert_fresh(runs, "FIG2")

    def test_theorem53(self, runs):
        assert_fresh(runs, "THM5.3")


class TestCostSweep:
    def test_sweep_shapes(self, runs):
        assert_fresh(runs, "PROTO")

    def test_richer_classes_cost_more_messages(self, runs):
        """The richest class, C, costs coordination: the All-barrier."""
        assert_fresh(runs, "COORD")


class TestRendering:
    def test_report_renders_experiments_md(self, capsys):
        assert main(["report", str(ARTIFACT)]) == 0
        rendered = capsys.readouterr().out.encode()
        assert rendered == (REPO / "EXPERIMENTS.md").read_bytes()

"""Unit tests for scripts/bench_report.py history handling (legacy
migration, round-trips, same-day upserts — no duplicate entries) and the
--compare-baseline regression gate."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_report", REPO / "scripts" / "bench_report.py"
)
bench_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_report)


def _entry(date: str, mode: str = "full") -> dict:
    return {
        "date": date,
        "mode": mode,
        "divergences": [],
        "headline": {},
        "benchmarks": {},
    }


SUITE = "bench_scenarios"


class TestLoadHistory:
    def test_missing_file(self, tmp_path):
        report = bench_report.load_history(tmp_path / "nope.json", suite=SUITE)
        assert report["history"] == []
        assert report["suite"] == SUITE

    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        report = bench_report.load_history(path, suite=SUITE)
        report["history"] = bench_report.upsert_history(
            report["history"], _entry("2026-08-01")
        )
        path.write_text(json.dumps(report))
        again = bench_report.load_history(path, suite=SUITE)
        assert again["history"] == [_entry("2026-08-01")]

    def test_migrates_legacy_layout(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"benchmarks": {"t": {}}, "headline": {}}))
        report = bench_report.load_history(path, suite=SUITE)
        assert len(report["history"]) == 1
        assert report["history"][0]["date"] == bench_report.LEGACY_DATE
        assert report["history"][0]["benchmarks"] == {"t": {}}

    def test_corrupt_file_starts_fresh(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        assert bench_report.load_history(path, suite=SUITE)["history"] == []


class TestUpsertHistory:
    def test_appends_new_dates(self):
        history = [_entry("2026-08-01")]
        updated = bench_report.upsert_history(history, _entry("2026-08-02"))
        assert [e["date"] for e in updated] == ["2026-08-01", "2026-08-02"]

    def test_same_day_replaces_in_place(self):
        """Regression: two same-day runs used to leave duplicate entries."""
        history = [_entry("2026-08-01"), _entry("2026-08-02", mode="smoke")]
        updated = bench_report.upsert_history(
            history, _entry("2026-08-02", mode="full")
        )
        assert [e["date"] for e in updated] == ["2026-08-01", "2026-08-02"]
        assert updated[1]["mode"] == "full"  # replaced, position kept

    def test_collapses_preexisting_duplicates(self):
        history = [
            _entry("2026-08-01", mode="a"),
            _entry("2026-08-01", mode="b"),
            _entry("2026-08-02"),
        ]
        updated = bench_report.upsert_history(
            history, _entry("2026-08-01", mode="c")
        )
        assert [e["date"] for e in updated] == ["2026-08-01", "2026-08-02"]
        assert updated[0]["mode"] == "c"

    def test_repeated_upsert_is_idempotent(self):
        history: list = []
        for _ in range(3):
            history = bench_report.upsert_history(history, _entry("2026-08-03"))
        assert len(history) == 1

    def test_round_trip_through_file_no_duplicates(self, tmp_path):
        path = tmp_path / "bench.json"
        for mode in ("smoke", "full", "smoke"):
            report = bench_report.load_history(path, suite=SUITE)
            report["history"] = bench_report.upsert_history(
                report["history"], _entry("2026-08-06", mode=mode)
            )
            path.write_text(json.dumps(report))
        final = bench_report.load_history(path, suite=SUITE)
        assert len(final["history"]) == 1
        assert final["history"][0]["mode"] == "smoke"


def _baseline_file(tmp_path, headline: dict) -> Path:
    entry = _entry("2026-08-07")
    entry["headline"] = headline
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"suite": SUITE, "history": [entry]}))
    return path


class TestCompareBaseline:
    HEADLINE = {"scenario_gate_pass": {"speedup": 1.0, "target": 1.0, "ok": True}}

    def test_holding_the_target_passes(self, tmp_path):
        path = _baseline_file(tmp_path, self.HEADLINE)
        failures = bench_report.compare_baseline(
            path, {"scenario_gate_pass": {"speedup": 1.0}}, suite=SUITE
        )
        assert failures == []

    def test_regression_below_committed_target_is_flagged(self, tmp_path):
        path = _baseline_file(tmp_path, self.HEADLINE)
        failures = bench_report.compare_baseline(
            path, {"scenario_gate_pass": {"speedup": 0.75}}, suite=SUITE
        )
        assert len(failures) == 1
        assert "regressed below" in failures[0]

    def test_missing_metric_in_new_run_is_flagged(self, tmp_path):
        path = _baseline_file(tmp_path, self.HEADLINE)
        failures = bench_report.compare_baseline(path, {}, suite=SUITE)
        assert len(failures) == 1
        assert "missing from this run" in failures[0]

    def test_empty_history_is_flagged(self, tmp_path):
        path = tmp_path / "empty.json"
        failures = bench_report.compare_baseline(
            path, {"x": {"speedup": 1.0}}, suite=SUITE
        )
        assert failures and "no history" in failures[0]


class TestScalingSuite:
    """The BENCH_scaling.json variant of the history machinery."""

    HEADLINE = {"scaling_speedup_4w": {"speedup": 4.1, "target": 2.0, "ok": True}}

    def test_load_history_scaling_suite(self, tmp_path):
        report = bench_report.load_history(
            tmp_path / "nope.json", suite="bench_scaling"
        )
        assert report["suite"] == "bench_scaling"
        assert report["history"] == []

    def test_scaling_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_scaling.json"
        entry = {"date": "2026-08-08", "mode": "full", "headline": self.HEADLINE}
        report = bench_report.load_history(path, suite="bench_scaling")
        report["history"] = bench_report.upsert_history(report["history"], entry)
        path.write_text(json.dumps(report))
        again = bench_report.load_history(path, suite="bench_scaling")
        assert again["history"] == [entry]

    def _scaling_baseline(self, tmp_path) -> Path:
        path = tmp_path / "BENCH_scaling.json"
        entry = {"date": "2026-08-07", "mode": "full", "headline": self.HEADLINE}
        path.write_text(
            json.dumps({"suite": "bench_scaling", "history": [entry]})
        )
        return path

    def test_compare_baseline_holding(self, tmp_path):
        path = self._scaling_baseline(tmp_path)
        failures = bench_report.compare_baseline(
            path,
            {"scaling_speedup_4w": {"speedup": 3.0}},
            suite="bench_scaling",
        )
        assert failures == []

    def test_compare_baseline_regression(self, tmp_path):
        path = self._scaling_baseline(tmp_path)
        failures = bench_report.compare_baseline(
            path,
            {"scaling_speedup_4w": {"speedup": 1.4}},
            suite="bench_scaling",
        )
        assert len(failures) == 1
        assert "regressed below" in failures[0]

    def test_scaling_target_floor(self):
        """The committed acceptance floor: >=2x at four workers."""
        assert bench_report.SCALING_TARGETS["scaling_speedup_4w"] == 2.0


class TestOptimizerSuite:
    """The BENCH_optimizer.json variant of the history machinery."""

    HEADLINE = {
        "optimizer_byte_identical": {"speedup": 1.0, "target": 1.0, "ok": True},
        "optimizer_upgraded_cheaper": {"speedup": 1.0, "target": 1.0, "ok": True},
        "optimizer_prediction_agreement": {
            "speedup": 0.88,
            "target": 0.85,
            "ok": True,
        },
    }

    def test_targets_pin_the_acceptance_floors(self):
        assert bench_report.OPTIMIZER_TARGETS == {
            "optimizer_byte_identical": 1.0,
            "optimizer_upgraded_cheaper": 1.0,
            "optimizer_prediction_agreement": 0.85,
        }

    def test_optimizer_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_optimizer.json"
        entry = {"date": "2026-08-08", "mode": "full", "headline": self.HEADLINE}
        report = bench_report.load_history(path, suite="bench_optimizer")
        assert report["suite"] == "bench_optimizer"
        report["history"] = bench_report.upsert_history(report["history"], entry)
        path.write_text(json.dumps(report))
        again = bench_report.load_history(path, suite="bench_optimizer")
        assert again["history"] == [entry]

    def test_compare_baseline_regression(self, tmp_path):
        path = tmp_path / "BENCH_optimizer.json"
        entry = {"date": "2026-08-07", "mode": "full", "headline": self.HEADLINE}
        path.write_text(
            json.dumps({"suite": "bench_optimizer", "history": [entry]})
        )
        current = {
            metric: dict(cell) for metric, cell in self.HEADLINE.items()
        }
        current["optimizer_prediction_agreement"] = {"speedup": 0.5}
        failures = bench_report.compare_baseline(
            path, current, suite="bench_optimizer"
        )
        assert len(failures) == 1
        assert "optimizer_prediction_agreement" in failures[0]

    def test_committed_artifact_matches_the_suite(self):
        committed = json.loads((REPO / "BENCH_optimizer.json").read_text())
        assert committed["suite"] == "bench_optimizer"
        latest = committed["history"][-1]
        for metric in bench_report.OPTIMIZER_TARGETS:
            assert latest["headline"][metric]["ok"], metric


def test_no_mode_flag_is_a_usage_error():
    """There is no default suite any more: running the script bare must
    stop with argparse's usage error, not run something."""
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "bench_report.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "is required" in result.stderr

"""The ``repro fuzz`` subcommand."""

from __future__ import annotations

import io
import json

from repro.cli import main
from repro.conformance.fuzz import FUZZ_REPORT_VERSION


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_clean_run_exits_zero_and_writes_report(tmp_path):
    report_path = tmp_path / "fuzz.json"
    code, text = run_cli(
        "fuzz", "--seed", "0", "--iterations", "12",
        "--report", str(report_path),
    )
    assert code == 0
    assert "verdict:      PASS" in text
    assert "divergences:  0" in text
    report = json.loads(report_path.read_text())
    assert report["version"] == FUZZ_REPORT_VERSION
    assert report["iterations_run"] == 12
    assert report["passed"] is True


def test_planted_bug_exits_nonzero_and_fills_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    code, text = run_cli(
        "fuzz", "--seed", "0", "--iterations", "80",
        "--stacks", "naive,kernel",
        "--mutate", "kernel=strip-inequalities",
        "--no-metamorphic",
        "--corpus", str(corpus),
    )
    assert code == 1
    assert "verdict:      FAIL" in text
    assert "planted-bug mode" in text
    assert list(corpus.glob("differential-*.json"))


def test_stack_subset_and_time_budget():
    code, text = run_cli(
        "fuzz", "--seed", "3", "--iterations", "6",
        "--stacks", "naive,kernel",
        "--time-budget", "300",
    )
    assert code == 0
    assert "stacks:       naive, kernel" in text


def test_bad_mutation_spec_is_an_error():
    code, _ = run_cli("fuzz", "--iterations", "1", "--mutate", "bogus")
    assert code == 1
    code, _ = run_cli(
        "fuzz", "--iterations", "1", "--mutate", "naive=nonesuch"
    )
    assert code == 1

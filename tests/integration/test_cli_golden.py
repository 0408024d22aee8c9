"""Golden stdout + exit code of the three distributed commands.

``repro run``, ``repro cluster`` and ``repro cluster --processes`` share one
command body (``cli._cmd_distributed``) over the request pipeline of
``repro.runtimes`` (``plan_request`` / ``run_request``).  The
files under ``golden/`` were recorded at the commit *before* that merge, when
each command still had its own body, so these tests show the merged body is
byte-compatible.  Re-record (only when the output is meant to change) with::

    PYTHONPATH=src python tests/integration/test_cli_golden.py

Schedule-dependent counters (Safra token rounds, crash/recovery/WAL-replay
counts) and the temp path of ``--report`` are normalised; everything else,
including the order of the lines, is compared byte for byte.
"""

import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.streaming import load_scenario
from repro.transducers.telemetry import validate_report_dict

GOLDEN = Path(__file__).parent / "golden"

COTC = """\
T(x, y) :- E(x, y).
T(x, z) :- T(x, y), E(y, z).
O(x, y) :- Adom(x), Adom(y), not T(x, y).
"""
GRAPH = "E(1, 2). E(2, 3). E(4, 4).\n"
# Domain-disjoint batches: co-TC is Mdisjoint, so the delta check applies.
FEED = 'batches:\n  - "E(10, 11)."\n  - "E(20, 21). E(21, 20)."\n'

CASES = {
    "run": ["run"],
    "run-chaos": ["run", "--chaos", "--seed", "9"],
    "cluster-tcp-chaos": ["cluster", "--transport", "tcp", "--chaos"],
    "cluster-crash": ["cluster", "--crash", "--seed", "3"],
    "processes-kill": [
        "cluster", "--processes", "2", "--kill-node", "n2", "--kill-after", "1",
    ],
}
CASES.update(
    {f"{name}-stream": [*argv, "--stream", "FEED"] for name, argv in list(CASES.items())}
)
# The documented counterexample (docs/SCENARIOS.md): win-move under a feed that
# invades the arena.  No guarantee, so the final output really differs: exit 1.
CASES["run-contested-stream"] = ["run", "--stream", "CONTESTED"]
CONTESTED = Path(__file__).parents[2] / "scenarios" / "winmove-contested-arena.yaml"
# An Mdisjoint program under a feed that is not domain-disjoint, whose answer
# goes {O(1)}, {}, {O(1)}: epoch 1 shows O(1) where Q(prefix_1) is empty, the
# final output is right.  Nothing was promised of that epoch: exit 0.
CASES["run-inadmissible-stream"] = ["run", "--stream", "FLIPPING"]
FLIP = "P(x) :- B(x), not C(x).\nO(x) :- A(x), not P(x).\n"
FLIP_FACTS = "A(1).\n"
FLIP_FEED = 'batches:\n  - "B(1)."\n  - "C(1)."\n'

_COUNTERS = re.compile(
    r"^(token rounds|crashes|recoveries|wal replayed):( +)\d+$", re.MULTILINE
)


def render(name: str, directory: Path) -> str:
    """Run one case in *directory*; the normalised transcript."""
    (directory / "p.dl").write_text(COTC)
    (directory / "f.dl").write_text(GRAPH)
    (directory / "feed.yaml").write_text(FEED)
    if "CONTESTED" in CASES[name]:
        scenario = load_scenario(CONTESTED)
        (directory / "p.dl").write_text(scenario.program_text)
        (directory / "f.dl").write_text(scenario.base_text)
    if "FLIPPING" in CASES[name]:
        (directory / "p.dl").write_text(FLIP)
        (directory / "f.dl").write_text(FLIP_FACTS)
        (directory / "flip.yaml").write_text(FLIP_FEED)
    report = directory / "report.json"
    command, *options = CASES[name]
    feeds = {
        "FEED": str(directory / "feed.yaml"),
        "CONTESTED": str(CONTESTED),
        "FLIPPING": str(directory / "flip.yaml"),
    }
    options = [feeds.get(option, option) for option in options]
    argv = [command, str(directory / "p.dl"), str(directory / "f.dl"), *options]
    out = io.StringIO()
    code = main([*argv, "--report", str(report)], out=out)
    kind = "run" if command == "run" else "cluster"
    validate_report_dict(json.loads(report.read_text()), kind=kind)
    text = out.getvalue().replace(str(report), "<report>")
    text = _COUNTERS.sub(lambda m: f"{m.group(1)}:{m.group(2)}<n>", text)
    return f"exit {code}\n{text}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_matches_golden(name, tmp_path):
    assert render(name, tmp_path) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            (GOLDEN / f"{case}.txt").write_text(render(case, Path(scratch)))
        print(f"recorded {case}", file=sys.stderr)

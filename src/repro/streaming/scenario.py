"""The YAML streaming-scenario library and its cross-runtime gate.

A scenario is one committed YAML file under ``scenarios/`` at the repo
top: a Datalog¬ program, a base instance, an epoch-ordered list of delta
batches, and an ``oracle`` declaration naming which addition kind the
feed respects (``any`` / ``distinct`` / ``disjoint`` / ``none``).  The
gate (:func:`check_stream_scenario`) replays the same feed through every
runtime of :mod:`repro.runtimes` (the process cluster clean and
kill-and-recover), and demands:

* **byte-identical per-epoch fingerprints** across all runtimes — streamed
  evaluation is confluent;
* when ``oracle`` names a kind, that every run **refines the query's spec**
  (:func:`repro.runtimes.refines`): no epoch's output is missing from the
  final one, and each equals the centralized answer on the corresponding
  input prefix (the operational reading of ``Q(I_k) ⊆ Q(I_B)``, Section 3.1).

``oracle: none`` marks a scenario whose feed breaks the kind its query
would need — it gates cross-runtime confluence only, and exists because
under that kind's spec it is the run that *fails* to refine (a
non-monotone query under streaming accumulates derivations that the final
instance refutes; see docs/SCENARIOS.md).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..datalog.instance import Instance
from ..datalog.parser import parse_facts, parse_program
from ..datalog.program import Program
from ..monotonicity.classes import AdditionKind
from .feed import DeltaFeed

__all__ = [
    "StreamScenario",
    "StreamGateVerdict",
    "check_stream_scenario",
    "load_feed",
    "load_scenario",
    "scenario_dir",
    "scenario_library",
]

#: YAML ``oracle:`` values → the addition kind the feed claims to respect.
ORACLE_KINDS: dict[str, AdditionKind | None] = {
    "any": AdditionKind.ANY,
    "distinct": AdditionKind.DOMAIN_DISTINCT,
    "disjoint": AdditionKind.DOMAIN_DISJOINT,
    "none": None,
}


def scenario_dir() -> Path:
    """The committed scenario library (``scenarios/`` at the repo top)."""
    return Path(__file__).resolve().parents[3] / "scenarios"


@dataclass(frozen=True)
class StreamScenario:
    """One streaming workload: program + base + epoch-ordered deltas."""

    name: str
    description: str
    program_text: str
    base_text: str
    batch_texts: tuple[str, ...]
    oracle: str = "none"
    nodes: tuple[str, ...] = ("n1", "n2", "n3")
    seed: int = 0

    def program(self) -> Program:
        return parse_program(self.program_text)

    def base(self) -> Instance:
        return Instance(parse_facts(self.base_text))

    def feed(self) -> DeltaFeed:
        return DeltaFeed.from_texts(self.batch_texts)

    def oracle_kind(self) -> AdditionKind | None:
        return ORACLE_KINDS[self.oracle]


def _load_yaml(path: Path) -> dict:
    import yaml

    payload = yaml.safe_load(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a YAML mapping at top level")
    return payload


def load_feed(path: str | Path) -> DeltaFeed:
    """Load just the delta feed from a scenario or bare-feed YAML file.

    A bare feed file needs only ``batches: [fact-string, ...]`` — the form
    ``repro run --stream FILE`` accepts alongside full scenario files.
    """
    payload = _load_yaml(Path(path))
    batches = payload.get("batches")
    if not isinstance(batches, list) or not all(
        isinstance(text, str) for text in batches
    ):
        raise ValueError(f"{path}: 'batches' must be a list of fact strings")
    return DeltaFeed.from_texts(batches)


def load_scenario(path: str | Path) -> StreamScenario:
    path = Path(path)
    payload = _load_yaml(path)
    missing = {"name", "program", "base", "batches"} - payload.keys()
    if missing:
        raise ValueError(f"{path}: missing scenario keys {sorted(missing)}")
    oracle = payload.get("oracle", "none")
    if oracle not in ORACLE_KINDS:
        raise ValueError(
            f"{path}: oracle must be one of {sorted(ORACLE_KINDS)}, got {oracle!r}"
        )
    batches = payload["batches"]
    if not isinstance(batches, list) or not batches:
        raise ValueError(f"{path}: 'batches' must be a nonempty list")
    scenario = StreamScenario(
        name=str(payload["name"]),
        description=str(payload.get("description", "")).strip(),
        program_text=str(payload["program"]),
        base_text=str(payload["base"]),
        batch_texts=tuple(str(text) for text in batches),
        oracle=oracle,
        nodes=tuple(str(node) for node in payload.get("nodes", ("n1", "n2", "n3"))),
        seed=int(payload.get("seed", 0)),
    )
    # Fail fast on unparseable programs/facts and inadmissible feeds: a
    # committed scenario that breaks its own declaration is a bug.
    scenario.program()
    kind = scenario.oracle_kind()
    if kind is not None and not scenario.feed().admissible_for(kind, scenario.base()):
        raise ValueError(
            f"{path}: feed is not {oracle}-admissible against its own base"
        )
    return scenario


def scenario_library(directory: str | Path | None = None) -> list[StreamScenario]:
    root = Path(directory) if directory is not None else scenario_dir()
    return [
        load_scenario(path)
        for path in sorted(root.glob("*.yaml")) + sorted(root.glob("*.yml"))
    ]


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------


@dataclass
class StreamGateVerdict:
    """The cross-runtime verdict for one scenario."""

    scenario: str
    oracle: str
    epochs: int
    runtimes: dict[str, list[str]] = field(default_factory=dict)
    fingerprints_ok: bool = False
    oracle_checked: bool = False
    oracle_ok: bool = True
    preservation_failures: list[str] = field(default_factory=list)
    crashes: int = 0
    recoveries: int = 0
    wal_replayed: int = 0
    passed: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def check_stream_scenario(
    scenario: StreamScenario,
    *,
    processes: bool = True,
    kill: bool = True,
) -> StreamGateVerdict:
    """Replay *scenario* across the runtimes and check the gate properties.

    ``processes=False`` restricts to sync + asyncio (the CI smoke shape);
    ``kill=False`` skips the kill-and-recover arm.
    """
    from ..core.analyzer import query_for
    from ..runtimes import execute, program_target, refines, spec_for
    from ..transducers.telemetry import output_fingerprint

    feed, base, program = scenario.feed(), scenario.base(), scenario.program()
    # Parsed once for the in-process arms; process workers re-parse the text.
    target = {**program_target(scenario.program_text), "program": program}
    verdict = StreamGateVerdict(
        scenario=scenario.name, oracle=scenario.oracle, epochs=len(feed) + 1
    )
    arms: dict[str, tuple[str, dict]] = {"sync": ("sync", {}), "cluster": ("cluster", {})}
    if processes:
        arms["process"] = ("processes", {})
        if kill:
            victim = scenario.nodes[1 % len(scenario.nodes)]
            arms["process-kill"] = ("processes", {"kill": (victim, 2)})
    kind = scenario.oracle_kind()
    verdict.oracle_checked = kind is not None
    spec = spec_for(query_for(program), base, feed, kind)
    for arm, (runtime, options) in arms.items():
        observation = execute(
            runtime, target, base,
            nodes=scenario.nodes, seed=scenario.seed, feed=feed, **options,
        )
        observation.result()  # a scenario run that does not quiesce is an error
        verdict.runtimes[arm] = [
            output_fingerprint(output) for output in observation.epoch_outputs
        ]
        if kind is not None:
            # oracle: none promises nothing of the trajectory; such a
            # scenario gates cross-runtime confluence only.
            verdict.preservation_failures.extend(
                f"{arm}: {violation.describe()}"
                for violation in refines(observation, spec)
            )
        if arm == "process-kill":
            verdict.crashes = observation.crashes
            verdict.recoveries = observation.recoveries
            verdict.wal_replayed = observation.wal_replayed

    reference = verdict.runtimes["sync"]
    verdict.fingerprints_ok = all(
        prints == reference for prints in verdict.runtimes.values()
    )
    verdict.oracle_ok = not verdict.preservation_failures
    verdict.passed = verdict.fingerprints_ok and verdict.oracle_ok
    if processes and kill and verdict.recoveries < 1:
        verdict.passed = False
    return verdict

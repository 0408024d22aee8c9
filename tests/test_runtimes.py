"""The runtime seam (``repro.runtimes``): one ``execute``, one ``refines``.

The refinement matrix states the paper's claim once: every runtime of the
registry, on every gate workload and every committed streaming scenario,
produces an observation that refines the query's spec — except the one
documented counterexample, which must fail to.
"""

from dataclasses import replace

import pytest

from repro.cluster.gate import gate_workloads
from repro.core.analyzer import network_for_plan, planned_network, query_for
from repro.datalog import Fact, Instance, Program, Rule, parse_facts, parse_program
from repro.datalog.terms import Atom, Variable
from repro.monotonicity.classes import AdditionKind
from repro.runtimes import (
    RUNTIMES,
    Observation,
    Request,
    RequestError,
    Spec,
    execute,
    node_names,
    plan_request,
    refines,
    spec_for,
)
from repro.streaming import scenario_library
from repro.transducers import CHAOS_PLAN, QuiescenceError
from repro.transducers.telemetry import validate_report_dict

NODES = ("n1", "n2", "n3")
WORKLOADS = {workload.key: workload for workload in gate_workloads()}
SCENARIOS = {scenario.name: scenario for scenario in scenario_library()}
COUNTEREXAMPLE = "winmove-contested-arena"

TC = "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n"
CHAIN = Instance(parse_facts("E(1, 2). E(2, 3). E(3, 4)."))
TC_QUERY = query_for(parse_program(TC))
TC_NETWORK = planned_network(parse_program(TC), NODES)


# ----------------------------------------------------------------------
# (a) the refinement matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(WORKLOADS))
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_gate_workload_refines_its_spec(runtime, key):
    workload = WORKLOADS[key]
    observation = execute(runtime, workload.network(NODES), workload.instance)
    assert refines(observation, spec_for(workload.query, workload.instance)) == []


def _stream(runtime, scenario):
    return execute(
        runtime,
        planned_network(scenario.program(), scenario.nodes),
        scenario.base(),
        seed=scenario.seed,
        feed=scenario.feed(),
    )


@pytest.mark.parametrize("name", sorted(set(SCENARIOS) - {COUNTEREXAMPLE}))
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_scenario_refines_its_spec(runtime, name):
    scenario = SCENARIOS[name]
    assert scenario.oracle_kind() is not None
    spec = spec_for(
        query_for(scenario.program()), scenario.base(), scenario.feed(),
        scenario.oracle_kind(),
    )
    observation = _stream(runtime, scenario)
    assert len(observation.epoch_outputs) == len(scenario.feed()) + 1
    assert refines(observation, spec) == []


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_counterexample_fails_to_refine_a_disjoint_spec(runtime):
    """Win-move is Mdisjoint, the contested feed is not domain-disjoint:
    the inflationary run keeps Win(b), which Q(prefix_1) refutes."""
    scenario = SCENARIOS[COUNTEREXAMPLE]
    assert not scenario.feed().admissible_for(
        AdditionKind.DOMAIN_DISJOINT, scenario.base()
    )
    spec = spec_for(
        query_for(scenario.program()), scenario.base(), scenario.feed(),
        AdditionKind.DOMAIN_DISJOINT,
    )
    violations = refines(_stream(runtime, scenario), spec)
    assert [(v.reason, v.epoch) for v in violations] == [
        ("prefix-mismatch", 1), ("prefix-mismatch", 2),
    ]
    assert all(fact.relation == "Win" for v in violations for fact in v.facts)


# ----------------------------------------------------------------------
# (b) failure modes of execute itself
# ----------------------------------------------------------------------


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_non_quiescence_is_an_observation(runtime):
    observation = execute(
        runtime, planned_network(parse_program(TC), node_names(2)), CHAIN,
        max_rounds=1, timeout=0.001,
    )
    assert observation.quiesced is False
    assert "did not quiesce" in observation.error
    assert observation.output <= TC_QUERY(CHAIN)  # partial, never wrong
    assert observation.report.quiesced is False
    validate_report_dict(
        observation.report.to_dict(), kind="run" if runtime == "sync" else "cluster"
    )
    assert [v.reason for v in refines(observation, Spec(final=Instance()))] == [
        "not-quiesced"
    ]
    with pytest.raises(QuiescenceError, match="did not quiesce"):
        observation.result()


def test_a_timed_out_cluster_reports_the_work_it_did():
    """The harvest runs on the error path too: output facts without the
    transitions that derived them was the report of a run that never
    harvested (465 facts next to ``transitions == 0``)."""
    chain = Instance(parse_facts(" ".join(f"E({i}, {i + 1})." for i in range(30))))
    observation = execute("cluster", TC_NETWORK, chain, timeout=1e-4)
    assert observation.quiesced is False
    assert observation.output and observation.report.metrics["transitions"] > 0
    per_node = {node.node: node for node in observation.report.per_node}
    assert sum(node.transitions for node in per_node.values()) == (
        observation.report.metrics["transitions"]
    )
    assert max(node.output_facts for node in per_node.values()) > 0


def test_unknown_runtime_names_the_registry():
    with pytest.raises(KeyError, match="known: sync, cluster, processes"):
        execute("threads", TC_NETWORK, CHAIN)
    assert RUNTIMES == ("sync", "cluster", "processes")


def test_a_fault_a_runtime_cannot_inject_is_a_value_error():
    with pytest.raises(ValueError, match="'sync' does not support kill"):
        execute("sync", TC_NETWORK, CHAIN, kill=("n2", 1))
    with pytest.raises(ValueError, match="'cluster' does not support kill"):
        execute("cluster", TC_NETWORK, CHAIN, kill=("n2", 1))
    with pytest.raises(ValueError, match="'processes' does not support faults"):
        execute("processes", TC_NETWORK, CHAIN, faults=CHAOS_PLAN)


def test_processes_run_a_prebuilt_network_and_match_cluster():
    processes = execute("processes", TC_NETWORK, CHAIN)
    assert refines(processes, spec_for(TC_QUERY, CHAIN)) == []
    assert processes.fingerprint == execute("cluster", TC_NETWORK, CHAIN).fingerprint


def _routed(routing, nodes):
    from repro.optimizer import plan_optimized

    program = parse_program(TC)
    if routing == "optimized":
        return network_for_plan(plan_optimized(program).plan, nodes)
    return planned_network(program, nodes, force_barrier=routing == "barrier")


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("routing", ["default", "barrier", "optimized"])
def test_every_runtime_builds_the_routed_network(runtime, routing):
    observation = execute(runtime, _routed(routing, node_names(2)), CHAIN)
    expected = "barrier[datalog[T]]" if routing == "barrier" else "broadcast[datalog[T]]"
    assert observation.report.protocol == expected
    assert refines(observation, spec_for(TC_QUERY, CHAIN)) == []


@pytest.mark.parametrize("constant", [True, 1.5], ids=["true", "float"])
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_a_program_built_in_code_runs_as_built(runtime, constant):
    """``T(x) :- E(x, constant).``, built in code, on every runtime.  The
    constant has no Datalog text that parses back to it: process workers
    once re-parsed ``repr(rule)``, so ``True`` came back a variable and
    ``processes`` output ``{T(a), T(b), T(c)}`` where the others output
    ``{T(a)}``, and ``1.5`` raised a ParseError in every worker."""
    x = Variable("x")
    program = Program([Rule(Atom("T", (x,)), [Atom("E", (x, constant))])])
    instance = Instance(
        [Fact("E", ("a", constant)), Fact("E", ("b", False)), Fact("E", ("c", "z"))]
    )
    observation = execute(runtime, planned_network(program, NODES), instance)
    spec = spec_for(query_for(program), instance)
    assert spec.final == Instance([Fact("T", ("a",))])
    assert refines(observation, spec) == []


# ----------------------------------------------------------------------
# refines, on hand-made observations
# ----------------------------------------------------------------------


def _facts(text):
    return Instance(parse_facts(text))


def _observed(*epochs):
    base = execute("sync", TC_NETWORK, CHAIN)
    return replace(base, output=epochs[-1], epoch_outputs=tuple(epochs))


def test_refines_lists_retractions_before_mismatches():
    spec = Spec(
        final=_facts("T(1,2). T(2,3)."),
        epochs=(_facts("T(1,2)."), _facts("T(1,2). T(2,3).")),
    )
    assert refines(_observed(*spec.epochs), spec) == []
    lost = _observed(_facts("T(1,2). T(9,9)."), _facts("T(1,2). T(2,3)."))
    violations = refines(lost, spec)
    assert [(v.reason, v.epoch) for v in violations] == [
        ("retraction", 0), ("prefix-mismatch", 0),
    ]
    assert violations[0].facts == _facts("T(9,9).")
    assert "not a subset of the final output" in violations[0].describe()
    assert "prefix 0" in violations[1].describe()


def test_refines_without_a_kind_checks_only_the_final_output():
    spec = Spec(final=_facts("T(1,2)."))
    wandering = _observed(_facts("T(7,7)."), _facts("T(1,2)."))
    assert refines(wandering, spec) == []
    (violation,) = refines(_observed(_facts("T(1,2). T(3,3).")), spec)
    assert (violation.reason, violation.epoch) == ("output-mismatch", None)
    assert violation.facts == _facts("T(3,3).")
    with pytest.raises(ValueError):  # a trajectory the spec's feed cannot have
        refines(wandering, Spec(final=spec.final, epochs=(spec.final,)))


def test_observation_counters_read_the_report():
    observation = execute("sync", TC_NETWORK, CHAIN)
    assert isinstance(observation, Observation)
    assert (observation.token_probes, observation.crashes) == (0, 0)
    assert (observation.recoveries, observation.wal_replayed) == (0, 0)
    clustered = execute("cluster", TC_NETWORK, CHAIN)
    assert clustered.token_probes == clustered.report.token_rounds >= 1
    assert clustered.fingerprint == observation.fingerprint


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"planner": "ilog", "runtime": "cluster"}, "ILOG programs run on runtime 'sync'"),
        ({"planner": "ilog", "check_pairs": 3}, "'check_pairs' does not combine"),
        ({"transport": "tcp"}, "runtime 'sync' does not support transport"),
        ({"nodes": 0}, "'nodes' must be a positive integer"),
        ({"seed": True}, "'seed' must be an integer"),
        ({"planner": "fastest"}, "'planner' must be one of default, barrier"),
        ({"runtime": "threads"}, "known: sync, cluster, processes"),
    ],
)
def test_a_request_is_validated_when_it_is_built(fields, message):
    with pytest.raises(RequestError, match=message):
        Request(program="O(x) :- E(x).", **fields)


def test_a_program_that_does_not_parse_is_a_request_error():
    with pytest.raises(RequestError, match="line 1"):
        plan_request(Request(program="O(x :- E(x)."))

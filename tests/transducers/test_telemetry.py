"""Unit tests for structured run telemetry (reports and fingerprints)."""

import json

import pytest

from repro.datalog import Fact, Instance, Schema, parse_facts
from repro.transducers import (
    CHAOS_PLAN,
    FairScheduler,
    FaultyChannel,
    PythonTransducer,
    REPORT_VERSION,
    TransducerNetwork,
    TransducerSchema,
    build_run_report,
    hash_policy,
    output_fingerprint,
    write_report,
)

INPUTS = Schema({"E": 2})


def echo_transducer():
    schema = TransducerSchema(
        inputs=INPUTS,
        outputs=Schema({"O": 2}),
        messages=Schema({"m": 2}),
        memory=Schema({"seen": 2, "sent": 2}),
    )

    def send(view):
        desired = {Fact("m", f.values) for f in view.local_input}
        sent = {Fact("m", f.values[:2]) for f in view.memory if f.relation == "sent"}
        return desired - sent

    def insert(view):
        for fact in view.delivered:
            yield Fact("seen", fact.values)
        for message in send(view):
            yield Fact("sent", message.values)

    def out(view):
        for fact in view.memory:
            if fact.relation == "seen":
                yield Fact("O", fact.values)

    return PythonTransducer(schema, out=out, insert=insert, send=send, name="echo")


@pytest.fixture
def finished_run(three_node_network):
    policy = hash_policy(INPUTS, three_node_network)
    net = TransducerNetwork(three_node_network, echo_transducer(), policy)
    run = net.new_run(Instance(parse_facts("E(1,2). E(2,3). E(3,1).")))
    run.run_to_quiescence(scheduler=FairScheduler(0))
    return run


class TestFingerprint:
    def test_stable_across_construction_order(self):
        a = Instance(parse_facts("O(1,2). O(2,3)."))
        b = Instance([Fact("O", (2, 3)), Fact("O", (1, 2))])
        assert output_fingerprint(a) == output_fingerprint(b)

    def test_distinguishes_different_outputs(self):
        a = Instance(parse_facts("O(1,2)."))
        b = Instance(parse_facts("O(1,3)."))
        assert output_fingerprint(a) != output_fingerprint(b)

    def test_empty_instance_has_a_fingerprint(self):
        assert len(output_fingerprint(Instance())) == 64


class TestRunReport:
    def test_fields_reflect_the_run(self, finished_run):
        report = build_run_report(finished_run, scheduler=FairScheduler(0))
        assert report.version == REPORT_VERSION
        assert report.protocol == "echo"
        assert report.scheduler == "fair"
        assert report.channel == "perfect"
        assert report.quiesced
        assert report.rounds_to_quiescence == finished_run.metrics.rounds
        assert report.output_facts == len(finished_run.global_output())
        assert report.output_fingerprint == output_fingerprint(
            finished_run.global_output()
        )
        assert report.faults == {}

    def test_per_node_counters_match_history(self, finished_run):
        report = build_run_report(finished_run)
        assert sum(n.transitions for n in report.per_node) == len(
            finished_run.history
        )
        assert sum(n.heartbeats for n in report.per_node) == sum(
            1 for r in finished_run.history if r.heartbeat
        )
        assert sum(n.deliveries for n in report.per_node) == sum(
            r.delivered for r in finished_run.history
        )
        for node_report in report.per_node:
            assert node_report.buffer_high_water >= node_report.buffered_at_end
            assert node_report.buffered_at_end == 0

    def test_not_quiesced_has_no_rounds(self, finished_run):
        report = build_run_report(finished_run, quiesced=False)
        assert report.rounds_to_quiescence is None
        assert "DID NOT QUIESCE" in report.summary()

    def test_faulty_channel_counters_surface(self, three_node_network):
        policy = hash_policy(INPUTS, three_node_network)
        net = TransducerNetwork(three_node_network, echo_transducer(), policy)
        run = net.new_run(
            Instance(parse_facts("E(1,2). E(2,3). E(3,1). E(1,3).")),
            channel=FaultyChannel(CHAOS_PLAN, seed=1),
        )
        run.run_to_quiescence()
        report = build_run_report(run)
        assert report.channel == "faulty"
        assert set(report.faults) == {"duplicated", "delayed", "dropped", "redelivered"}
        assert report.faults["redelivered"] == report.faults["dropped"]

    def test_json_roundtrip_and_write(self, finished_run, tmp_path):
        report = build_run_report(
            finished_run, scheduler=FairScheduler(0), include_trace=True
        )
        payload = json.loads(report.to_json())
        assert payload == report.to_dict()
        assert len(payload["trace"]) == len(finished_run.history)
        path = tmp_path / "report.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == report.to_dict()

    def test_trace_respects_limit(self, finished_run):
        report = build_run_report(finished_run, include_trace=True, trace_limit=2)
        assert len(report.trace) == 2

    def test_summary_is_one_line(self, finished_run):
        summary = build_run_report(finished_run).summary()
        assert "\n" not in summary
        assert "echo" in summary and "quiesced" in summary


class TestEvaluationCounters:
    """The compiled-plan count surfaces through RunMetrics/RunReport."""

    def test_counters_present_and_consistent(self, finished_run):
        metrics = build_run_report(finished_run).metrics
        assert metrics["plans_compiled"] == finished_run.metrics.plans_compiled
        # No step cache is left; the two counters stay in the layout at 0.
        assert metrics["cache_hits"] == metrics["cache_misses"] == 0

    def test_python_transducer_compiles_no_plans(self, finished_run):
        # plans_compiled counts Datalog plan compilations; the echo
        # transducer is a PythonTransducer, so the counter stays zero.
        assert build_run_report(finished_run).metrics["plans_compiled"] == 0

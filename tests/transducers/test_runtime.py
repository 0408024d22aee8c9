"""Unit tests for the operational semantics: transitions, buffers, runs."""

import pytest

from repro.datalog import Fact, Instance, Schema, parse_facts
from repro.transducers import (
    FairScheduler,
    Network,
    PythonTransducer,
    QuiescenceError,
    TransducerNetwork,
    TransducerSchema,
    TrickleScheduler,
    hash_policy,
    single_node_policy,
)

INPUTS = Schema({"E": 2})


def echo_transducer():
    """Broadcasts each local input fact once; stores deliveries in memory."""
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


class TestTransitions:
    def test_heartbeat_delivers_nothing(self, two_node_network):
        net = TransducerNetwork(
            two_node_network, echo_transducer(), hash_policy(INPUTS, two_node_network)
        )
        run = net.new_run(Instance(parse_facts("E(1,2).")))
        record = run.heartbeat("n1")
        assert record.heartbeat
        assert record.delivered == 0

    def test_messages_buffered_at_other_nodes_only(self, two_node_network):
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        net = TransducerNetwork(two_node_network, echo_transducer(), policy)
        run = net.new_run(Instance(parse_facts("E(1,2).")))
        record = run.transition("n1")
        assert record.sent == 1
        assert sum(run.buffer("n2").values()) == 1
        assert sum(run.buffer("n1").values()) == 0

    def test_delivery_updates_memory(self, two_node_network):
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        net = TransducerNetwork(two_node_network, echo_transducer(), policy)
        run = net.new_run(Instance(parse_facts("E(1,2).")))
        run.transition("n1")
        record = run.transition("n2", deliver="all")
        assert record.delivered == 1
        assert Fact("seen", (1, 2)) in run.state("n2").memory

    def test_explicit_submultiset_delivery(self, two_node_network):
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        net = TransducerNetwork(two_node_network, echo_transducer(), policy)
        run = net.new_run(Instance(parse_facts("E(1,2). E(3,4).")))
        run.transition("n1")
        one = [Fact("m", (1, 2))]
        record = run.transition("n2", deliver=one)
        assert record.delivered == 1
        assert sum(run.buffer("n2").values()) == 1  # the other is still queued

    def test_overdelivery_rejected(self, two_node_network):
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        net = TransducerNetwork(two_node_network, echo_transducer(), policy)
        run = net.new_run(Instance())
        with pytest.raises(ValueError, match="buffer"):
            run.transition("n1", deliver=[Fact("m", (9, 9))])

    def test_memory_update_semantics(self, two_node_network):
        """(mem ∪ (ins \\ del)) \\ (del \\ ins): ins∩del is a no-op."""
        schema = TransducerSchema(
            inputs=INPUTS,
            outputs=Schema({"O": 1}),
            messages=Schema({"m": 1}),
            memory=Schema({"flag": 1}),
        )
        transducer = PythonTransducer(
            schema,
            insert=lambda view: [Fact("flag", (1,)), Fact("flag", (2,))],
            delete=lambda view: [Fact("flag", (2,)), Fact("flag", (3,))],
            name="mem-demo",
        )
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        run = TransducerNetwork(two_node_network, transducer, policy).new_run(Instance())
        run.heartbeat("n1")
        memory = run.state("n1").memory
        assert Fact("flag", (1,)) in memory  # ins only
        assert Fact("flag", (2,)) not in memory  # ins ∩ del: no-op on absent
        assert Fact("flag", (3,)) not in memory  # del only

    def test_output_monotone_accumulation(self, two_node_network):
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        net = TransducerNetwork(two_node_network, echo_transducer(), policy)
        run = net.new_run(Instance(parse_facts("E(1,2).")))
        run.transition("n1")
        run.transition("n2")
        before = run.state("n2").output
        run.heartbeat("n2")
        assert before <= run.state("n2").output


class TestRunsShareNothingButTheNetwork:
    def test_a_second_run_answers_its_own_input(self, two_node_network):
        """A transition is a function of D itself: ``hash(-1) == hash(-2)``
        in CPython, and a run on {E(-2)} after one on {E(-1)} with the same
        transducer and policy must still output O(-2)."""
        schema = TransducerSchema(
            inputs=Schema({"E": 1}),
            outputs=Schema({"O": 1}),
            messages=Schema({"m": 1}),
            memory=Schema({}, allow_nullary=True),
        )
        copy = PythonTransducer(
            schema,
            out=lambda view: [Fact("O", f.values) for f in view.local_input],
            name="copy",
        )
        policy = single_node_policy(schema.inputs, two_node_network, "n1")
        net = TransducerNetwork(two_node_network, copy, policy)
        for value in (-1, -2):
            output = net.new_run(Instance([Fact("E", (value,))])).run_to_quiescence()
            assert output == Instance([Fact("O", (value,))])


class TestValidation:
    def test_policy_network_mismatch(self, two_node_network):
        other = Network(["x", "y"])
        with pytest.raises(ValueError, match="network"):
            TransducerNetwork(
                two_node_network, echo_transducer(), hash_policy(INPUTS, other)
            )

    def test_policy_schema_mismatch(self, two_node_network):
        wrong = hash_policy(Schema({"F": 1}), two_node_network)
        with pytest.raises(ValueError, match="schema"):
            TransducerNetwork(two_node_network, echo_transducer(), wrong)

    def test_domain_guided_requirement(self, two_node_network):
        with pytest.raises(ValueError, match="domain-guided"):
            TransducerNetwork(
                two_node_network,
                echo_transducer(),
                hash_policy(INPUTS, two_node_network),
                require_domain_guided=True,
            )

    def test_target_schema_violations_caught(self, two_node_network):
        schema = TransducerSchema(
            inputs=INPUTS,
            outputs=Schema({"O": 1}),
            messages=Schema({"m": 1}),
            memory=Schema({}, allow_nullary=True),
        )
        bad = PythonTransducer(
            schema, out=lambda view: [Fact("Wrong", (1,))], name="bad"
        )
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        run = TransducerNetwork(two_node_network, bad, policy).new_run(Instance())
        with pytest.raises(ValueError, match="target schema"):
            run.heartbeat("n1")

    def test_input_restricted_to_schema(self, two_node_network):
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        net = TransducerNetwork(two_node_network, echo_transducer(), policy)
        run = net.new_run(Instance(parse_facts("E(1,2). Noise(7).")))
        assert run.instance == Instance(parse_facts("E(1,2)."))


class TestQuiescence:
    def test_echo_quiesces(self, three_node_network):
        policy = hash_policy(INPUTS, three_node_network)
        net = TransducerNetwork(three_node_network, echo_transducer(), policy)
        run = net.new_run(Instance(parse_facts("E(1,2). E(2,3). E(3,1).")))
        output = run.run_to_quiescence()
        assert {f.values for f in output} == {(1, 2), (2, 3), (3, 1)}
        assert run.buffered_messages() == 0 or not run._novel_pending()

    def test_chatterbox_hits_budget(self, two_node_network):
        """A transducer that always sends fresh content never quiesces."""
        schema = TransducerSchema(
            inputs=INPUTS,
            outputs=Schema({"O": 1}),
            messages=Schema({"tick": 1}),
            memory=Schema({"count": 1}),
        )

        def send(view):
            count = len([f for f in view.memory if f.relation == "count"])
            return [Fact("tick", (count,))]

        def insert(view):
            count = len([f for f in view.memory if f.relation == "count"])
            return [Fact("count", (count,))]

        chatter = PythonTransducer(schema, send=send, insert=insert, name="chatter")
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        run = TransducerNetwork(two_node_network, chatter, policy).new_run(Instance())
        with pytest.raises(QuiescenceError):
            run.run_to_quiescence(max_rounds=5)

    def test_schedulers_agree_on_output(self, three_node_network):
        instance = Instance(parse_facts("E(1,2). E(2,3)."))
        outputs = []
        for scheduler in (FairScheduler(0), FairScheduler(9), TrickleScheduler(4)):
            policy = hash_policy(INPUTS, three_node_network)
            net = TransducerNetwork(three_node_network, echo_transducer(), policy)
            run = net.new_run(instance)
            outputs.append(run.run_to_quiescence(scheduler=scheduler))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_metrics_populated(self, two_node_network):
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        net = TransducerNetwork(two_node_network, echo_transducer(), policy)
        run = net.new_run(Instance(parse_facts("E(1,2).")))
        run.run_to_quiescence()
        assert run.metrics.transitions > 0
        assert run.metrics.rounds > 0
        assert run.metrics.message_facts_sent >= 1


class TestMultisetBuffers:
    """The paper's buffers are MULTISETS: the same message sent in two
    different transitions yields two buffered copies; delivering one leaves
    the other pending."""

    def test_duplicate_copies_accumulate(self, two_node_network):
        from repro.datalog import Fact, Instance, Schema, parse_facts
        from repro.transducers import PythonTransducer, TransducerSchema, single_node_policy

        schema = TransducerSchema(
            inputs=INPUTS,
            outputs=Schema({"O": 1}),
            messages=Schema({"ping": 1}),
            memory=Schema({}, allow_nullary=True),
        )
        # Sends the same ping every transition (no dedup memory).
        pinger = PythonTransducer(
            schema, send=lambda view: [Fact("ping", (1,))], name="pinger"
        )
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        run = TransducerNetwork(two_node_network, pinger, policy).new_run(Instance())
        run.heartbeat("n1")
        run.heartbeat("n1")
        buffered = run.buffer("n2")
        assert buffered[Fact("ping", (1,))] == 2

        # Delivering a single copy removes exactly one.
        run.transition("n2", deliver=[Fact("ping", (1,))])
        assert run.buffer("n2")[Fact("ping", (1,))] >= 1

    def test_delivery_collapses_to_set(self, two_node_network):
        """M is collapsed to a set before reaching the transducer (the
        paper's 'm collapsed to a set')."""
        from repro.datalog import Fact, Instance, Schema
        from repro.transducers import PythonTransducer, TransducerSchema, single_node_policy

        seen_counts = []
        schema = TransducerSchema(
            inputs=INPUTS,
            outputs=Schema({"O": 1}),
            messages=Schema({"ping": 1}),
            memory=Schema({}, allow_nullary=True),
        )
        observer = PythonTransducer(
            schema,
            out=lambda view: seen_counts.append(len(view.delivered)) or (),
            send=lambda view: [Fact("ping", (1,))],
            name="observer",
        )
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        run = TransducerNetwork(two_node_network, observer, policy).new_run(Instance())
        run.heartbeat("n1")
        run.heartbeat("n1")
        run.transition(
            "n2", deliver=[Fact("ping", (1,)), Fact("ping", (1,))]
        )  # two copies in, ONE set element seen
        assert seen_counts[-1] == 1

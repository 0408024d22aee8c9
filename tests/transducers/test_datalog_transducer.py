"""Tests for Datalog-programmed transducers — declarative networking proper."""

from repro.datalog import Fact, Instance, Schema, parse_facts, parse_program
from repro.transducers import (
    DatalogTransducer,
    FairScheduler,
    Network,
    TransducerNetwork,
    TransducerSchema,
    hash_policy,
    single_node_policy,
)

INPUTS = Schema({"E": 2})


def tc_datalog_transducer():
    """Distributed transitive closure written entirely in Datalog.

    Every node sends its local edges and everything it has heard; received
    edges are stored in memory; output is the closure of local ∪ stored.
    The send query re-derives the same messages every transition — the
    runtime's duplicate tracking keeps the run finite.
    """
    schema = TransducerSchema(
        inputs=INPUTS,
        outputs=Schema({"O": 2}),
        messages=Schema({"edge_msg": 2}),
        memory=Schema({"stored": 2}),
    )
    send = parse_program(
        """
        edge_msg(x, y) :- E(x, y).
        edge_msg(x, y) :- stored(x, y).
        """,
        output_relations=["edge_msg"],
        add_adom_rules=False,
    )
    insert = parse_program(
        "stored(x, y) :- edge_msg(x, y).",
        output_relations=["stored"],
        add_adom_rules=False,
    )
    out = parse_program(
        """
        Known(x, y) :- E(x, y).
        Known(x, y) :- stored(x, y).
        O(x, y) :- Known(x, y).
        O(x, z) :- O(x, y), Known(y, z).
        """,
        output_relations=["O"],
        add_adom_rules=False,
    )
    return DatalogTransducer(
        schema, out=out, insert=insert, send=send, name="datalog-tc"
    )


class TestDatalogTransducer:
    def test_distributed_tc(self, two_node_network):
        from repro.queries import transitive_closure_query

        instance = Instance(parse_facts("E(1,2). E(2,3). E(3,4)."))
        policy = hash_policy(INPUTS, two_node_network)
        run = TransducerNetwork(
            two_node_network, tc_datalog_transducer(), policy
        ).new_run(instance)
        output = run.run_to_quiescence(scheduler=FairScheduler(1))
        assert output == transitive_closure_query()(instance)

    def test_three_nodes_same_output(self):
        from repro.queries import transitive_closure_query

        instance = Instance(parse_facts("E(1,2). E(2,3). E(3,1)."))
        network = Network(["a", "b", "c"])
        run = TransducerNetwork(
            network, tc_datalog_transducer(), hash_policy(INPUTS, network)
        ).new_run(instance)
        assert run.run_to_quiescence() == transitive_closure_query()(instance)

    def test_empty_queries_default_to_nothing(self, two_node_network):
        schema = TransducerSchema(
            inputs=INPUTS,
            outputs=Schema({"O": 2}),
            messages=Schema({"m": 1}),
            memory=Schema({}, allow_nullary=True),
        )
        silent = DatalogTransducer(schema, name="silent")
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        run = TransducerNetwork(two_node_network, silent, policy).new_run(
            Instance(parse_facts("E(1,2)."))
        )
        output = run.run_to_quiescence()
        assert output == Instance()

    def test_datalog_reads_system_relations(self, two_node_network):
        """A Datalog transducer can see Id and All as ordinary relations."""
        schema = TransducerSchema(
            inputs=INPUTS,
            outputs=Schema({"O": 1}),
            messages=Schema({"m": 1}),
            memory=Schema({}, allow_nullary=True),
        )
        out = parse_program(
            "O(n) :- All(n), not Id(n).",
            output_relations=["O"],
            add_adom_rules=False,
        )
        transducer = DatalogTransducer(schema, out=out, name="peers")
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        run = TransducerNetwork(two_node_network, transducer, policy).new_run(
            Instance()
        )
        run.heartbeat("n1")
        assert run.state("n1").output == Instance([Fact("O", ("n2",))])

    def test_datalog_reads_policy_relations(self, two_node_network):
        """policy_E is visible: a node can observe locally-missing facts it
        is responsible for (Example 4.2's deduction)."""
        schema = TransducerSchema(
            inputs=INPUTS,
            outputs=Schema({"O": 2}),
            messages=Schema({"m": 1}),
            memory=Schema({}, allow_nullary=True),
        )
        out = parse_program(
            "O(x, y) :- policy_E(x, y), not E(x, y).",
            output_relations=["O"],
            add_adom_rules=False,
        )
        transducer = DatalogTransducer(schema, out=out, name="absences")
        policy = single_node_policy(INPUTS, two_node_network, "n1")
        run = TransducerNetwork(two_node_network, transducer, policy).new_run(
            Instance(parse_facts("E(1,2)."))
        )
        run.heartbeat("n1")
        output = run.state("n1").output
        assert Fact("O", (2, 1)) in output  # responsible for it, not present
        assert Fact("O", (1, 2)) not in output  # present locally


class TestEvaluationCounters:
    def test_datalog_transducer_compiles_plans(self, two_node_network):
        """Datalog queries compile their rules on the kernel; the count
        surfaces both on the transducer and in the run metrics."""
        transducer = tc_datalog_transducer()
        run = TransducerNetwork(
            two_node_network, transducer, hash_policy(INPUTS, two_node_network)
        ).new_run(Instance(parse_facts("E(1,2). E(2,3).")))
        run.run_to_quiescence(scheduler=FairScheduler(1))
        assert run.metrics.plans_compiled == transducer.plans_compiled() > 0

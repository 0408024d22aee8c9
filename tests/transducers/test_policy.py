"""Unit tests for networks, distribution policies and domain assignments."""

import pytest

from repro.datalog import Fact, Instance, Schema, parse_facts
from repro.transducers import (
    DomainAssignment,
    Network,
    dict_domain_assignment,
    domain_guided_policy,
    everywhere_policy,
    function_policy,
    hash_domain_assignment,
    hash_policy,
    override_policy,
    single_node_assignment,
    single_node_policy,
)

SCHEMA = Schema({"E": 2})


class TestNetwork:
    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            Network([])

    def test_set_semantics(self):
        assert Network(["a", "b", "a"]) == Network(["a", "b"])

    def test_sorted_nodes_deterministic(self):
        assert Network(["b", "a"]).sorted_nodes() == ["a", "b"]


class TestPolicies:
    def test_everywhere_policy_replicates(self):
        network = Network(["a", "b"])
        policy = everywhere_policy(SCHEMA, network)
        assert policy.nodes_for(Fact("E", (1, 2))) == network
        assert policy.is_domain_guided

    def test_single_node_policy(self):
        network = Network(["a", "b"])
        policy = single_node_policy(SCHEMA, network, "a")
        assert policy.nodes_for(Fact("E", (1, 2))) == {"a"}
        fragments = policy.distribute(Instance(parse_facts("E(1,2). E(3,4).")))
        assert len(fragments["a"]) == 2
        assert len(fragments["b"]) == 0

    def test_single_node_requires_member(self):
        with pytest.raises(ValueError):
            single_node_policy(SCHEMA, Network(["a"]), "zz")

    def test_hash_policy_deterministic_and_partitioning(self):
        network = Network(["a", "b", "c"])
        policy = hash_policy(SCHEMA, network)
        fact = Fact("E", (1, 2))
        assert policy.nodes_for(fact) == policy.nodes_for(fact)
        assert len(policy.nodes_for(fact)) == 1
        assert not policy.is_domain_guided

    def test_hash_policy_groups_by_position(self):
        network = Network(["a", "b", "c"])
        policy = hash_policy(SCHEMA, network, position=0)
        assert policy.nodes_for(Fact("E", (1, 2))) == policy.nodes_for(
            Fact("E", (1, 99))
        )

    def test_equal_facts_that_differ_are_assigned_on_their_own(self):
        """``E(1) == E(True)``, but the hash policy sees ``int:1`` and
        ``bool:True``: asking for one first must not answer the other."""
        schema = Schema({"E": 1})
        network = Network(["a", "b", "c", "d"])
        fresh = hash_policy(schema, network).nodes_for(Fact("E", (1,)))
        asked = hash_policy(schema, network)
        assert asked.nodes_for(Fact("E", (True,))) != fresh
        assert asked.nodes_for(Fact("E", (1,))) == fresh

    def test_policy_rejects_foreign_fact(self):
        policy = hash_policy(SCHEMA, Network(["a"]))
        with pytest.raises(ValueError):
            policy.nodes_for(Fact("F", (1, 2)))

    def test_function_policy_totality_enforced(self):
        policy = function_policy(SCHEMA, Network(["a"]), lambda fact: [])
        with pytest.raises(ValueError, match="no node"):
            policy.nodes_for(Fact("E", (1, 2)))

    def test_override_policy(self):
        network = Network(["a", "b"])
        base = single_node_policy(SCHEMA, network, "a")
        moved = Fact("E", (7, 8))
        policy = override_policy(base, {moved: ["b"]})
        assert policy.nodes_for(moved) == {"b"}
        assert policy.nodes_for(Fact("E", (1, 2))) == {"a"}
        assert not policy.is_domain_guided


class TestDomainGuided:
    def test_induced_from_assignment(self):
        network = Network(["a", "b"])
        assignment = dict_domain_assignment(network, {1: ["a"], 2: ["b"]})
        policy = domain_guided_policy(SCHEMA, network, assignment)
        assert policy.is_domain_guided
        assert policy.nodes_for(Fact("E", (1, 2))) == {"a", "b"}
        assert policy.nodes_for(Fact("E", (1, 1))) == {"a"}

    def test_example41_domain_guided(self):
        """Example 4.1: odd values to node 1, even to node 2."""
        network = Network([1, 2])
        policy = domain_guided_policy(
            SCHEMA, network, lambda value: [1] if value % 2 else [2]
        )
        instance = Instance(parse_facts("E(1,3). E(3,4). E(4,6)."))
        fragments = policy.distribute(instance)
        assert fragments[1] == Instance(parse_facts("E(1,3). E(3,4)."))
        assert fragments[2] == Instance(parse_facts("E(3,4). E(4,6)."))

    def test_example41_hash_policy_not_domain_guided(self):
        """Example 4.1's P1 partitions on the first attribute: the fact
        E(3,4) lands on the odd node, so no node holds *all* facts with 4."""
        network = Network([1, 2])
        policy = function_policy(
            SCHEMA, network, lambda f: [1] if f.values[0] % 2 else [2]
        )
        instance = Instance(parse_facts("E(1,3). E(3,4). E(4,6)."))
        fragments = policy.distribute(instance)
        facts_with_4 = {f for f in instance if 4 in f.values}
        assert not any(facts_with_4 <= set(frag) for frag in fragments.values())

    def test_assignment_totality(self):
        network = Network(["a"])
        assignment = DomainAssignment(network, lambda value: frozenset())
        with pytest.raises(ValueError):
            assignment("anything")

    def test_assignment_stays_in_network(self):
        network = Network(["a"])
        assignment = DomainAssignment(network, lambda value: frozenset({"zz"}))
        with pytest.raises(ValueError):
            assignment(1)

    def test_hash_assignment_total_and_stable(self):
        network = Network(["a", "b"])
        assignment = hash_domain_assignment(network)
        assert assignment(42) == assignment(42)
        assert assignment("x") <= network

    def test_single_node_assignment(self):
        network = Network(["a", "b"])
        assignment = single_node_assignment(network, "b")
        assert assignment("anything") == {"b"}

    def test_dict_assignment_default(self):
        network = Network(["a", "b"])
        assignment = dict_domain_assignment(network, {}, default="b")
        assert assignment("unseen") == {"b"}


class TestDistribute:
    def test_replication_counts(self):
        network = Network(["a", "b"])
        policy = domain_guided_policy(
            SCHEMA, network, lambda value: ["a", "b"] if value == 1 else ["a"]
        )
        fragments = policy.distribute(Instance(parse_facts("E(1,2). E(2,2).")))
        assert Fact("E", (1, 2)) in fragments["a"] and Fact("E", (1, 2)) in fragments["b"]
        assert Fact("E", (2, 2)) in fragments["a"] and Fact("E", (2, 2)) not in fragments["b"]

    def test_every_node_has_entry(self):
        network = Network(["a", "b", "c"])
        fragments = single_node_policy(SCHEMA, network, "a").distribute(Instance())
        assert set(fragments) == set(network)


class TestRangePolicy:
    def _policy(self):
        from repro.transducers import range_policy

        return range_policy(SCHEMA, Network(["a", "b", "c"]), [10, 20])

    def test_partitions_by_key(self):
        policy = self._policy()
        assert policy.nodes_for(Fact("E", (5, 99))) == {"a"}
        assert policy.nodes_for(Fact("E", (15, 99))) == {"b"}
        assert policy.nodes_for(Fact("E", (25, 99))) == {"c"}

    def test_boundary_goes_up(self):
        policy = self._policy()
        assert policy.nodes_for(Fact("E", (10, 0))) == {"b"}

    def test_incomparable_key_falls_through(self):
        policy = self._policy()
        assert policy.nodes_for(Fact("E", ("zzz", 0))) == {"c"}

    def test_boundary_count_validated(self):
        from repro.transducers import range_policy

        with pytest.raises(ValueError, match="boundaries"):
            range_policy(SCHEMA, Network(["a", "b"]), [1, 2, 3])

    def test_works_with_protocols(self):
        from repro.datalog import Instance, parse_facts
        from repro.queries import complement_tc_query
        from repro.transducers import (
            TransducerNetwork,
            distinct_protocol_transducer,
            range_policy,
        )

        cotc = complement_tc_query()
        network = Network(["a", "b", "c"])
        policy = range_policy(cotc.input_schema, network, [3, 6])
        instance = Instance(parse_facts("E(1,2). E(4,5). E(8,1)."))
        run = TransducerNetwork(
            network, distinct_protocol_transducer(cotc), policy
        ).new_run(instance)
        assert run.run_to_quiescence() == cotc(instance)


class TestReplicatedAssignment:
    def test_replication_degree(self):
        from repro.transducers import replicated_hash_assignment

        network = Network(["a", "b", "c", "d"])
        assignment = replicated_hash_assignment(network, 2)
        for value in range(10):
            assert len(assignment(value)) == 2

    def test_full_replication_equals_everywhere(self):
        from repro.transducers import replicated_hash_assignment

        network = Network(["a", "b", "c"])
        assignment = replicated_hash_assignment(network, 3)
        assert assignment("anything") == network

    def test_degree_validated(self):
        from repro.transducers import replicated_hash_assignment

        with pytest.raises(ValueError):
            replicated_hash_assignment(Network(["a"]), 2)

    def test_domain_guided_protocol_with_replication(self):
        from repro.datalog import Instance, parse_facts
        from repro.queries import win_move_query
        from repro.transducers import (
            TransducerNetwork,
            disjoint_protocol_transducer,
            domain_guided_policy,
            replicated_hash_assignment,
        )

        query = win_move_query()
        network = Network(["a", "b", "c"])
        policy = domain_guided_policy(
            query.input_schema, network, replicated_hash_assignment(network, 2)
        )
        game = Instance(parse_facts("Move(1,2). Move(2,1). Move(2,3)."))
        run = TransducerNetwork(
            network, disjoint_protocol_transducer(query), policy
        ).new_run(game)
        assert run.run_to_quiescence() == query(game)

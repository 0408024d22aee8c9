"""Unit tests for instances: set algebra, adom, components, distinctness."""

import pytest

from repro.datalog import Fact, Instance, Schema
from repro.datalog.schema import SchemaError


def edges(*pairs):
    return Instance(Fact("E", p) for p in pairs)


class TestSetInterface:
    def test_construction_dedupes(self):
        inst = Instance([Fact("E", (1, 2)), Fact("E", (1, 2))])
        assert len(inst) == 1

    def test_union_intersection_difference(self):
        a = edges((1, 2), (2, 3))
        b = edges((2, 3), (3, 4))
        assert a | b == edges((1, 2), (2, 3), (3, 4))
        assert a & b == edges((2, 3))
        assert a - b == edges((1, 2))

    def test_subset(self):
        assert edges((1, 2)) <= edges((1, 2), (2, 3))
        assert edges((1, 2)) < edges((1, 2), (2, 3))
        assert not edges((9, 9)) <= edges((1, 2))

    def test_equality_with_plain_sets(self):
        assert edges((1, 2)) == {Fact("E", (1, 2))}

    def test_rejects_non_facts(self):
        with pytest.raises(TypeError):
            Instance([(1, 2)])
        with pytest.raises(TypeError):
            Instance(frozenset({Fact("E", (1, 2)), (1, 2)}))

    def test_instance_argument_is_not_rechecked(self):
        # An Instance was validated when it was built: wrapping it again
        # shares its fact set and does not walk it (an unvalidated
        # element smuggled in through _wrap is not noticed).
        base = edges((1, 2))
        assert Instance(base).facts is base.facts
        smuggled = Instance._wrap(frozenset({(1, 2)}))
        assert Instance(smuggled).facts == frozenset({(1, 2)})

    def test_from_dict_and_tuples(self):
        inst = Instance.from_dict({"E": [(1, 2)], "V": [(3,)]})
        assert inst == Instance.from_tuples("E", [(1, 2)]) | Instance.from_tuples("V", [(3,)])

    def test_add_returns_new(self):
        base = edges((1, 2))
        grown = base.add(Fact("E", (3, 4)))
        assert len(base) == 1 and len(grown) == 2


class TestDatabaseOperations:
    def test_adom(self):
        assert edges((1, 2), (2, 3)).adom() == {1, 2, 3}
        assert Instance().adom() == frozenset()

    def test_restrict_by_schema_checks_arity(self):
        mixed = Instance([Fact("E", (1, 2)), Fact("E", (1,)), Fact("V", (3,))])
        restricted = mixed.restrict(Schema({"E": 2}))
        assert restricted == edges((1, 2))

    def test_restrict_by_names(self):
        mixed = Instance([Fact("E", (1, 2)), Fact("V", (3,))])
        assert mixed.restrict(["V"]) == Instance([Fact("V", (3,))])

    def test_tuples(self):
        assert edges((1, 2), (3, 4)).tuples("E") == {(1, 2), (3, 4)}
        assert edges((1, 2)).tuples("F") == frozenset()

    def test_inferred_schema(self):
        inst = Instance([Fact("E", (1, 2)), Fact("V", (1,))])
        assert inst.inferred_schema() == Schema({"E": 2, "V": 1})

    def test_inferred_schema_conflict(self):
        inst = Instance([Fact("E", (1, 2)), Fact("E", (1,))])
        with pytest.raises(SchemaError):
            inst.inferred_schema()

    def test_rename(self):
        renamed = edges((1, 2)).rename({1: "a", 2: "b"})
        assert renamed == edges(("a", "b"))

    def test_induced_subinstance(self):
        inst = edges((1, 2), (2, 3), (3, 1))
        assert inst.induced_subinstance([1, 2]) == edges((1, 2))

    def test_is_induced_subinstance_of(self):
        whole = edges((1, 2), (2, 3))
        assert edges((1, 2)).is_induced_subinstance_of(whole)
        # Missing E(2,3) while knowing 3 -> not induced:
        partial = Instance([Fact("E", (1, 2)), Fact("V", (3,))])
        assert not partial.is_induced_subinstance_of(whole | Instance([Fact("V", (3,))]))


class TestDomainDistinctness:
    def test_fact_domain_distinct(self):
        base = edges((1, 2))
        assert base.fact_is_domain_distinct(Fact("E", (1, 9)))
        assert not base.fact_is_domain_distinct(Fact("E", (1, 2)))

    def test_fact_domain_disjoint(self):
        base = edges((1, 2))
        assert base.fact_is_domain_disjoint(Fact("E", (8, 9)))
        assert not base.fact_is_domain_disjoint(Fact("E", (1, 9)))

    def test_instance_distinct_requires_every_fact(self):
        base = edges((1, 2))
        assert edges((1, 9), (9, 8)).is_domain_distinct_from(base)
        assert not edges((1, 9), (1, 2)).is_domain_distinct_from(base)

    def test_disjoint_implies_distinct(self):
        base = edges((1, 2))
        addition = edges((8, 9))
        assert addition.is_domain_disjoint_from(base)
        assert addition.is_domain_distinct_from(base)

    def test_empty_addition_is_both(self):
        base = edges((1, 2))
        assert Instance().is_domain_distinct_from(base)
        assert Instance().is_domain_disjoint_from(base)


class TestComponents:
    def test_single_component(self):
        inst = edges((1, 2), (2, 3))
        assert inst.components() == [inst]

    def test_two_components(self):
        inst = edges((1, 2), (10, 11))
        components = {frozenset(c.facts) for c in inst.components()}
        assert components == {
            frozenset({Fact("E", (1, 2))}),
            frozenset({Fact("E", (10, 11))}),
        }

    def test_components_partition(self, two_component_graph):
        components = two_component_graph.components()
        union = Instance()
        for component in components:
            union = union | component
        assert union == two_component_graph
        adoms = [set(c.adom()) for c in components]
        for i, a in enumerate(adoms):
            for b in adoms[i + 1 :]:
                assert not (a & b)

    def test_cross_relation_components(self):
        inst = Instance([Fact("E", (1, 2)), Fact("V", (2,)), Fact("V", (9,))])
        assert len(inst.components()) == 2

    def test_empty_instance(self):
        assert Instance().components() == []

"""Coverage for smaller datalog utilities and error paths."""

import pytest

from repro.datalog import (
    EvaluationError,
    Fact,
    Instance,
    Schema,
    evaluate_well_founded,
    parse_program,
    parse_rule,
)
from repro.datalog.terms import Atom, Variable
from repro.reference import FactIndex


class TestInstanceUtilities:
    def test_map_values(self):
        inst = Instance([Fact("E", (1, 2))])
        doubled = inst.map_values(lambda v: v * 10)
        assert doubled == Instance([Fact("E", (10, 20))])

    def test_of_constructor(self):
        assert Instance.of(Fact("E", (1, 2))) == Instance([Fact("E", (1, 2))])

    def test_sorted_facts_stable(self):
        inst = Instance([Fact("B", (1,)), Fact("A", (2,)), Fact("A", (1,))])
        assert [f.relation for f in inst.sorted_facts()] == ["A", "A", "B"]

    def test_bool_and_contains(self):
        inst = Instance([Fact("E", (1, 2))])
        assert inst
        assert not Instance()
        assert Fact("E", (1, 2)) in inst
        assert Fact("E", (9, 9)) not in inst

    def test_repr_roundtrip_readability(self):
        inst = Instance([Fact("E", (1, 2))])
        assert "E(1, 2)" in repr(inst)
        assert repr(Instance()) == "Instance()"

    def test_relations(self):
        inst = Instance([Fact("E", (1, 2)), Fact("V", (1,))])
        assert inst.relations() == {"E", "V"}


class TestFactIndexUtilities:
    def test_add_all_returns_new_only(self):
        index = FactIndex([Fact("E", (1, 2))])
        added = index.add_all([Fact("E", (1, 2)), Fact("E", (3, 4))])
        assert added == [Fact("E", (3, 4))]

    def test_relations_excludes_empty(self):
        index = FactIndex([Fact("E", (1, 2))])
        assert index.relations() == {"E"}


class TestAtomUtilities:
    def test_substitute_leaves_unbound(self):
        x, y = Variable("x"), Variable("y")
        atom = Atom("E", [x, y]).substitute({x: 1})
        assert atom.terms == (1, y)

    def test_atom_repr(self):
        assert repr(Atom("E", [Variable("x"), 5])) == "E(x, 5)"


class TestErrorPaths:
    def test_wellfounded_max_rounds(self):
        program = parse_program(
            "Win(x) :- Move(x, y), not Win(y).", add_adom_rules=False
        )
        from repro.datalog.parser import parse_facts

        game = Instance(parse_facts("Move(1,2). Move(2,1)."))
        with pytest.raises(RuntimeError, match="converge"):
            evaluate_well_founded(program, game, max_rounds=0)

    def test_rule_repr_contains_all_parts(self):
        rule = parse_rule("T(x) :- R(x, y), not S(y), x != y.")
        text = repr(rule)
        assert "not S(y)" in text
        assert "x != y" in text

    def test_schema_repr(self):
        assert "E/2" in repr(Schema({"E": 2}))

    def test_variable_graph_of_constant_only_rule(self):
        from repro.datalog import is_connected_rule

        # No variables at all: vacuously connected.
        assert is_connected_rule(parse_rule("T(1) :- R(1, 2)."))


class TestStratificationRenumbering:
    def test_deep_negation_chain_contiguous_strata(self):
        from repro.datalog import stratify

        program = parse_program(
            """
            A(x) :- R(x).
            B(x) :- R(x), not A(x).
            C(x) :- R(x), not B(x).
            D(x) :- R(x), not C(x).
            """
        )
        stratification = stratify(program)
        levels = sorted(set(stratification.stratum_of.values()))
        assert levels == list(range(1, len(levels) + 1))
        assert stratification.depth == len(stratification.strata)

    def test_stratum_rules_accessor(self):
        from repro.datalog import stratify

        program = parse_program(
            "A(x) :- R(x). B(x) :- R(x), not A(x).", add_adom_rules=False
        )
        stratification = stratify(program)
        assert stratification.stratum_rules(1)[0].head.relation == "A"
        assert stratification.stratum_rules(2)[0].head.relation == "B"

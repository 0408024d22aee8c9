"""Unit tests for the semi-positive fixpoint engine and join machinery."""

import pytest

from repro.datalog import (
    EvaluationError,
    Fact,
    FactIndex,
    Instance,
    SemiNaiveEvaluator,
    evaluate_semipositive,
    immediate_consequence,
    match_rule,
    naive_fixpoint,
    parse_program,
    parse_rule,
)


def edges(*pairs):
    return Instance(Fact("E", p) for p in pairs)


class TestFactIndex:
    def test_add_reports_novelty(self):
        index = FactIndex()
        assert index.add(Fact("E", (1, 2)))
        assert not index.add(Fact("E", (1, 2)))

    def test_lookup_by_position(self):
        index = FactIndex(edges((1, 2), (1, 3), (2, 3)))
        assert set(index.lookup("E", 0, 1)) == {(1, 2), (1, 3)}
        assert set(index.lookup("E", 1, 3)) == {(1, 3), (2, 3)}

    def test_contains(self):
        index = FactIndex(edges((1, 2)))
        assert index.contains("E", (1, 2))
        assert not index.contains("E", (2, 1))
        assert not index.contains("F", (1, 2))

    def test_roundtrip_to_instance(self):
        inst = edges((1, 2), (3, 4))
        assert FactIndex(inst).to_instance() == inst

    def test_count_and_len(self):
        index = FactIndex(edges((1, 2), (3, 4)))
        assert index.count("E") == 2
        assert len(index) == 2


class TestMatchRule:
    def test_join_two_atoms(self):
        rule = parse_rule("T(x, z) :- E(x, y), E(y, z).")
        index = FactIndex(edges((1, 2), (2, 3)))
        derived = {rule.derive(v) for v in match_rule(rule, index)}
        assert derived == {Fact("T", (1, 3))}

    def test_negation_against_separate_index(self):
        rule = parse_rule("T(x) :- R(x), not S(x).")
        positive = FactIndex([Fact("R", (1,)), Fact("R", (2,))])
        negative = FactIndex([Fact("S", (2,))])
        derived = {rule.derive(v) for v in match_rule(rule, positive, negative)}
        assert derived == {Fact("T", (1,))}

    def test_inequality_filtering(self):
        rule = parse_rule("T(x, y) :- E(x, y), x != y.")
        index = FactIndex(edges((1, 1), (1, 2)))
        derived = {rule.derive(v) for v in match_rule(rule, index)}
        assert derived == {Fact("T", (1, 2))}

    def test_constant_in_body(self):
        rule = parse_rule("T(y) :- E(1, y).")
        index = FactIndex(edges((1, 2), (3, 4)))
        derived = {rule.derive(v) for v in match_rule(rule, index)}
        assert derived == {Fact("T", (2,))}

    def test_repeated_variable_in_atom(self):
        rule = parse_rule("T(x) :- E(x, x).")
        index = FactIndex(edges((1, 1), (1, 2)))
        derived = {rule.derive(v) for v in match_rule(rule, index)}
        assert derived == {Fact("T", (1,))}


class TestImmediateConsequence:
    def test_single_step(self):
        program = parse_program("T(x, z) :- E(x, y), E(y, z).", output_relations=["T"])
        result = immediate_consequence(program, edges((1, 2), (2, 3)))
        assert Fact("T", (1, 3)) in result
        assert Fact("E", (1, 2)) in result  # J is included

    def test_does_not_iterate(self):
        program = parse_program(
            "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).", output_relations=["T"]
        )
        one_step = immediate_consequence(program, edges((1, 2), (2, 3)))
        assert Fact("T", (1, 3)) not in one_step  # needs two applications


class TestSemiNaive:
    def test_transitive_closure(self):
        program = parse_program(
            "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).",
            output_relations=["T"],
        )
        chain = edges(*[(i, i + 1) for i in range(6)])
        result = evaluate_semipositive(program, chain)
        expected = {(i, j) for i in range(7) for j in range(i + 1, 7)}
        assert {f.values for f in result if f.relation == "T"} == expected

    def test_matches_naive_iteration(self, tc_program, chain_graph):
        semi = evaluate_semipositive(tc_program, chain_graph)
        assert semi == naive_fixpoint(tc_program, chain_graph)

    def test_semipositive_negation(self):
        program = parse_program("O(x, y) :- E(x, y), not Mark(x).")
        instance = edges((1, 2), (2, 3)) | Instance([Fact("Mark", (1,))])
        result = evaluate_semipositive(program, instance)
        assert {f.values for f in result if f.relation == "O"} == {(2, 3)}

    def test_idb_negation_rejected(self):
        program = parse_program("T(x) :- R(x). O(x) :- R(x), not T(x).")
        with pytest.raises(EvaluationError):
            SemiNaiveEvaluator(program)

    def test_max_iterations_guard(self):
        program = parse_program(
            "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).",
            output_relations=["T"],
        )
        chain = edges(*[(i, i + 1) for i in range(30)])
        with pytest.raises(EvaluationError, match="converge"):
            SemiNaiveEvaluator(program).run(chain, max_iterations=3)

    def test_empty_input(self, tc_program):
        assert evaluate_semipositive(
            parse_program("T(x, y) :- E(x, y).", output_relations=["T"]), Instance()
        ) == Instance()

    def test_cyclic_graph_terminates(self):
        program = parse_program(
            "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).",
            output_relations=["T"],
        )
        cycle = edges((1, 2), (2, 3), (3, 1))
        result = evaluate_semipositive(program, cycle)
        assert {f.values for f in result if f.relation == "T"} == {
            (a, b) for a in (1, 2, 3) for b in (1, 2, 3)
        }


class TestGroundRules:
    """Rules with an empty positive body (ground rules): both evaluators
    must agree — regression for the semi-naive delta loop, which used to
    skip them entirely because no body atom could come from the delta."""

    def _ground_program(self):
        from repro.datalog import Atom, Program, Rule, parse_rules

        rules = parse_rules(
            "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). O(y) :- Seed(x), E(x, y)."
        )
        rules.append(Rule(Atom("Seed", (1,)), pos=[], neg=[Atom("Off", ())]))
        return Program(rules)

    def test_seminaive_matches_naive_with_ground_rule(self):
        program = self._ground_program()
        instance = edges((1, 2), (2, 3))
        semi = evaluate_semipositive(program, instance)
        assert semi == naive_fixpoint(program, instance)
        assert Fact("Seed", (1,)) in semi
        assert Fact("O", (2,)) in semi  # downstream of the ground fact

    def test_ground_rule_fires_on_empty_instance(self):
        program = self._ground_program()
        semi = evaluate_semipositive(program, Instance())
        assert semi == naive_fixpoint(program, Instance())
        assert Fact("Seed", (1,)) in semi

    def test_ground_rule_blocked_by_edb_negation(self):
        program = self._ground_program()
        instance = edges((1, 2)) | Instance([Fact("Off", ())])
        semi = evaluate_semipositive(program, instance)
        assert semi == naive_fixpoint(program, instance)
        assert Fact("Seed", (1,)) not in semi

    def test_nonground_empty_body_still_rejected(self):
        from repro.datalog import Atom, Rule, RuleValidationError, make_variables

        x = make_variables("x")[0]
        with pytest.raises(RuleValidationError, match="unsafe"):
            Rule(Atom("Seed", [x]), pos=[], neg=[Atom("Off", [x])])


class TestBindingAliasing:
    """`_extend_binding` returns the input binding object unchanged when the
    match binds no new variable — the no-copy contract of the inner join
    loop (regression: it used to copy on every candidate tuple)."""

    def test_no_new_bindings_returns_same_object(self):
        from repro.datalog import Atom, make_variables
        from repro.datalog.evaluation import _extend_binding

        x, y = make_variables("x y")
        binding = {x: 1, y: 2}
        result = _extend_binding(Atom("E", [x, y]), (1, 2), binding)
        assert result is binding

    def test_new_binding_copies(self):
        from repro.datalog import Atom, make_variables
        from repro.datalog.evaluation import _extend_binding

        x, y = make_variables("x y")
        binding = {x: 1}
        result = _extend_binding(Atom("E", [x, y]), (1, 2), binding)
        assert result == {x: 1, y: 2}
        assert result is not binding
        assert binding == {x: 1}  # input untouched

    def test_mismatch_returns_none(self):
        from repro.datalog import Atom, make_variables
        from repro.datalog.evaluation import _extend_binding

        x = make_variables("x")[0]
        assert _extend_binding(Atom("E", [x, x]), (1, 2), {}) is None


_KERNEL_BLOCKED_SCRIPT = """
import importlib.abc, pathlib, sys, types

# `import repro` itself pulls in repro.kernel, so stand in a bare package
# and let only the submodules that are asked for load.
package = types.ModuleType("repro")
package.__path__ = [str(pathlib.Path(sys.argv[1]) / "repro")]
sys.modules["repro"] = package


class BlockKernel(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "repro.kernel" or name.startswith("repro.kernel."):
            raise ImportError("repro.kernel is blocked in this process")


sys.meta_path.insert(0, BlockKernel())

from repro.datalog import (
    Instance, evaluate_semipositive, naive_fixpoint, naive_well_founded,
    parse_facts, parse_program, winmove_program,
)

cotc = parse_program(
    "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z)."
    " O(x, y) :- E(x, z), E(z, y), not T(y, x)."
)
full = naive_fixpoint(cotc, Instance(parse_facts("E(1, 2). E(2, 3).")))
assert {f.values for f in full if f.relation == "O"} == {(1, 3)}
game = Instance(parse_facts("Move(1, 2). Move(2, 3). Move(4, 5). Move(5, 4)."))
model = naive_well_founded(winmove_program(), game)
assert {f.values for f in model.true if f.relation == "Win"} == {(2,)}
assert {f.values for f in model.undefined} == {(4,), (5,)}
assert not [name for name in sys.modules if name.startswith("repro.kernel")]

# The block does bite: the production engine cannot start without it.
try:
    evaluate_semipositive(parse_program("T(x) :- E(x, y)."), Instance())
except ImportError:
    print("REFERENCES_RAN_WITHOUT_THE_KERNEL")
"""


def test_reference_engines_never_import_the_kernel():
    """``naive_fixpoint`` and ``naive_well_founded`` are independent of the
    engine they check: they run with ``repro.kernel`` unimportable."""
    import pathlib
    import subprocess
    import sys

    import repro

    src = pathlib.Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _KERNEL_BLOCKED_SCRIPT, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "REFERENCES_RAN_WITHOUT_THE_KERNEL" in result.stdout

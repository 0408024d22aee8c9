"""Unit tests for stratified semantics (Section 2)."""

import threading

from repro.datalog import (
    Fact,
    Instance,
    StratifiedEvaluator,
    evaluate,
    evaluate_stratified,
    parse_facts,
    parse_program,
)
from repro.kernel import KernelEvaluator, engine
from repro.queries import DatalogQuery
from repro.reference import naive_fixpoint


def out_tuples(result):
    return {f.values for f in result if f.relation == "O"}


class TestStratifiedEvaluation:
    def test_complement_tc(self, cotc_program):
        instance = Instance(parse_facts("E(1,2). E(2,3)."))
        result = evaluate(cotc_program, instance)
        missing = {f.values for f in result}
        # Paths: 1->2, 2->3, 1->3.  Everything else over {1,2,3} is missing.
        assert missing == {
            (a, b) for a in (1, 2, 3) for b in (1, 2, 3)
        } - {(1, 2), (2, 3), (1, 3)}

    def test_result_includes_input(self, cotc_program):
        instance = Instance(parse_facts("E(1,2)."))
        full = evaluate_stratified(cotc_program, instance)
        assert Fact("E", (1, 2)) in full

    def test_three_strata(self):
        program = parse_program(
            """
            A(x) :- R(x).
            B(x) :- R(x), not A(x).
            O(x) :- R(x), not B(x).
            """
        )
        instance = Instance(parse_facts("R(1). R(2)."))
        # A = {1,2}; B = {} (everything is in A); O = R.
        assert out_tuples(evaluate(program, instance)) == {(1,), (2,)}

    def test_winners_of_one_round_game(self):
        # Positions with a move to a dead end, via stratified negation.
        program = parse_program(
            """
            HasMove(x) :- Move(x, y).
            O(x) :- Move(x, y), not HasMove(y).
            """
        )
        instance = Instance(parse_facts("Move(1,2). Move(2,3)."))
        assert out_tuples(evaluate(program, instance)) == {(2,)}

    def test_evaluator_reusable_across_inputs(self, cotc_program):
        evaluator = StratifiedEvaluator(cotc_program)
        small = evaluator.output(Instance(parse_facts("E(1,1).")))
        large = evaluator.output(Instance(parse_facts("E(1,2). E(2,1).")))
        assert small == Instance()  # 1 reaches 1
        assert {f.values for f in large} == set()  # every pair connected

    def test_example51_p1_triangle_free_vertices(self):
        from repro.queries import zoo_program

        program = zoo_program("example51-p1")
        triangle = Instance(parse_facts("E(1,2). E(2,3). E(3,1). E(4,4)."))
        result = evaluate(program, triangle)
        # 1,2,3 are on a triangle; 4 is not.
        assert out_tuples(result) == {(4,)}

    def test_stratified_matches_semipositive_on_sp_program(self):
        program = parse_program("O(x, y) :- E(x, y), not Mark(x).")
        instance = Instance(parse_facts("E(1,2). E(2,3). Mark(1)."))
        assert evaluate_stratified(program, instance) == KernelEvaluator(program).run(
            instance
        )

    def test_output_projection(self, cotc_program):
        instance = Instance(parse_facts("E(1,2)."))
        projected = evaluate(cotc_program, instance)
        assert {f.relation for f in projected} <= {"O"}


class TestOneDatabase:
    """One symbol table for every stratum, one interned database per
    evaluation, and only the returned relations decoded."""

    def test_constant_in_a_higher_stratum(self):
        # "hub" is interned when stratum 2 compiles; the input's "hub" must
        # get that same id from the shared table.
        program = parse_program(
            """
            Reach(x, y) :- E(x, y).
            Reach(x, z) :- Reach(x, y), E(y, z).
            O(x, "far") :- V(x), not Reach(x, "hub").
            O(x, "near") :- Reach(x, "hub").
            """
        )
        instance = Instance(
            parse_facts('E("a", "hub"). E("b", "c"). V("a"). V("b"). V("c").')
        )
        assert evaluate(program, instance) == naive_fixpoint(program, instance).restrict(
            program.output_schema()
        )
        assert out_tuples(evaluate(program, instance)) == {
            ("a", "near"), ("b", "far"), ("c", "far"),
        }

    def test_ground_rule_in_a_higher_stratum(self):
        program = parse_program(
            """
            T(x, y) :- E(x, y).
            T(x, z) :- T(x, y), E(y, z).
            NoLoop(1) :- not T(1, 1).
            O(x) :- NoLoop(x), V(x).
            """
        )
        evaluator = StratifiedEvaluator(program)
        acyclic = Instance(parse_facts("E(1,2). V(1)."))
        cyclic = Instance(parse_facts("E(1,2). E(2,1). V(1)."))
        assert out_tuples(evaluator.output(acyclic)) == {(1,)}
        assert out_tuples(evaluator.output(cyclic)) == set()
        for instance in (acyclic, cyclic):
            assert evaluator.run(instance) == naive_fixpoint(program, instance)

    def test_output_fact_of_another_arity_in_the_input(self, cotc_program):
        instance = Instance(parse_facts("E(1,2). O(7). O(8, 9)."))
        evaluator = StratifiedEvaluator(cotc_program)
        output = evaluator.output(instance)
        # The binary O fact is part of P(I), hence output; the unary one
        # matches no atom and is not over the output schema.
        assert Fact("O", (8, 9)) in output
        assert Fact("O", (7,)) not in output
        assert output == naive_fixpoint(cotc_program, instance).restrict(
            cotc_program.output_schema()
        )
        # run() is all of P(I), the input's stray fact included.
        full = evaluator.run(instance)
        assert Fact("O", (7,)) in full
        assert full == naive_fixpoint(cotc_program, instance)

    def test_strata_share_one_table_and_compile_lazily(self, cotc_program):
        evaluator = StratifiedEvaluator(cotc_program)
        assert evaluator.plans_compiled == 0  # nothing compiled before a call
        per_stratum = sum(
            KernelEvaluator(stage, check_semipositive=False).compiled
            for stage in evaluator.stratification.strata
        )
        evaluator.output(Instance(parse_facts("E(1,2).")))
        assert evaluator.plans_compiled == per_stratum
        evaluator.output(Instance(parse_facts("E(2,3).")))
        assert evaluator.plans_compiled == per_stratum  # compiled once
        kernel = evaluator._kernel
        assert len(kernel.kernels) == len(evaluator.stratification.strata) > 1
        assert all(stage.table is kernel.table for stage in kernel.kernels)

    def test_output_decodes_only_output_relations(self, monkeypatch, cotc_program):
        decoded = []
        original = engine.decode_database

        def recording(relations, table):
            decoded.append(sorted(relations))
            return original(relations, table)

        monkeypatch.setattr(engine, "decode_database", recording)
        instance = Instance(parse_facts("E(1,2). E(2,3)."))
        StratifiedEvaluator(cotc_program).output(instance)
        DatalogQuery(cotc_program)(instance)
        assert decoded == [["O"], ["O"]]  # never T, never the input's E

    def test_concurrent_first_calls(self, cotc_program):
        evaluator = StratifiedEvaluator(cotc_program)
        instance = Instance(parse_facts("E(1,2). E(2,3)."))
        reference = StratifiedEvaluator(cotc_program)
        expected = reference.output(instance)
        start = threading.Barrier(4)
        results = []

        def call():
            start.wait()
            results.append(evaluator.output(instance))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [expected] * 4
        # Whichever call published its kernel, the count is one build's.
        assert evaluator.plans_compiled == reference.plans_compiled

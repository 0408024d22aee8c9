"""The kernel engine vs the naive T_P reference, feature by feature.

Every structural feature of Datalog¬ the codegen specializes — constants
in body atoms, repeated variables, inequalities, negation (including the
ground-rule guard), nullary relations, mixed-arity relations — gets an
explicit equivalence check against ``naive_fixpoint`` (the recursive join),
plus the surface checks (semipositive validation, max_iterations message).
"""

import random

import pytest

from repro.datalog.instance import Instance
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.stratified import EvaluationError, StratifiedEvaluator
from repro.datalog.terms import Atom, Fact, Inequality, Variable
from repro.kernel.engine import KernelEvaluator
from repro.kernel.relation import ColumnarRelation
from repro.reference import naive_fixpoint

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def assert_kernel_matches_naive(program, instance):
    kernel = KernelEvaluator(program, check_semipositive=False).run(instance)
    assert kernel == naive_fixpoint(program, instance)
    return kernel


def random_graph(n, m, seed=0):
    rng = random.Random(seed)
    return {Fact("E", (rng.randrange(n), rng.randrange(n))) for _ in range(m)}


class TestFeatureEquivalence:
    def test_transitive_closure(self):
        program = Program(
            [
                Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
                Rule(Atom("T", (X, Z)), [Atom("T", (X, Y)), Atom("E", (Y, Z))]),
            ]
        )
        result = assert_kernel_matches_naive(
            program, Instance(random_graph(12, 40))
        )
        assert result.tuples("T")

    def test_constants_in_body_and_head(self):
        program = Program(
            [
                Rule(Atom("P", (X, "tagged")), [Atom("E", (X, 3))]),
                Rule(Atom("Q", (7,)), [Atom("P", (X, "tagged"))]),
            ]
        )
        assert_kernel_matches_naive(program, Instance(random_graph(6, 25, seed=2)))

    def test_repeated_variables(self):
        # Self-loops: the same variable twice in one atom.
        program = Program([Rule(Atom("L", (X,)), [Atom("E", (X, X))])])
        instance = Instance(random_graph(5, 20, seed=3))
        result = assert_kernel_matches_naive(program, instance)
        expected = {v[0] for v in instance.tuples("E") if v[0] == v[1]}
        assert {row[0] for row in result.tuples("L")} == expected

    def test_inequalities(self):
        program = Program(
            [
                Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
                Rule(Atom("T", (X, Z)), [Atom("T", (X, Y)), Atom("E", (Y, Z))]),
                Rule(
                    Atom("Proper", (X, Y)),
                    [Atom("T", (X, Y))],
                    ineq=[Inequality(X, Y)],
                ),
            ]
        )
        result = assert_kernel_matches_naive(
            program, Instance(random_graph(8, 30, seed=4))
        )
        assert all(row[0] != row[1] for row in result.tuples("Proper"))

    def test_negation_on_edb(self):
        program = Program(
            [
                Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
                Rule(Atom("T", (X, Z)), [Atom("T", (X, Y)), Atom("E", (Y, Z))]),
                Rule(
                    Atom("Safe", (X, Y)),
                    [Atom("T", (X, Y))],
                    neg=[Atom("Blocked", (X,))],
                ),
            ]
        )
        facts = random_graph(8, 30, seed=5) | {Fact("Blocked", (2,))}
        result = assert_kernel_matches_naive(program, Instance(facts))
        assert all(row[0] != 2 for row in result.tuples("Safe"))

    def test_ground_rules_and_blocking_guards(self):
        # Both polarities of the ground-rule negation guard: Off() holds,
        # so G must NOT derive; On() is absent, so H must derive.
        program = Program(
            [
                Rule(Atom("G", ("g",)), [], neg=[Atom("Off", ())]),
                Rule(Atom("H", ("h",)), [], neg=[Atom("On", ())]),
            ]
        )
        result = assert_kernel_matches_naive(
            program, Instance({Fact("Off", ())})
        )
        assert not result.tuples("G")
        assert result.tuples("H")

    def test_nullary_relations_through_joins(self):
        program = Program(
            [
                Rule(Atom("Ready", ()), [Atom("E", (X, Y))]),
                Rule(Atom("Go", (X,)), [Atom("Ready", ()), Atom("V", (X,))]),
            ]
        )
        facts = {Fact("E", (1, 2)), Fact("V", (1,)), Fact("V", (9,))}
        result = assert_kernel_matches_naive(program, Instance(facts))
        assert len(result.tuples("Go")) == 2

    def test_mixed_arity_relation(self):
        # The same relation name at two arities: arity guards must keep
        # the generated loops from matching short rows.
        program = Program([Rule(Atom("P", (X, Y)), [Atom("R", (X, Y))])])
        facts = {Fact("R", (1,)), Fact("R", (1, 2)), Fact("R", (1, 2, 3))}
        result = assert_kernel_matches_naive(program, Instance(facts))
        assert result.tuples("P") == {(1, 2)}

    def test_empty_instance(self):
        program = Program([Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))])])
        result = assert_kernel_matches_naive(program, Instance())
        assert result == Instance()

    def test_guards_on_variables_bound_in_later_atoms(self):
        # Regression: inequality/negation variables first bound by the
        # innermost loop, not the seed atom (crashed an early codegen).
        program = Program(
            [
                Rule(
                    Atom("P", (X, Z)),
                    [Atom("A", (X, Y)), Atom("B", (Y, Z))],
                    neg=[Atom("N", (Z,))],
                    ineq=[Inequality(X, Z)],
                )
            ]
        )
        rng = random.Random(6)
        facts = {Fact("A", (rng.randrange(6), rng.randrange(6))) for _ in range(15)}
        facts |= {Fact("B", (rng.randrange(6), rng.randrange(6))) for _ in range(15)}
        facts |= {Fact("N", (2,))}
        assert_kernel_matches_naive(program, Instance(facts))


class TestSurfaceParity:
    def test_semipositive_check_matches_tuple_engine(self):
        bad = Program(
            [
                Rule(Atom("P", (X,)), [Atom("E", (X, Y))]),
                Rule(Atom("Q", (X,)), [Atom("E", (X, Y))], neg=[Atom("P", (X,))]),
            ]
        )
        with pytest.raises(EvaluationError) as kernel_error:
            KernelEvaluator(bad)
        assert str(kernel_error.value) == (
            "program negates idb relations; use the stratified evaluator"
        )

    def test_max_iterations_parity(self):
        program = Program(
            [
                Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
                Rule(Atom("T", (X, Z)), [Atom("T", (X, Y)), Atom("E", (Y, Z))]),
            ]
        )
        chain = Instance({Fact("E", (i, i + 1)) for i in range(8)})
        for cap in range(1, 11):  # the chain converges at cap 9
            try:
                naive_fixpoint(program, chain, max_iterations=cap)
                naive_outcome = "converged"
            except EvaluationError as error:
                naive_outcome = str(error)
            try:
                KernelEvaluator(program, check_semipositive=False).run(
                    chain, max_iterations=cap
                )
                kernel_outcome = "converged"
            except EvaluationError as error:
                kernel_outcome = str(error)
            assert kernel_outcome == naive_outcome
            assert (kernel_outcome == "converged") == (cap >= 9)

    def test_compiled_counter_and_source(self):
        program = Program(
            [
                Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
                Rule(Atom("T", (X, Z)), [Atom("T", (X, Y)), Atom("E", (Y, Z))]),
            ]
        )
        evaluator = KernelEvaluator(program, check_semipositive=False)
        # One specialization per (rule, positive-atom occurrence): 1 + 2.
        assert evaluator.compiled == 3
        assert all("def _kernel_fire" in c.source for c in evaluator._seeded)

    def test_dispatch_surfaces_kernel_compiles_as_plans_compiled(self):
        program = Program([Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))])])
        evaluator = StratifiedEvaluator(program)
        assert evaluator.plans_compiled == 0  # nothing compiled before a run
        evaluator.run(Instance({Fact("E", (1, 2))}))
        assert evaluator.plans_compiled == 1  # one rule, one seed atom

    def test_table_persists_across_runs(self):
        program = Program([Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))])])
        evaluator = KernelEvaluator(program, check_semipositive=False)
        evaluator.run(Instance({Fact("E", ("a", "b"))}))
        size_after_first = len(evaluator.table)
        evaluator.run(Instance({Fact("E", ("a", "b"))}))
        assert len(evaluator.table) == size_after_first  # no re-allocation


class TestLazyColumns:
    def test_columns_build_only_when_probed(self):
        relation = ColumnarRelation("E")
        relation.merge({(1, 2), (2, 3), (1, 3)})
        assert relation.indexed_positions() == ()
        index = relation.index(1)
        assert relation.indexed_positions() == (1,)
        assert sorted(index[3]) == [(1, 3), (2, 3)]

    def test_built_columns_are_maintained_incrementally(self):
        relation = ColumnarRelation("E")
        relation.merge({(1, 2)})
        index = relation.index(0)
        relation.merge({(1, 5)})
        relation.merge({(1, 5), (1, 2)})  # duplicates: must not double-post
        assert sorted(index[1]) == [(1, 2), (1, 5)]
        # Unbuilt column untouched; short rows skip tall columns.
        relation.merge({(9,)})
        assert relation.indexed_positions() == (0,)
        assert sorted(relation.index(1).keys()) == [2, 5]

    def test_tc_run_builds_only_bound_columns(self):
        # TC probes each relation only on the column its delta rules bind;
        # the other column must never be materialized by the fixpoint.
        program = Program(
            [
                Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
                Rule(Atom("T", (X, Z)), [Atom("T", (X, Y)), Atom("E", (Y, Z))]),
            ]
        )
        evaluator = KernelEvaluator(program, check_semipositive=False)
        evaluator.run(Instance(random_graph(10, 30, seed=8)))
        # Recover the database columns via a fresh traced run.
        from repro.kernel.relation import ColumnarDatabase

        db = ColumnarDatabase()
        table = evaluator.table
        for fact in Instance(random_graph(10, 30, seed=8)):
            db.relation(fact.relation).merge({table.intern_tuple(fact.values)})
        for compiled in evaluator._seeded:
            compiled.fire(db, list(db.relation(compiled.seed_relation).tuples), lambda row: None)
        # The T-seeded delta rule probes E on its join column 0; the
        # E-seeded one probes T on column 1.  No other column of either
        # relation is ever materialized.
        assert db.relation("E").indexed_positions() == (0,)
        assert db.relation("T").indexed_positions() == (1,)


class TestMerge:
    """``ColumnarRelation.merge``: the bulk insert the fixpoint applies
    once per head relation and iteration."""

    def test_returns_exactly_the_new_rows(self):
        relation = ColumnarRelation("E", {(1, 2), (2, 3)})
        new = relation.merge({(2, 3), (3, 4), (4, 5)})
        assert isinstance(new, list)  # the next delta
        assert sorted(new) == [(3, 4), (4, 5)]
        assert relation.tuples == {(1, 2), (2, 3), (3, 4), (4, 5)}
        assert relation.merge({(1, 2), (4, 5)}) == []
        assert relation.merge(set()) == []

    def test_adopted_set_grows_in_place(self):
        rows = {(1, 2)}
        relation = ColumnarRelation("E", rows)
        relation.merge({(5, 6)})
        assert relation.tuples is rows and (5, 6) in rows

    def test_built_indexes_equal_rebuilt_ones(self):
        rng = random.Random(11)
        relation = ColumnarRelation("R", {(0, 0, 0)})
        built = {position: relation.index(position) for position in (0, 2)}
        for _ in range(6):
            relation.merge(
                {
                    tuple(rng.randrange(5) for _ in range(rng.choice((1, 2, 3))))
                    for _ in range(10)
                }
            )
        rebuilt = ColumnarRelation("R", set(relation.tuples))
        for position, column in built.items():
            # Same keys, same postings, no posting twice; short rows skipped.
            assert {key: sorted(rows) for key, rows in column.items()} == {
                key: sorted(rows) for key, rows in rebuilt.index(position).items()
            }

    def test_built_indexes_stay_exact_across_deletes(self):
        """``delete``, the inverse the well-founded evaluator's DRed step
        uses: interleaved with merges, every built column equals one built
        from scratch, and the adopted row set shrinks in place."""
        rng = random.Random(5)
        rows = {(0, 0, 0)}
        relation = ColumnarRelation("R", rows)
        built = {position: relation.index(position) for position in (0, 2)}
        for _ in range(8):
            relation.merge(
                {
                    tuple(rng.randrange(4) for _ in range(rng.choice((1, 2, 3))))
                    for _ in range(8)
                }
            )
            relation.delete(set(rng.sample(sorted(relation.tuples), 5)))
        assert relation.tuples is rows
        rebuilt = ColumnarRelation("R", set(rows))
        for position, column in built.items():
            assert {key: sorted(rows) for key, rows in column.items()} == {
                key: sorted(rows) for key, rows in rebuilt.index(position).items()
            }

    def test_unbuilt_columns_stay_unbuilt(self):
        relation = ColumnarRelation("E")
        relation.index(1)
        relation.merge({(1, 2), (3, 4)})
        assert relation.indexed_positions() == (1,)
        assert sorted(relation.index(0)) == [1, 3]  # built from the rows on demand

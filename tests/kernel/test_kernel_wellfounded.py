"""The well-founded evaluator on the kernel: the two engines by name, the
twin relation guard, evaluator reuse, and what gets decoded.

The naive Γ (``naive_well_founded``) is the oracle throughout;
``tests/properties/test_property_wellfounded.py`` holds the
generated-program equivalence.
"""

import pytest

from repro.datalog import (
    Fact,
    Instance,
    evaluate_doubled,
    evaluate_well_founded,
    naive_well_founded,
    parse_facts,
    parse_program,
    winmove_program,
)
from repro.datalog import wellfounded
from repro.datalog.wellfounded import WellFoundedEvaluator
from repro.kernel import engine as kernel_engine
from repro.kernel import wellfounded as kernel_wellfounded
from repro.kernel.wellfounded import ASSUMED_SUFFIX, FrozenNegationKernel
from repro.queries import DatalogQuery, WellFoundedQuery, win_move_query
from repro.queries.generators import random_game_graph


def naive_doubled(program, instance, *, max_rounds=10_000):
    """The doubled-program iteration over the naive Γ session."""
    return wellfounded._model(
        wellfounded._NaiveSession(program, instance),
        wellfounded._doubled_iteration,
        max_rounds,
    )


GAME = Instance(parse_facts("Move(1,2). Move(2,3). Move(4,5). Move(5,4). Move(1,4)."))


class TestDispatch:
    def test_default_path_is_the_kernel_and_never_touches_match_rule(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("naive Γ ran on the default path")

        monkeypatch.setattr(wellfounded, "match_rule", forbidden)
        evaluator = WellFoundedEvaluator(winmove_program())
        model = evaluator.model(GAME)
        assert evaluator.kernel_compiled == 1
        assert {f.values[0] for f in model.true if f.relation == "Win"} == {2}
        assert {f.values[0] for f in model.undefined} == {1, 4, 5}

    def test_naive_reference_gives_the_same_model_without_the_kernel(self, monkeypatch):
        expected = evaluate_well_founded(winmove_program(), GAME)

        def forbidden(*args, **kwargs):
            raise AssertionError("the kernel ran under the naive reference")

        monkeypatch.setattr(kernel_engine.KernelEvaluator, "__init__", forbidden)
        monkeypatch.setattr(kernel_wellfounded.GammaSession, "__init__", forbidden)
        assert naive_well_founded(winmove_program(), GAME) == expected
        with pytest.raises(AssertionError):  # the patch does bite
            evaluate_well_founded(winmove_program(), GAME)

    @pytest.mark.parametrize("kernel", [True, False])
    def test_max_rounds_error_messages_kept(self, kernel):
        if kernel:
            alternating, doubled = evaluate_well_founded, evaluate_doubled
        else:
            alternating, doubled = naive_well_founded, naive_doubled
        with pytest.raises(
            RuntimeError,
            match="alternating fixpoint did not converge within 0 rounds",
        ):
            alternating(winmove_program(), GAME, max_rounds=0)
        with pytest.raises(
            RuntimeError,
            match="doubled-program iteration did not converge within 0 rounds",
        ):
            doubled(winmove_program(), GAME, max_rounds=0)


class TestTwinRelationGuard:
    def test_twin_avoids_a_relation_the_program_defines(self):
        taken = "Win" + ASSUMED_SUFFIX
        program = parse_program(
            f"""
            Win(x) :- Move(x, y), not Win(y).
            {taken}(x) :- Move(x, y), not {taken}(y), not Win(x).
            """
        )
        kernel = FrozenNegationKernel(program)
        twins = kernel.twins
        assert set(twins) == {"Win", taken}
        assert not set(twins.values()) & set(program.sch())
        assert len(set(twins.values())) == 2
        assert evaluate_well_founded(program, GAME) == naive_well_founded(
            program, GAME
        )

    def test_twin_avoids_an_edb_relation_of_that_name(self):
        taken = "Win" + ASSUMED_SUFFIX
        program = parse_program(
            f"Win(x) :- Move(x, y), not Win(y), not {taken}(x)."
        )
        instance = GAME | Instance([Fact(taken, (2,))])
        model = evaluate_well_founded(program, instance)
        assert model == naive_well_founded(program, instance)
        # Win(2) is blocked by the edb fact, which makes 1 the winner.
        assert {f.values[0] for f in model.true if f.relation == "Win"} == {1}

    def test_instance_facts_named_like_a_twin_are_inert(self):
        stray = Fact("Win" + ASSUMED_SUFFIX, (3,))
        instance = GAME | Instance([stray])
        model = evaluate_well_founded(winmove_program(), instance)
        assert model == naive_well_founded(winmove_program(), instance)
        assert stray in model.true
        assert model.true - Instance([stray]) == (
            evaluate_well_founded(winmove_program(), GAME).true
        )


class TestReuse:
    def test_one_evaluator_many_instances(self):
        shared = WellFoundedEvaluator(winmove_program())
        shared.model(Instance())
        table = shared._kernel.table
        seen: list = []
        for seed in range(12):
            game = random_game_graph(7, 11, seed=seed)
            # String positions on odd seeds: new symbols keep arriving.
            if seed % 2:
                game = game.rename({v: f"p{v}" for v in game.adom()})
            assert shared.model(game) == WellFoundedEvaluator(
                winmove_program()
            ).model(game)
            assert shared.output(game) == shared.model(game).true.restrict(["Win"])
            # Append-only: every id handed out so far still means the same.
            assert table.values[: len(seen)] == seen
            seen = list(table.values)
        assert shared.kernel_compiled == 1

    def test_win_move_query_compiles_once_and_program_is_built_once(self, monkeypatch):
        import repro.kernel.codegen as codegen

        assert winmove_program() is winmove_program()
        compiled = []
        original = codegen.compile_rule
        monkeypatch.setattr(
            kernel_engine,
            "compile_rule",
            lambda *args: compiled.append(args) or original(*args),
        )
        query = win_move_query()
        results = [query(random_game_graph(6, 9, seed=seed)) for seed in range(5)]
        assert len(compiled) == 1
        assert all(set(result.relations()) <= {"Win"} for result in results)


class TestProjection:
    def test_query_output_is_only_the_true_output_relation(self):
        program = parse_program(
            """
            Win(x) :- Move(x, y), not Win(y).
            Aux(x) :- Move(x, y).
            """
        ).with_output(["Win"])
        assert WellFoundedQuery(program)(GAME) == Instance([Fact("Win", (2,))])

    def test_program_queries_project_once(self, monkeypatch, tc_program):
        """Input restriction + one output projection at most — never the
        output projected a second time by ``Query.__call__``.  A Datalog
        query restricts its input only: the stratified evaluator decodes
        the output relations and nothing else, so there is no output
        projection left to make."""
        calls = []
        original = Instance.restrict

        def counting(self, schema):
            calls.append(len(self))
            return original(self, schema)

        monkeypatch.setattr(Instance, "restrict", counting)
        DatalogQuery(tc_program)(Instance(parse_facts("E(1,2). E(2,3).")))
        assert calls == [2]  # the input, two facts
        del calls[:]
        WellFoundedQuery(winmove_program())(GAME)
        assert len(calls) <= 2

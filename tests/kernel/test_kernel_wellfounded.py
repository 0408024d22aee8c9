"""The well-founded evaluator on the kernel: the two engines by name, the
twin relation guard, evaluator reuse, what gets decoded, which input facts
take part, and what continuing each Γ from the last one costs.

The naive Γ (:func:`repro.reference.naive_well_founded`) is the oracle
throughout;
``tests/properties/test_property_wellfounded.py`` holds the
generated-program equivalence.
"""

import pytest

from repro.cluster import scaling_workload
from repro.datalog import (
    Fact,
    Instance,
    evaluate_doubled,
    evaluate_well_founded,
    parse_facts,
    parse_program,
    winmove_program,
)
from repro.datalog import wellfounded
from repro.datalog.games import solve_game
from repro.datalog.stratified import StratifiedEvaluator
from repro.datalog.wellfounded import WellFoundedEvaluator
from repro.kernel import engine as kernel_engine
from repro.kernel import wellfounded as kernel_wellfounded
from repro.kernel.wellfounded import ASSUMED_SUFFIX, FrozenNegationKernel
from repro.queries import DatalogQuery, WellFoundedQuery, win_move_query
from repro.queries.generators import random_game_graph
from repro.reference import naive_well_founded
from repro.reference import wellfounded as reference_wellfounded


def naive_doubled(program, instance, *, max_rounds=10_000):
    """The doubled-program iteration over the naive Γ session."""
    return wellfounded._model(
        reference_wellfounded._NaiveSession(program, instance),
        wellfounded._doubled_iteration,
        max_rounds,
    )


GAME = Instance(parse_facts("Move(1,2). Move(2,3). Move(4,5). Move(5,4). Move(1,4)."))


class TestDispatch:
    def test_default_path_is_the_kernel_and_never_touches_match_rule(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("naive Γ ran on the default path")

        monkeypatch.setattr(reference_wellfounded, "match_rule", forbidden)
        evaluator = WellFoundedEvaluator(winmove_program())
        model = evaluator.model(GAME)
        # One rule: its semi-naive specialization, its negated-twin seed and
        # its head-bound probe.
        assert evaluator.kernel_compiled == 3
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
        assert shared.kernel_compiled == 3  # compiled once, three specializations

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


class TestInputOutsideTheSchema:
    """Only facts over sch(P) at the schema's arity take part, as in
    ``StratifiedEvaluator``; ``model().true`` still keeps the whole input."""

    PROGRAM = "T(x) :- E(x)."
    FACTS = "E(1). T(7). T(3,4)."

    @pytest.mark.parametrize(
        "surface", ["kernel output", "kernel model", "naive", "doubled"]
    )
    def test_a_fact_of_another_arity_is_not_output(self, surface):
        program = parse_program(self.PROGRAM)
        instance = Instance(parse_facts(self.FACTS))
        output = Instance([Fact("T", (1,)), Fact("T", (7,))])
        if surface == "kernel output":
            result = WellFoundedEvaluator(program).output(instance)
            assert result == StratifiedEvaluator(program).output(instance) == output
            return
        evaluate = {
            "kernel model": evaluate_well_founded,
            "naive": naive_well_founded,
            "doubled": evaluate_doubled,
        }[surface]
        model = evaluate(program, instance)
        assert model.true == StratifiedEvaluator(program).run(instance)
        assert model.true == instance | output  # T(3, 4) stays: it is input
        assert not model.undefined


#: Win(3) becomes true (3 -> 4 is a dead end), which over-deletes Win(1)
#: through the move 1 -> 3; the move 1 -> 2 rederives it.  Without the
#: rederive step Win(1) leaves the over half for good, and 0, whose only
#: move is to the winning 1, is taken for a winner.
REDERIVE_WITNESS = Instance(parse_facts("Move(0,1). Move(1,2). Move(1,3). Move(3,4)."))


#: One small input per step of delete-and-rederive that a wrong step would
#: make give a wrong model.
DRED_WITNESSES = {
    # The REDERIVE_WITNESS step: Win(1) loses one derivation, keeps another.
    "rederive": (
        "Win(x) :- Move(x, y), not Win(y).",
        "Move(0,1). Move(1,2). Move(1,3). Move(3,4).",
    ),
    # Win(3) true takes away the only derivation of the input fact Win(2),
    # which must stay: idb facts of the input are never deleted.
    "base fact": (
        "Win(x) :- Move(x, y), not Win(y).",
        "Move(2,3). Move(3,4). Win(2). Move(1,2).",
    ),
    # P(0) leaves the over half, so R(3, 0) must follow it: the deletion
    # spreads through a positive body.
    "positive body": (
        "P(x) :- E(x, y), not P(y). R(x, y) :- E(x, y), P(y).",
        "E(0,1). E(1,2). E(3,0).",
    ),
    # Both negations of Q(0)'s derivation turn false in one Γ (y = z = 1):
    # the over-deletion must read the twin before it takes P(1).
    "two negations": (
        "P(x) :- E(x, y), not P(y). Q(x) :- E(x, y), E(x, z), not P(y), not P(z).",
        "E(0,1). E(1,2).",
    ),
}


def count_gammas(session, iterate=wellfounded._alternating_fixpoint):
    calls = 0
    gamma = session.gamma

    def counting(assumed):
        nonlocal calls
        calls += 1
        return gamma(assumed)

    session.gamma = counting
    result = iterate(session, 10_000)
    return calls, result


class TestContinuation:
    """Each Γ continues the previous Γ of its half: same approximations,
    same number of Γs, but a Γ costs what changed."""

    def test_seed_rows_fed_stay_within_four_times_the_input(self):
        """A deterministic cost bound instead of a timing.  Every compiled
        fire function counts the seed rows it is fed over one central
        evaluation of ``scaling-wm-c24-s480``.  A Γ that started from the
        input would feed it whole, ≈ Γs × |I| over the evaluation."""
        instance = scaling_workload(components=24, size=480).instance
        kernel = FrozenNegationKernel(winmove_program())
        fed = 0

        def counting(fire):
            def counted(db, seed, append):
                nonlocal fed
                fed += len(seed)
                return fire(db, seed, append)

            return counted

        evaluator = kernel.evaluator
        for compiled in (
            *evaluator._ground,
            *evaluator._seeded,
            *kernel.negated,
            *kernel.probes,
        ):
            compiled.fire = counting(compiled.fire)
        session = kernel.session(instance)
        gammas, (under, over) = count_gammas(session)
        assert gammas > 400
        assert fed <= 4 * len(instance)
        solution = solve_game(instance)
        won = session.true(under, frozenset({"Win"}))
        assert {fact.values[0] for fact in won} == solution.won
        drawn = session.undefined(under, over)
        assert {fact.values[0] for fact in drawn} == solution.drawn

    @pytest.mark.parametrize(
        "iterate",
        [wellfounded._alternating_fixpoint, wellfounded._doubled_iteration],
        ids=["alternating", "doubled"],
    )
    def test_as_many_gammas_as_the_naive_session(self, iterate):
        program = winmove_program()
        instance = scaling_workload(components=3, size=30).instance
        kernel_gammas, (under, over) = count_gammas(
            WellFoundedEvaluator(program).session(instance), iterate
        )
        naive_gammas, _ = count_gammas(
            reference_wellfounded._NaiveSession(program, instance), iterate
        )
        assert kernel_gammas == naive_gammas > 20

    def test_a_rederive_step_patched_out_gives_a_wrong_model(self, monkeypatch):
        program = winmove_program()
        expected = naive_well_founded(program, REDERIVE_WITNESS)
        assert evaluate_well_founded(program, REDERIVE_WITNESS) == expected
        monkeypatch.setattr(
            kernel_wellfounded.GammaSession, "_rederive", lambda self, deleted: {}
        )
        wrong = evaluate_well_founded(program, REDERIVE_WITNESS)
        assert Fact("Win", (0,)) in wrong.true
        assert wrong != expected

    @pytest.mark.parametrize("name", sorted(DRED_WITNESSES))
    def test_dred_witnesses_match_the_naive_session(self, name):
        program, facts = DRED_WITNESSES[name]
        program, instance = parse_program(program), Instance(parse_facts(facts))
        assert evaluate_well_founded(program, instance) == naive_well_founded(
            program, instance
        )
        assert evaluate_doubled(program, instance) == naive_well_founded(
            program, instance
        )

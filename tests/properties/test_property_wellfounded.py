"""Property tests: the kernel's alternating fixpoint equals the naive one.

Programs are drawn rule by rule over a small fixed vocabulary so that every
structural case the codegen specializes turns up under negation through
recursion: ground rules, constants in head/positive/negated atoms, negated
*edb* atoms, nullary relations on either side, repeated variables,
inequalities, idb facts already present in the input, empty inputs.  Games
(the win-move program on random graphs, cycles and self-loops included)
get their own strategy because draws need cycles to be likely.

The kernel continues each Γ from the previous Γ of its half (new under
rows semi-naively, over rows removed by delete-and-rederive), while the
naive session starts every Γ from the input; so besides equal models both
must take equally many Γs.  A random program rarely makes the over half
delete anything, so one strategy adds a win-move core rule over ``E``,
and rules that make each DRed step matter, to the drawn rules: their
alternation deletes and rederives over rows on most inputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Fact,
    Instance,
    evaluate_doubled,
    parse_rules,
    winmove_program,
)
from repro.datalog import wellfounded
from repro.datalog.games import solve_game
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Atom, Inequality, Variable
from repro.datalog.wellfounded import WellFoundedEvaluator
from repro.kernel import wellfounded as kernel_wellfounded
from repro.reference import naive_well_founded
from repro.reference.wellfounded import _NaiveSession

EDB = {"E": 2, "V": 1, "Flag": 0}
IDB = {"P": 1, "Q": 1, "R": 2, "Z": 0}
ARITY = {**EDB, **IDB}
VARIABLES = [Variable(name) for name in "xyz"]
constants = st.integers(min_value=0, max_value=3)


def atoms(relations, terms):
    return st.sampled_from(sorted(relations)).flatmap(
        lambda name: st.tuples(*[terms] * ARITY[name]).map(
            lambda values: Atom(name, values)
        )
    )


@st.composite
def rules(draw):
    any_term = st.one_of(st.sampled_from(VARIABLES), constants)
    pos = draw(st.lists(atoms(ARITY, any_term), max_size=3))
    bound = sorted({v for atom in pos for v in atom.variables()}, key=repr)
    # Safety: everything outside the positive body reuses its variables.
    safe_term = st.one_of(st.sampled_from(bound), constants) if bound else constants
    head = draw(atoms(IDB, safe_term))
    neg = draw(st.lists(atoms(ARITY, safe_term), max_size=2))
    ineq = []
    if len(bound) >= 2 and draw(st.booleans()):
        ineq.append(Inequality(bound[0], bound[1]))
    return Rule(head, pos, neg, ineq)


programs = st.lists(rules(), min_size=1, max_size=5).map(Program)

# A win-move core over E, some of the rules that make DRed's steps matter
# (two negations of one twin; an over-deletion spreading through a
# positive body, and on through recursion), and some drawn rules.
WIN_MOVE_CORE = parse_rules("P(x) :- E(x, y), not P(y).")
DRED_RULES = parse_rules(
    """
    Q(x) :- E(x, y), E(x, z), not P(y), not P(z).
    R(x, y) :- E(x, y), P(y).
    R(x, z) :- R(x, y), R(y, z).
    Q(x) :- R(x, y), not Q(y).
    """
)
alternating_programs = st.tuples(
    st.lists(st.sampled_from(DRED_RULES), unique=True),
    st.lists(rules(), max_size=3),
).map(lambda drawn: Program([*WIN_MOVE_CORE, *drawn[0], *drawn[1]]))


def facts(relations):
    return st.sampled_from(sorted(relations)).flatmap(
        lambda name: st.tuples(*[st.integers(0, 4)] * ARITY[name]).map(
            lambda values: Fact(name, values)
        )
    )


# Mostly edb facts, now and then an idb fact the input already asserts.
instances = st.frozensets(
    st.one_of(facts(EDB), facts(EDB), facts(ARITY)), max_size=12
).map(Instance)

positions = st.integers(min_value=0, max_value=6)
# A game over E (the moves of the win-move core) plus a few other facts.
game_instances = st.tuples(
    st.frozensets(
        st.builds(Fact, relation=st.just("E"), values=st.tuples(positions, positions)),
        max_size=14,
    ),
    st.frozensets(st.one_of(facts(EDB), facts(ARITY)), max_size=4),
).map(lambda parts: Instance(parts[0] | parts[1]))

games = st.frozensets(
    st.builds(Fact, relation=st.just("Move"), values=st.tuples(positions, positions)),
    max_size=14,
).map(Instance)


def gammas(session, iterate):
    """The number of Γs *iterate* takes on *session*."""
    calls = 0
    gamma = session.gamma

    def counting(assumed):
        nonlocal calls
        calls += 1
        return gamma(assumed)

    session.gamma = counting
    iterate(session, 10_000)
    return calls


def assert_backends_agree(program, instance):
    evaluator = WellFoundedEvaluator(program)
    on = evaluator.model(instance)
    on_doubled = evaluate_doubled(program, instance)
    output = evaluator.output(instance)
    assert evaluator.kernel_compiled > 0
    off = naive_well_founded(program, instance)
    off_doubled = wellfounded._model(
        _NaiveSession(program, instance),
        wellfounded._doubled_iteration,
        10_000,
    )
    assert on.true == off.true
    assert on.undefined == off.undefined
    assert on_doubled == on
    assert off_doubled == off
    assert output == on.true.restrict(program.output_schema())
    for iterate in (wellfounded._alternating_fixpoint, wellfounded._doubled_iteration):
        assert gammas(evaluator.session(instance), iterate) == gammas(
            _NaiveSession(program, instance), iterate
        )
    return on


@given(programs, instances)
@settings(max_examples=150)
def test_kernel_matches_naive_on_generated_programs(program, instance):
    model = assert_backends_agree(program, instance)
    assert instance <= model.true
    assert not (model.true & model.undefined)


@given(alternating_programs, game_instances)
@settings(max_examples=150)
def test_kernel_matches_naive_on_programs_that_delete_and_rederive(program, instance):
    assert_backends_agree(program, instance)


@given(games)
# One failure is reported as the AssertionError the planted-bug check below
# expects, even when a run finds several distinct ones.
@settings(max_examples=80, report_multiple_bugs=False)
def test_kernel_matches_naive_on_games(game):
    model = assert_backends_agree(winmove_program(), game)
    solution = solve_game(game)
    assert {f.values[0] for f in model.true if f.relation == "Win"} == solution.won
    assert {f.values[0] for f in model.undefined} == solution.drawn


def test_games_catch_a_rederive_step_patched_out(monkeypatch):
    """The planted-bug self-check: without DRed's rederive step an over
    row that lost one derivation but kept another is gone for good, and
    the game property must notice."""
    monkeypatch.setattr(
        kernel_wellfounded.GammaSession, "_rederive", lambda self, deleted: {}
    )
    with pytest.raises(AssertionError):
        test_kernel_matches_naive_on_games()

"""Property tests: the kernel's alternating fixpoint equals the naive one.

Programs are drawn rule by rule over a small fixed vocabulary so that every
structural case the codegen specializes turns up under negation through
recursion: ground rules, constants in head/positive/negated atoms, negated
*edb* atoms, nullary relations on either side, repeated variables,
inequalities, idb facts already present in the input, empty inputs.  Games
(the win-move program on random graphs, cycles and self-loops included)
get their own strategy because draws need cycles to be likely.
"""

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Fact,
    Instance,
    evaluate_doubled,
    naive_well_founded,
    winmove_program,
)
from repro.datalog import wellfounded
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Atom, Inequality, Variable
from repro.datalog.wellfounded import WellFoundedEvaluator

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
games = st.frozensets(
    st.builds(Fact, relation=st.just("Move"), values=st.tuples(positions, positions)),
    max_size=14,
).map(Instance)


def assert_backends_agree(program, instance):
    evaluator = WellFoundedEvaluator(program)
    on = evaluator.model(instance)
    on_doubled = evaluate_doubled(program, instance)
    output = evaluator.output(instance)
    assert evaluator.kernel_compiled > 0
    off = naive_well_founded(program, instance)
    off_doubled = wellfounded._model(
        wellfounded._NaiveSession(program, instance),
        wellfounded._doubled_iteration,
        10_000,
    )
    assert on.true == off.true
    assert on.undefined == off.undefined
    assert on_doubled == on
    assert off_doubled == off
    assert output == on.true.restrict(program.output_schema())
    return on


@given(programs, instances)
@settings(max_examples=150)
def test_kernel_matches_naive_on_generated_programs(program, instance):
    model = assert_backends_agree(program, instance)
    assert instance <= model.true
    assert not (model.true & model.undefined)


@given(games)
@settings(max_examples=80)
def test_kernel_matches_naive_on_games(game):
    assert_backends_agree(winmove_program(), game)

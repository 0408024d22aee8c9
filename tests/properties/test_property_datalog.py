"""Property-based tests for the Datalog engine's semantic invariants."""

from hypothesis import given, settings, strategies as st

from repro.datalog import (
    Fact,
    Instance,
    StratifiedEvaluator,
    evaluate_stratified,
    evaluate_well_founded,
    parse_program,
    winmove_program,
)
from repro.kernel import KernelEvaluator
from repro.reference import immediate_consequence

values = st.integers(min_value=0, max_value=7)
edges = st.frozensets(
    st.builds(Fact, relation=st.just("E"), values=st.tuples(values, values)),
    max_size=10,
).map(Instance)
games = st.frozensets(
    st.builds(Fact, relation=st.just("Move"), values=st.tuples(values, values)),
    max_size=10,
).map(Instance)

TC = parse_program(
    "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).", output_relations=["T"]
)
TC_KERNEL = KernelEvaluator(TC)


class TestFixpointInvariants:
    @given(edges)
    def test_fixpoint_contains_input(self, instance):
        assert instance <= TC_KERNEL.run(instance)

    @given(edges)
    def test_fixpoint_is_fixed(self, instance):
        result = TC_KERNEL.run(instance)
        assert immediate_consequence(TC, result) == result

    @given(edges, edges)
    def test_positive_program_monotone(self, small, extra):
        a = TC_KERNEL.run(small)
        b = TC_KERNEL.run(small | extra)
        assert a <= b

    @given(edges)
    @settings(max_examples=40)
    def test_genericity_of_evaluation(self, instance):
        mapping = {v: f"v{v}" for v in instance.adom()}
        direct = TC_KERNEL.run(instance).rename(mapping)
        permuted = TC_KERNEL.run(instance.rename(mapping))
        assert direct == permuted

    @given(edges)
    def test_tc_is_transitive(self, instance):
        result = TC_KERNEL.run(instance)
        closure = {f.values for f in result if f.relation == "T"}
        for a, b in closure:
            for c, d in closure:
                if b == c:
                    assert (a, d) in closure


COTC = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- T(x, y), E(y, z).
    O(x, y) :- Adom(x), Adom(y), not T(x, y).
    """
)


class TestStratifiedInvariants:
    @given(edges)
    def test_output_partitions_pairs(self, instance):
        result = evaluate_stratified(COTC, instance)
        closure = {f.values for f in result if f.relation == "T"}
        complement = {f.values for f in result if f.relation == "O"}
        domain = instance.adom()
        assert closure | complement == {(a, b) for a in domain for b in domain}
        assert not (closure & complement)

    @given(edges)
    @settings(max_examples=40)
    def test_evaluator_reuse_consistent(self, instance):
        evaluator = StratifiedEvaluator(COTC)
        assert evaluator.run(instance) == evaluate_stratified(COTC, instance)

    @given(edges)
    @settings(max_examples=40)
    def test_wfs_agrees_on_stratified(self, instance):
        model = evaluate_well_founded(COTC, instance)
        assert model.total()
        assert model.true == evaluate_stratified(COTC, instance)


class TestWellFoundedInvariants:
    @given(games)
    @settings(max_examples=60)
    def test_winmove_three_valued_consistency(self, game):
        """Won positions have a move to a lost one; lost positions have all
        moves to won ones; drawn positions can reach drawn, never lost."""
        model = evaluate_well_founded(winmove_program(), game)
        won = {f.values[0] for f in model.true if f.relation == "Win"}
        possible = {f.values[0] for f in model.possible() if f.relation == "Win"}
        drawn = possible - won
        moves = {}
        for fact in game:
            moves.setdefault(fact.values[0], set()).add(fact.values[1])
        positions = set(game.adom())
        lost = positions - possible
        for position in positions:
            succ = moves.get(position, set())
            if position in won:
                assert succ & lost
            elif position in lost:
                assert succ <= won
            else:
                assert position in drawn
                assert not (succ & lost)
                assert succ & drawn

    @given(games)
    @settings(max_examples=40)
    def test_doubled_program_agrees(self, game):
        from repro.datalog import evaluate_doubled

        direct = evaluate_well_founded(winmove_program(), game)
        doubled = evaluate_doubled(winmove_program(), game)
        assert direct.true == doubled.true
        assert direct.undefined == doubled.undefined

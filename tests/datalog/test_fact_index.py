"""FactIndex lazy-column regression + property tests (PR 6 satellite).

Before this PR, ``FactIndex.add`` eagerly posted every fact under every
``(relation, position, value)`` triple, so even indexes that are only
ever scanned — above all the per-iteration semi-naive *delta* indexes —
paid full inverted-index maintenance.  Now columns build lazily on the
first :meth:`lookup` that probes them and are maintained incrementally
afterwards.  The property test proves `lookup`/`scan`/`contains` agree
with a plain set-of-facts oracle under arbitrary interleavings of adds
and probes.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.reference import FactIndex
from repro.datalog.terms import Fact

values = st.integers(min_value=0, max_value=4)
facts = st.one_of(
    st.builds(Fact, relation=st.just("E"), values=st.tuples(values, values)),
    st.builds(Fact, relation=st.just("V"), values=st.tuples(values)),
    st.builds(Fact, relation=st.just("N"), values=st.just(())),
)


class TestLaziness:
    def test_no_columns_until_probed(self):
        index = FactIndex([Fact("E", (1, 2)), Fact("E", (2, 3))])
        assert index.indexed_columns("E") == ()
        index.lookup("E", 1, 3)
        assert index.indexed_columns("E") == (1,)
        assert index.indexed_columns("V") == ()

    def test_built_columns_track_later_adds(self):
        index = FactIndex([Fact("E", (1, 2))])
        assert set(index.lookup("E", 0, 1)) == {(1, 2)}
        index.add(Fact("E", (1, 5)))
        assert set(index.lookup("E", 0, 1)) == {(1, 2), (1, 5)}
        # Only the probed column exists; the other stays unbuilt.
        assert index.indexed_columns("E") == (0,)

    def test_lookup_past_arity_is_empty(self):
        index = FactIndex([Fact("V", (1,))])
        assert set(index.lookup("V", 3, 1)) == set()
        index.add(Fact("V", (2,)))
        assert set(index.lookup("V", 3, 2)) == set()


class TestOracleParity:
    @given(
        st.lists(facts, max_size=25),
        st.lists(facts, max_size=10),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_set_of_facts_oracle(self, initial, later, seed):
        """Random interleaving of probes and adds vs a plain set oracle."""
        rng = random.Random(seed)
        index = FactIndex(initial)
        oracle: set[Fact] = set(initial)

        def check_probes():
            for relation in ("E", "V", "N"):
                expected_bucket = {
                    f.values for f in oracle if f.relation == relation
                }
                assert set(index.scan(relation)) == expected_bucket
                assert index.count(relation) == len(expected_bucket)
                position = rng.randrange(3)
                value = rng.randrange(5)
                assert set(index.lookup(relation, position, value)) == {
                    t
                    for t in expected_bucket
                    if position < len(t) and t[position] == value
                }
                for t in expected_bucket:
                    assert index.contains(relation, t)

        check_probes()
        for fact in later:
            was_new = fact not in oracle
            assert index.add(fact) == was_new
            oracle.add(fact)
            check_probes()
        assert len(index) == len(oracle)
        assert index.to_instance() == oracle

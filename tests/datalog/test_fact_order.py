"""The fact order, stated once: ``sort_facts`` sorts by the precomputed
``fact_order`` key and must return exactly the list ``sorted()`` returns
through ``Fact.__lt__`` — same facts, same objects, same positions — over
every kind of value a fact can hold."""

from hypothesis import given, strategies as st

from repro.datalog import Instance
from repro.datalog.terms import Fact, fact_order, sort_facts

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -0.0]),
    st.text(max_size=3),
    st.binary(max_size=3),
)
values = st.recursive(
    scalars, lambda children: st.lists(children, max_size=3).map(tuple), max_leaves=6
)
# Few relation names and short arities, so equal relations with mixed
# arities and equal-but-differently-typed values (1, True, 1.0) collide.
facts = st.builds(
    Fact,
    relation=st.sampled_from(["R", "S", "Rb"]),
    values=st.lists(values, max_size=3).map(tuple),
)


def identities(items):
    return [id(item) for item in items]


@given(st.lists(facts, max_size=30))
def test_sort_facts_is_sorted(items):
    # Duplicated objects check stability too: equal keys keep input order.
    items = items + items[::3]
    assert identities(sort_facts(items)) == identities(sorted(items))


@given(facts, facts)
def test_lt_is_the_key_order(a, b):
    assert (a < b) == (fact_order(a) < fact_order(b))


def test_equal_facts_with_different_types_keep_a_fixed_order():
    one, true, float_one = Fact("R", (1,)), Fact("R", (True,)), Fact("R", (1.0,))
    assert one == true == float_one
    # bool < float < int by type name, whatever the input order.
    for items in ([one, true, float_one], [float_one, one, true]):
        assert identities(sort_facts(items)) == identities([true, float_one, one])


def test_instance_sorted_facts_uses_the_order():
    instance = Instance([Fact("S", ("b",)), Fact("R", (2, 1)), Fact("R", (10,))])
    assert instance.sorted_facts() == sorted(instance.facts)

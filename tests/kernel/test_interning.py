"""Property tests for the kernel's constant interning (PR 6).

The contract `intern -> evaluate -> decode == evaluate on raw values`
only holds if the symbol table round-trips every constant *exactly* —
unicode strings, nested tuples, the empty tuple, None — so these
properties hammer the table with the gnarliest hashables the fuzzer's
instance generators can produce, plus full-pipeline equivalence runs
against the legacy tuple engine.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog import Fact, Instance
from repro.datalog.terms import Atom, Variable
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.kernel.engine import KernelEvaluator
from repro.kernel.interning import SymbolTable, decode_database, intern_instance
from repro.reference import naive_fixpoint

# Values whose equality classes are singletons up to identical repr —
# ints never equal strings, tuples compare structurally — so "decode
# returns the exact original" is well-defined for every draw.
atoms_values = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.text(max_size=8),  # includes "" and non-ASCII unicode
    st.just(()),
    st.just(None),
)
constants = st.recursive(
    atoms_values,
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)
value_tuples = st.lists(constants, max_size=4).map(tuple)


class TestSymbolTableRoundTrip:
    @given(st.lists(value_tuples, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_intern_decode_is_exact(self, rows):
        table = SymbolTable()
        interned = [table.intern_tuple(row) for row in rows]
        for row, ids in zip(rows, interned):
            assert table.decode_tuple(ids) == row
        # Ids are dense and bijective with the distinct values seen.
        assert len(table) == len({v for row in rows for v in row})
        for ident in range(len(table)):
            assert table.intern(table.decode(ident)) == ident

    @given(st.lists(constants, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_ids_are_stable_across_reinterning(self, values):
        table = SymbolTable()
        first = [table.intern(v) for v in values]
        second = [table.intern(v) for v in values]
        assert first == second

    @given(st.lists(value_tuples, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_instance_round_trip(self, rows):
        instance = Instance(Fact("R", row) for row in rows)
        table = SymbolTable()
        relations = intern_instance(instance, table)
        decoded = decode_database(
            {name: set(rows) for name, rows in relations.items()}, table
        )
        assert decoded == instance

    def test_decoded_facts_are_indistinguishable_and_frozen(self):
        """decode_database skips Fact.__init__; what it builds must not show it."""
        checked = [Fact("E", (1, 2)), Fact("R", ("a", (1, None))), Fact("Z", ())]
        table = SymbolTable()
        relations = intern_instance(checked, table)
        decoded = {fact: fact for fact in decode_database(relations, table)}
        for fact in checked:
            built = decoded[fact]
            assert built == fact and fact == built
            assert hash(built) == hash(fact)
            assert repr(built) == repr(fact)
            assert type(built) is Fact
            with pytest.raises(dataclasses.FrozenInstanceError):
                built.relation = "X"
            with pytest.raises(dataclasses.FrozenInstanceError):
                built.values = ()


X, Y, Z = Variable("x"), Variable("y"), Variable("z")
TC = Program(
    [
        Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
        Rule(Atom("T", (X, Z)), [Atom("T", (X, Y)), Atom("E", (Y, Z))]),
    ]
)
edges = st.frozensets(
    st.tuples(constants, constants).map(lambda pair: Fact("E", pair)),
    max_size=10,
).map(Instance)


class TestPipelineOverGnarlyConstants:
    @given(edges)
    @settings(max_examples=40, deadline=None)
    def test_kernel_equals_legacy_on_unicode_and_nested_constants(self, instance):
        """intern -> evaluate -> decode == evaluate on raw values."""
        legacy = naive_fixpoint(TC, instance)  # evaluates on raw values
        kernel = KernelEvaluator(TC, check_semipositive=False).run(instance)
        assert kernel == legacy
        # Byte-identical, not just set-equal: identical sorted reprs.
        assert sorted(map(repr, kernel)) == sorted(map(repr, legacy))

"""Unit tests for the program zoo: every entry parses and self-describes."""

import pytest

from repro.core import analyze, classify_fragment
from repro.datalog import Instance, parse_facts
from repro.queries import DatalogQuery, PROGRAM_ZOO, ZooEntry, zoo_entries, zoo_program

#: Placements asserted beside the zoo's own: the collector of
#: ``examples/distributed_gc.py`` (the zoo is the gates' workload, so it
#: stays as it is).
PLACED = (
    ZooEntry(
        name="gc",
        source="""
            Reachable(x) :- Root(x).
            Reachable(y) :- Reachable(x), Ref(x, y).
            O(x) :- Obj(x), not Reachable(x).
        """,
        fragment="con-datalog",
        monotonicity="Mdisjoint",
        description="Collectible heap objects: not reachable from a root.",
    ),
)


class TestZooIntegrity:
    def test_all_entries_parse(self):
        for entry in PROGRAM_ZOO:
            program = entry.program()
            assert len(program) >= 1

    def test_names_unique(self):
        names = [entry.name for entry in PROGRAM_ZOO]
        assert len(names) == len(set(names))

    def test_lookup_by_name(self):
        program = zoo_program("tc")
        assert "T" in program.idb()

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            zoo_program("nope")

    def test_zoo_entries_returns_all(self):
        assert len(zoo_entries()) == len(PROGRAM_ZOO)

    def test_declared_fragments_match_analyzer(self):
        for entry in PROGRAM_ZOO + PLACED:
            assert classify_fragment(entry.program()) == entry.fragment, entry.name
            analysis = analyze(entry.program())
            assert analysis.fragment == entry.fragment, entry.name
            expected = None if entry.monotonicity == "none" else entry.monotonicity
            assert analysis.monotonicity == expected, entry.name


class TestZooSemantics:
    def test_tc(self):
        result = DatalogQuery(zoo_program("tc"))(Instance(parse_facts("E(1,2). E(2,3).")))
        assert {f.values for f in result} == {(1, 2), (2, 3), (1, 3)}

    def test_neq_pairs_drops_loops(self):
        result = DatalogQuery(zoo_program("neq-pairs"))(
            Instance(parse_facts("E(1,1). E(1,2)."))
        )
        assert {f.values for f in result} == {(1, 2)}

    def test_non_loop_sources(self):
        result = DatalogQuery(zoo_program("non-loop-sources"))(
            Instance(parse_facts("E(1,1). E(1,2). E(2,3)."))
        )
        assert {f.values for f in result} == {(2, 3)}

    def test_isolated_vertices(self):
        result = DatalogQuery(zoo_program("isolated-vertices"))(
            Instance(parse_facts("V(1). V(2). E(1,9)."))
        )
        assert {f.values for f in result} == {(2,)}

    def test_example51_p2_two_disjoint_triangles(self):
        query = DatalogQuery(zoo_program("example51-p2"))
        one = Instance(parse_facts("E(1,2). E(2,3). E(3,1)."))
        # With a single triangle no vertex sees two disjoint triangles:
        assert len(query(one)) == 3
        two = one | Instance(parse_facts("E(7,8). E(8,9). E(9,7)."))
        assert query(two) == Instance()

    def test_disconnected_product(self):
        result = DatalogQuery(zoo_program("disconnected-product"))(
            Instance(parse_facts("S(1). T(2)."))
        )
        assert {f.values for f in result} == {(1, 2)}

"""Tests for counterexample minimization."""

import pytest

from repro.datalog import Instance, parse_facts
from repro.monotonicity import AdditionKind, violation_on
from repro.queries import clique_query, complement_tc_query

from minimize import is_locally_minimal, minimize_violation


def graph(text):
    return Instance(parse_facts(text))


class TestMinimize:
    def test_strips_padding_from_both_sides(self):
        query = complement_tc_query()
        base = graph("E(1,1). E(2,2). E(9,8). E(8,7).")  # 9,8,7 are noise
        addition = graph("E(1,5). E(5,2). E(6,6).")  # E(6,6) is noise
        violation = violation_on(query, base, addition)
        assert violation is not None
        minimal = minimize_violation(
            query, violation, kind=AdditionKind.DOMAIN_DISTINCT
        )
        assert len(minimal.addition) == 2  # the two path edges
        assert len(minimal.base) < len(base)
        assert is_locally_minimal(query, minimal)

    def test_preserves_kind(self):
        query = complement_tc_query()
        base = graph("E(1,1). E(2,2).")
        addition = graph("E(1,9). E(9,2).")
        violation = violation_on(query, base, addition)
        minimal = minimize_violation(
            query, violation, kind=AdditionKind.DOMAIN_DISTINCT
        )
        assert minimal.addition.is_domain_distinct_from(minimal.base)

    def test_rejects_wrong_kind(self):
        query = complement_tc_query()
        base = graph("E(1,1). E(2,2).")
        addition = graph("E(1,9). E(9,2).")  # distinct, NOT disjoint
        violation = violation_on(query, base, addition)
        with pytest.raises(ValueError):
            minimize_violation(query, violation, kind=AdditionKind.DOMAIN_DISJOINT)

    def test_already_minimal_untouched(self):
        query = clique_query(2)
        base = graph("E(1,1).")
        addition = graph("E(1,2).")
        violation = violation_on(query, base, addition)
        minimal = minimize_violation(query, violation)
        assert minimal.base == base
        assert minimal.addition == addition

    def test_random_violations_shrink_to_paper_sizes(self):
        """Minimized clique[3] violations need exactly the 2-fact star the
        Theorem 3.1(3) witness uses (with a nonempty base)."""
        from repro.monotonicity.checker import exhaustive_graph_pairs

        query = clique_query(3)
        shrunk_sizes = set()
        for base, addition in exhaustive_graph_pairs(
            max_base_nodes=3,
            max_base_edges=2,
            kind=AdditionKind.DOMAIN_DISTINCT,
            max_addition_size=2,
        ):
            violation = violation_on(query, base, addition)
            if violation is None:
                continue
            minimal = minimize_violation(
                query, violation, kind=AdditionKind.DOMAIN_DISTINCT
            )
            shrunk_sizes.add(len(minimal.addition))
            if len(shrunk_sizes) > 1:
                break
        assert shrunk_sizes == {2}


class TestLocalMinimality:
    def test_detects_padding(self):
        query = complement_tc_query()
        base = graph("E(1,1). E(2,2). E(7,7).")
        addition = graph("E(1,9). E(9,2).")
        violation = violation_on(query, base, addition)
        assert not is_locally_minimal(query, violation)

    def test_accepts_minimal(self):
        query = complement_tc_query()
        base = graph("E(1,1). E(2,2).")
        addition = graph("E(1,9). E(9,2).")
        violation = violation_on(query, base, addition)
        minimal = minimize_violation(query, violation)
        assert is_locally_minimal(query, minimal)

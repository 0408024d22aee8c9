"""Unit tests for the Datalog¬ parser."""

import sys

import pytest

from repro.datalog import (
    Fact,
    ParseError,
    Variable,
    parse_facts,
    parse_program,
    parse_rule,
    parse_rules,
)


class TestRuleParsing:
    def test_simple_rule(self):
        rule = parse_rule("T(x, y) :- E(x, y).")
        assert rule.head.relation == "T"
        assert {a.relation for a in rule.pos} == {"E"}
        assert not rule.neg

    def test_negation_keyword_variants(self):
        for text in (
            "T(x) :- R(x), not S(x).",
            "T(x) :- R(x), ¬S(x).",
            "T(x) :- R(x), !S(x).",
        ):
            rule = parse_rule(text)
            assert {a.relation for a in rule.neg} == {"S"}

    def test_arrow_variants(self):
        assert parse_rule("T(x) <- R(x).") == parse_rule("T(x) :- R(x).")
        assert parse_rule("T(x) ← R(x).") == parse_rule("T(x) :- R(x).")

    def test_inequality_variants(self):
        for op in ("!=", "≠", "<>"):
            rule = parse_rule(f"T(x) :- R(x, y), x {op} y.")
            assert len(rule.ineq) == 1

    def test_integer_and_string_constants(self):
        rule = parse_rule("T(x) :- R(x, 5, \"abc\", 'def').")
        atom = next(iter(rule.pos))
        assert 5 in atom.constants()
        assert "abc" in atom.constants()
        assert "def" in atom.constants()

    def test_bare_identifiers_are_variables(self):
        rule = parse_rule("T(foo) :- R(foo, bar).")
        assert Variable("foo") in rule.head.variables()

    def test_negative_integer_constant(self):
        rule = parse_rule("T(x) :- R(x, -3).")
        assert -3 in next(iter(rule.pos)).constants()

    def test_comments_ignored(self):
        rules = parse_rules(
            """
            % a comment
            T(x) :- R(x).  # trailing comment
            """
        )
        assert len(rules) == 1

    def test_missing_dot_raises(self):
        with pytest.raises(ParseError):
            parse_rule("T(x) :- R(x)")

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_rule("T(x) :- R(x). garbage")

    def test_inequality_on_constant_raises(self):
        with pytest.raises(ParseError):
            parse_rule("T(x) :- R(x, y), x != 5.")

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError, match=r"line 2"):
            parse_rules("T(x) :- R(x).\nT(x) :- @")

    def test_unsafe_rule_rejected_at_parse(self):
        with pytest.raises(Exception, match="unsafe"):
            parse_rule("T(x, y) :- R(x).")


class TestProgramParsing:
    def test_multi_rule_program(self, tc_program):
        assert len(tc_program) == 3
        assert set(tc_program.edb()) == {"E"}
        assert set(tc_program.idb()) == {"T", "O"}

    def test_adom_rules_added_automatically(self, cotc_program):
        adom_rules = cotc_program.rules_for("Adom")
        assert len(adom_rules) == 2  # one per position of E/2
        assert cotc_program.is_idb("Adom")

    def test_adom_rules_suppressed(self):
        program = parse_program(
            "O(x) :- Adom(x).", add_adom_rules=False, extra_edb=None
        )
        assert program.is_edb("Adom")

    def test_output_defaults_to_O(self, tc_program):
        assert tc_program.output_relations == {"O"}

    def test_explicit_output(self):
        program = parse_program("T(x) :- R(x).", output_relations=["T"])
        assert program.output_relations == {"T"}


class TestFactParsing:
    def test_parse_facts(self):
        facts = list(parse_facts("E(1, 2). V('a')."))
        assert facts == [Fact("E", (1, 2)), Fact("V", ("a",))]

    def test_fact_with_variable_rejected(self):
        with pytest.raises(ParseError):
            list(parse_facts("E(x, 2)."))

    def test_fact_with_variable_error_carries_its_position(self):
        with pytest.raises(ParseError, match=r"contains variables \(line 2, column 3\)"):
            list(parse_facts("E(1, 2).\n  E(x, 2)."))


def _too_many_digits() -> str:
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int() converts literals of any length here")
    return "1" * (limit + 1)


class TestHugeIntegerLiteral:
    """``int()`` refuses literals over ``sys.get_int_max_str_digits()``
    digits; the parser reports that as a ParseError at the literal."""

    def test_in_a_fact(self):
        digits = _too_many_digits()
        with pytest.raises(ParseError, match=r"integer literal too long: .*\(line 2, column 3\)"):
            list(parse_facts(f"E(1).\nE({digits})."))

    def test_in_a_rule(self):
        digits = _too_many_digits()
        with pytest.raises(ParseError, match=r"integer literal too long: .*\(line 1, column 14\)"):
            parse_rule(f"T(x) :- R(x, {digits}).")

    def test_the_largest_convertible_literal_is_a_value(self):
        digits = _too_many_digits()[1:]
        assert list(parse_facts(f"E({digits}).")) == [Fact("E", (int(digits),))]

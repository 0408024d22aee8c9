"""The fact scan against the token parser.

``parse_facts`` first reads the whole text with one regex match per fact
and only runs the token parser when that scan rejects the text.  The two
must be indistinguishable: the scan accepts exactly the texts the token
parser accepts, with the same facts in the same order and the same value
types, and a rejected text still yields the token parser's prefix of
facts before its ``ParseError``.
"""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.datalog import ParseError, parse_facts
from repro.datalog import parser as parser_module
from repro.datalog.parser import _Parser, _scan_facts


def token_parser(text):
    """The facts the token parser reads from *text*, yielded one by one as
    ``parse_facts`` did before the scan (raises ParseError)."""
    parser = _Parser(text)
    while not parser.at_end():
        yield parser.parse_fact()


def typed(facts):
    """Facts with each value's type, so ``1`` and ``"1"`` (or ``True``)
    are told apart."""
    return [(f.relation, [(type(v), v) for v in f.values]) for f in facts]


def outcome(facts):
    """What a caller of *facts* sees: the facts yielded and the error."""
    seen = []
    try:
        for fact in facts:
            seen.append(fact)
    except ParseError as error:
        return typed(seen), str(error)
    return typed(seen), None


def check(text):
    scanned = _scan_facts(text)
    try:
        expected = list(token_parser(text))
    except ParseError:
        expected = None
    # (ii) the scan rejects a text <=> the token parser raises on it.
    assert (scanned is None) == (expected is None), (text, scanned, expected)
    # (i) an accepted text gives the token parser's facts, in order and
    # by value type.
    if scanned is not None:
        assert typed(scanned) == typed(expected)
    # Either way parse_facts looks like the token parser to its caller.
    assert outcome(parse_facts(text)) == outcome(token_parser(text))
    return scanned


# Each ingredient comes in a well-formed kind and a kind that breaks the
# text: gaps the tokenizer must not skip (\f, \v, NBSP, a comment that
# swallows the rest of the text), names it reads as NOT or as two tokens,
# terms that are not constants or not one token.
good_gaps = st.lists(
    st.sampled_from(["", " ", "\t", "\n", "\r\n", "  ", "% c\n", "#E(1).\n", "% ' \" (\n"]),
    max_size=3,
).map("".join)
gaps = st.lists(
    st.one_of(good_gaps, st.sampled_from(["%", "#", "\f", "\v", "\xa0"])), max_size=2
).map("".join)
good_names = st.sampled_from(["E", "R2", "x1", "_", "Adom", "not_x", "nothing", "notE"])
names = st.one_of(good_names, st.sampled_from(["not", "é", "1E"]))
string_body = st.text(alphabet="ab ,.()%#\n'\"é\\", max_size=5)
good_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.integers(min_value=10**20, max_value=10**40).map(str),
    st.sampled_from(["0", "-0", "007", "١٢"]),
    string_body.filter(lambda s: '"' not in s).map(lambda s: f'"{s}"'),
    string_body.filter(lambda s: "'" not in s).map(lambda s: f"'{s}'"),
)
values = st.one_of(
    good_values,
    st.sampled_from(["1a", "1.5", "- 1", "1-2", "-", "+1", "x", "*", "1_0", ""]),
    string_body.map(lambda s: f'"{s}'),  # maybe unterminated
)


@st.composite
def fact_texts(draw, gaps=gaps, names=names, values=values, dots=("", "..")):
    name = draw(names)
    arguments = draw(st.lists(st.tuples(gaps, values, gaps), max_size=3))
    inner = ",".join(f"{before}{value}{after}" for before, value, after in arguments)
    return (
        f"{name}{draw(gaps)}({draw(gaps)}{inner}{draw(gaps)}){draw(gaps)}"
        f"{draw(st.sampled_from(['.', '.', '.', *dots]))}"
    )


strays = st.sampled_from([".", "(", ",", ")", "!", "¬", "*", ":-", "é", "\x00"])
texts = st.lists(
    st.one_of(fact_texts(), fact_texts(), fact_texts(), gaps, strays), max_size=6
).map("".join)
good_texts = st.lists(
    st.tuples(good_gaps, fact_texts(good_gaps, good_names, good_values, dots=()), good_gaps)
).map(lambda pieces: "".join(a + fact + b for a, fact, b in pieces))


@given(texts)
def test_scan_equals_token_parser(text):
    check(text)


@given(good_texts)
def test_well_formed_text_is_accepted(text):
    assert check(text) is not None


# One digit over int()'s limit: a ParseError, or a value where int() has
# no limit.
LIMIT = sys.get_int_max_str_digits()
BIG = "1" * ((LIMIT or 4300) + 1)

# (name, text, accepted): every trap the scan has to reproduce.
EDGES = [
    ("empty", "", True),
    ("comment-only", "% nothing here\n# nor here", True),
    ("comment-hides-a-fact", "% E(1).", True),
    ("comment-ends-the-text", "E(1). % done", True),
    ("comment-in-every-gap",
     "% a\nE % b\n( % c\n 1 % d\n , % e\n 'x' % f\n ) % g\n . % h", True),
    ("comment-swallows-the-dot", "E(1) % .", False),
    ("crlf", "E(1,2).\r\nE(2,3).\r\n", True),
    ("tabs-and-newlines", "\tE(\n1\t,\n2\n)\n.\t", True),
    ("form-feed", "E(1)\f.", False),
    ("vertical-tab", "E(1)\v.", False),
    ("nbsp", "E(1)\xa0.", False),
    ("nullary", "E().", True),
    ("nullary-with-gap", "E( % c\n ).", True),
    ("int-is-int", "E(1).", True),
    ("quoted-int-is-str", "E(\"1\"). E('1').", True),
    ("negative-int", "E(-1, -0).", True),
    ("unicode-digits", "E(١٢).", True),
    ("long-int", "E(123456789012345678901234567890).", True),
    ("huge-int", f"E({BIG}).", not LIMIT),
    ("huge-int-after-a-string", f"E('a', {BIG}).", not LIMIT),
    ("relation-named-not", "not(1).", False),
    ("not_x-and-nothing", "not_x(1). nothing(2). notE(3).", True),
    ("int-then-ident", "E(1a).", False),
    ("int-then-int", "E(1-2).", False),
    ("decimal", "E(1.5).", False),
    ("minus-space", "E(- 1).", False),
    ("double-dot", "E(1)..", False),
    ("missing-dot", "E(1) E(2).", False),
    ("variable", "E(x).", False),
    ("star", "E(*).", False),
    ("trailing-comma", "E(1,).", False),
    ("multi-line-string", "E(\"a\nb\", 'c\r\nd').", True),
    ("string-with-comment-chars", "E(\"%#\", '\"', \",\").", True),
    ("no-escapes", "E(\"a\\\"b\").", False),
    ("backslash-string", "E(\"a\\\").", True),
    ("unterminated-string", "E(\"abc).", False),
    ("non-ascii-name", "É(1).", False),
    ("non-ascii-gap", "E(1).é", False),
    ("error-after-a-prefix", "E(1). E(2). E(x).", False),
    ("tokenizer-error-after-a-prefix", "E(1). E(2). @", False),
]


@pytest.mark.parametrize("text, accepted", [e[1:] for e in EDGES], ids=[e[0] for e in EDGES])
def test_edge(text, accepted):
    assert (check(text) is not None) is accepted


def test_value_types():
    assert typed(parse_facts("E(1, '1', \"-2\", -2).")) == typed(
        token_parser("E(1, '1', \"-2\", -2).")
    ) == [("E", [(int, 1), (str, "1"), (str, "-2"), (int, -2)])]


def test_accepted_text_never_reaches_the_token_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the token parser ran on text the scan accepts")

    monkeypatch.setattr(parser_module, "_Parser", refuse)
    for _, text, accepted in EDGES:
        if accepted:
            list(parse_facts(text))


def test_nothing_happens_before_iteration():
    facts = parse_facts("E(1). @")  # a generator: no error until it runs
    with pytest.raises(ParseError, match="unexpected character"):
        next(facts)

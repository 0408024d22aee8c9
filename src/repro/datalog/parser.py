"""A parser for the conventional Datalog¬ rule syntax used in the paper.

Grammar (informal)::

    program  := (rule)*
    rule     := atom ( ":-" | "<-" ) literal ("," literal)* "."
    literal  := atom | ("not" | "¬" | "!") atom | term "!=" term
    atom     := IDENT "(" term ("," term)* ")"
    term     := IDENT            -- a variable (paper convention: lowercase)
              | INTEGER          -- a constant
              | quoted string    -- a constant

Comments start with ``%`` or ``#`` and run to end of line.  ``≠`` and ``<>``
are accepted for ``!=``.  Relation names and variables are both identifiers;
following the paper we treat *every* bare identifier term as a variable and
require constants to be written as integers or quoted strings.

Example::

    parse_program('''
        T(x, y) :- E(x, y).
        T(x, z) :- T(x, y), E(y, z).
        O(x, y) :- Adom(x), Adom(y), not T(x, y).
    ''')
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .program import Program
from .rules import Rule
from .schema import Schema
from .terms import Atom, Fact, Inequality, Variable

__all__ = ["parse_program", "parse_rule", "parse_rules", "parse_facts", "ParseError"]


class ParseError(ValueError):
    """Raised on malformed Datalog source text."""

    def __init__(self, message: str, position: int | None = None, text: str = "") -> None:
        if position is not None and text:
            line = text.count("\n", 0, position) + 1
            column = position - (text.rfind("\n", 0, position) + 1) + 1
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


_WS = r"[ \t\r\n]"
_TOKEN_SPEC = [
    ("WS", rf"{_WS}+"),
    ("COMMENT", r"[%#][^\n]*"),
    ("ARROW", r":-|<-|←"),
    ("NEQ", r"!=|≠|<>"),
    ("NOT", r"not\b|¬|!"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("DOT", r"\."),
    ("STAR", r"\*"),
    ("INT", r"-?\d+"),
    ("STRING", r"\"[^\"]*\"|'[^']*'"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))

# The fact scan: the tokens of one fact, ``IDENT ( [term (, term)*] ) .``,
# as one regex built from the same token patterns.  A gap between two
# tokens is what the tokenizer skips there: whitespace runs and comments,
# each maximal, so the scan splits a text into tokens exactly as the
# tokenizer does (and a failed match backtracks in linear time).  A
# relation name is an IDENT the tokenizer does not read as NOT.
_SPEC = dict(_TOKEN_SPEC)
_GAP = rf"(?:{_SPEC['WS']}(?!{_WS})|{_SPEC['COMMENT']}(?=\n|\Z))*"
_VALUE = rf"(?:{_SPEC['INT']}|{_SPEC['STRING']})"
_FACT_RE = re.compile(
    rf"{_GAP}((?!{_SPEC['NOT']}){_SPEC['IDENT']}){_GAP}{_SPEC['LPAREN']}{_GAP}"
    rf"((?:{_VALUE}(?:{_GAP}{_SPEC['COMMA']}{_GAP}{_VALUE})*)?)"
    rf"{_GAP}{_SPEC['RPAREN']}{_GAP}{_SPEC['DOT']}"
)
_ARGUMENT_RE = re.compile(
    rf"{_GAP}(?:({_SPEC['INT']})|({_SPEC['STRING']})){_GAP}{_SPEC['COMMA']}?"
)
_GAP_RE = re.compile(_GAP)


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: str, position: int) -> None:
        self.kind = kind
        self.value = value
        self.position = position

    def __repr__(self) -> str:
        return f"{self.kind}({self.value!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r}", position, text)
        kind = match.lastgroup or ""
        if kind not in ("WS", "COMMENT"):
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str, *, allow_invention: bool = False) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0
        self._allow_invention = allow_invention

    # Token-stream primitives -------------------------------------------

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self, expected: str | None = None) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError(
                f"unexpected end of input (expected {expected})"
                if expected
                else "unexpected end of input",
                len(self._text),
                self._text,
            )
        if expected is not None and token.kind != expected:
            raise ParseError(
                f"expected {expected}, found {token.value!r}", token.position, self._text
            )
        self._index += 1
        return token

    def _accept(self, kind: str) -> _Token | None:
        token = self._peek()
        if token is not None and token.kind == kind:
            self._index += 1
            return token
        return None

    def at_end(self) -> bool:
        return self._index >= len(self._tokens)

    # Grammar -------------------------------------------------------------

    def parse_term(self):
        token = self._peek()
        if token is None:
            raise ParseError("expected a term", len(self._text), self._text)
        if token.kind == "IDENT":
            self._next()
            return Variable(token.value)
        if token.kind == "INT":
            self._next()
            try:
                return int(token.value)
            except ValueError as error:  # more digits than int() converts
                raise ParseError(
                    f"integer literal too long: {error}", token.position, self._text
                ) from None
        if token.kind == "STRING":
            self._next()
            return token.value[1:-1]
        if token.kind == "STAR" and self._allow_invention:
            self._next()
            return INVENTION_MARKER
        raise ParseError(f"expected a term, found {token.value!r}", token.position, self._text)

    def parse_atom(self) -> Atom:
        name = self._next("IDENT").value
        self._next("LPAREN")
        if self._accept("RPAREN"):
            # Nullary atoms (Section 7 of the paper lifts the arity >= 1
            # restriction; see repro.datalog docs for the adapted rules).
            return Atom(name, ())
        terms = [self.parse_term()]
        while self._accept("COMMA"):
            terms.append(self.parse_term())
        self._next("RPAREN")
        return Atom(name, terms)

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        self._next("ARROW")
        pos: list[Atom] = []
        neg: list[Atom] = []
        ineq: list[Inequality] = []
        while True:
            token = self._peek()
            if token is None:
                raise ParseError("rule is missing its terminating '.'", len(self._text), self._text)
            if token.kind == "NOT":
                self._next()
                neg.append(self.parse_atom())
            elif token.kind == "IDENT" and self._lookahead_is_inequality():
                left = self.parse_term()
                self._next("NEQ")
                right = self.parse_term()
                if not isinstance(left, Variable) or not isinstance(right, Variable):
                    raise ParseError(
                        "inequalities must relate two variables", token.position, self._text
                    )
                ineq.append(Inequality(left, right))
            else:
                pos.append(self.parse_atom())
            if self._accept("COMMA"):
                continue
            self._next("DOT")
            break
        return Rule(head, pos, neg, ineq)

    def _lookahead_is_inequality(self) -> bool:
        after = self._index + 1
        return after < len(self._tokens) and self._tokens[after].kind == "NEQ"

    def parse_fact(self) -> Fact:
        start = self._index
        atom = self.parse_atom()
        self._next("DOT")
        if not atom.is_ground():
            position = self._tokens[start].position
            raise ParseError(f"fact {atom!r} contains variables", position, self._text)
        return Fact(atom.relation, atom.terms)


#: Sentinel used by the ILOG parser extension for the invention symbol ``*``.
class _InventionMarker:
    __slots__ = ()

    def __repr__(self) -> str:
        return "*"


INVENTION_MARKER = _InventionMarker()


def parse_rule(text: str) -> Rule:
    """Parse a single rule, e.g. ``parse_rule("T(x,y) :- E(x,y).")``."""
    parser = _Parser(text)
    rule = parser.parse_rule()
    if not parser.at_end():
        token = parser._peek()
        assert token is not None
        raise ParseError(f"trailing input after rule: {token.value!r}", token.position, text)
    return rule


def parse_rules(text: str) -> list[Rule]:
    """Parse a sequence of rules."""
    parser = _Parser(text)
    rules: list[Rule] = []
    while not parser.at_end():
        rules.append(parser.parse_rule())
    return rules


def parse_program(
    text: str,
    output_relations: Iterable[str] | None = None,
    extra_edb: Schema | None = None,
    *,
    add_adom_rules: bool = True,
) -> Program:
    """Parse a full program.

    By default, when the source mentions the ``Adom`` relation without
    defining it, the projection rules of the Adom convention are added
    automatically (Section 2 of the paper omits them from examples).
    """
    rules = parse_rules(text)
    program = Program(rules, output_relations=output_relations, extra_edb=extra_edb)
    if add_adom_rules and "Adom" in program.edb():
        program = program.with_adom_rules()
    return program


def _scan_facts(text: str) -> list[Fact] | None:
    """The facts of *text* in order, one regex match per fact, or ``None``
    when the token parser would reject the text."""
    facts = []
    position = 0
    match = _FACT_RE.match
    while (found := match(text, position)) is not None:
        relation, arguments = found.group(1, 2)
        try:
            # Every string holds a quote and every comment a % or #, which
            # int() rejects, so this only succeeds on a plain list of
            # integers (with whitespace around them).
            values = [int(piece) for piece in arguments.split(",")]
        except ValueError:
            try:
                values = [
                    int(digits) if digits else quoted[1:-1]
                    for digits, quoted in _ARGUMENT_RE.findall(arguments)
                ]
            except ValueError:  # more digits than int() converts
                return None
        facts.append(Fact(relation, values))
        position = found.end()
    if _GAP_RE.match(text, position).end() != len(text):
        return None
    return facts


def parse_facts(text: str) -> Iterator[Fact]:
    """Parse a sequence of ground facts: ``E(1, 2). E(2, 3).``

    The whole text is scanned before the first fact is yielded.  Text the
    scan rejects goes through the token parser, which yields the same
    prefix of facts and then raises the :class:`ParseError`.
    """
    facts = _scan_facts(text)
    if facts is not None:
        yield from facts
        return
    parser = _Parser(text)
    while not parser.at_end():
        yield parser.parse_fact()

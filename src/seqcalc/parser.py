"""Recursive-descent parser for operator expressions.

Grammar (whitespace-insensitive; juxtaposition means composition):

    expr     := term (("+" | "-") term)*
    term     := factor (("*" factor) | factor)*
    factor   := "-" factor | atom ("^" uint)?
    atom     := "1" | "I" | "E" | "M" | "D" | rational | "(" expr ")"
    rational := uint ("/" uint)?

Each rule returns its value in the operator ring: a generator is its
OperatorPoly (M is (I+E)/2 and D is E-I by construction), a number is a
scalar, and every operator symbol is the ring operation of the same name.
There is no syntax tree, so a malformed expression fails only after its
well-formed prefix has been evaluated.  The canonical rendering produced by
OperatorPoly.render() is always re-parseable, and parses back to the same
polynomial.
"""

from __future__ import annotations

from .errors import ParseError
from .operators import GENERATORS, OperatorPoly, _from_ints

_Token = tuple[str, str, int]
"""(kind, text, offset); kind is NUMBER LETTER PLUS MINUS STAR SLASH CARET LPAREN RPAREN END."""

_KINDS = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    **dict.fromkeys("IEMD", "LETTER"),
}
"""The kind of every one-character token."""

_DIGITS = frozenset("0123456789")  # ASCII only: str.isdecimal() also takes "٣"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch, start = text[pos], pos
        pos += 1
        if ch in _DIGITS:
            while pos < len(text) and text[pos] in _DIGITS:
                pos += 1
            tokens.append(("NUMBER", text[start:pos], start))
        elif ch in _KINDS:
            tokens.append((_KINDS[ch], ch, start))
        elif not ch.isspace():
            raise ParseError(start, ("operator", "generator", "number"), repr(ch))
    tokens.append(("END", "", len(text)))
    return tokens


_ATOM_START = ("NUMBER", "LETTER", "LPAREN")

MAX_DEPTH = 64
"""Factors open at once: every "(" and "-" opens one, and the token that opens
one more is a ParseError.  A "(" costs four Python frames of the descent, and
without the bound 248 nested ones met the recursion limit."""


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def accept(self, kind: str) -> _Token | None:
        """The next token, consumed, if it is of this kind; else None."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            return None
        self.pos += 1
        return token

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        """The error for the next token, which is none of the expected things."""
        _, text, offset = self.tokens[self.pos]
        return ParseError(offset, expected, text or "end of input")

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        token = self.accept(kind)
        if token is None:
            raise self.fail(expected)
        return token

    def parse(self) -> OperatorPoly:
        poly = self.expr()
        self.expect("END", ("operator", "end of input"))
        return poly

    def expr(self) -> OperatorPoly:
        poly = self.term()
        while op := self.accept("PLUS") or self.accept("MINUS"):
            right = self.term()
            poly = poly + right if op[0] == "PLUS" else poly - right
        return poly

    def term(self) -> OperatorPoly:
        poly = self.factor()
        while self.accept("STAR") or self.tokens[self.pos][0] in _ATOM_START:
            poly = poly * self.factor()
        return poly

    def factor(self) -> OperatorPoly:
        if self.depth == MAX_DEPTH:
            raise self.fail((f"at most {MAX_DEPTH} nested factors",))
        self.depth += 1
        if self.accept("MINUS"):
            poly = -self.factor()
        else:
            poly = self.atom()
            if self.accept("CARET"):
                _, text, offset = self.expect("NUMBER", ("nonnegative integer exponent",))
                poly = poly ** _integer(text, offset)
        self.depth -= 1
        return poly

    def atom(self) -> OperatorPoly:
        number = self.accept("NUMBER")
        if number:
            numerator, denominator = _integer(number[1], number[2]), 1
            if self.accept("SLASH"):
                _, text, offset = self.expect("NUMBER", ("denominator",))
                denominator = _integer(text, offset)
                if denominator == 0:
                    raise ParseError(offset, ("nonzero denominator",), text)
            return _from_ints({(0, 0): numerator}, denominator)
        letter = self.accept("LETTER")
        if letter:
            return GENERATORS[letter[1]]
        if self.accept("LPAREN"):
            poly = self.expr()
            self.expect("RPAREN", ("')'",))
            return poly
        raise self.fail(("generator", "number", "'('"))


def _integer(text: str, offset: int) -> int:
    """int() of a NUMBER token's text, whose only failure is Python's int/str digit limit."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(offset, ("fewer digits",), f"{len(text)} digits") from None


def parse_operator_poly(text: str) -> OperatorPoly:
    """Parse operator text straight into its canonical polynomial."""
    return _Parser(text).parse()

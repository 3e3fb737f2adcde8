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
from .operators import GENERATORS, OperatorPoly

_Token = tuple[str, str, int]
"""(kind, text, offset); kind is NUMBER LETTER PLUS MINUS STAR SLASH CARET LPAREN RPAREN END."""

_SIMPLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
}

_DIGITS = frozenset("0123456789")  # ASCII only: str.isdecimal() also takes "٣"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SIMPLE:
            tokens.append((_SIMPLE[ch], ch, pos))
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < len(text) and text[pos] in _DIGITS:
                pos += 1
            tokens.append(("NUMBER", text[start:pos], start))
            continue
        if ch in "IEMD":
            tokens.append(("LETTER", ch, pos))
            pos += 1
            continue
        raise ParseError(pos, ("operator", "generator", "number"), repr(ch))
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

    def kind(self) -> str:
        """The next token's kind."""
        return self.tokens[self.pos][0]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        found, text, offset = self.tokens[self.pos]
        if found != kind:
            raise ParseError(offset, expected, text or "end of input")
        return self.advance()

    def parse(self) -> OperatorPoly:
        poly = self.expr()
        kind, text, offset = self.tokens[self.pos]
        if kind != "END":
            raise ParseError(offset, ("operator", "end of input"), text)
        return poly

    def expr(self) -> OperatorPoly:
        poly = self.term()
        while self.kind() in ("PLUS", "MINUS"):
            op = self.advance()[0]
            right = self.term()
            poly = poly + right if op == "PLUS" else poly - right
        return poly

    def term(self) -> OperatorPoly:
        poly = self.factor()
        while True:
            kind = self.kind()
            if kind == "STAR":
                self.advance()
            elif kind not in _ATOM_START:
                return poly
            poly = poly * self.factor()

    def factor(self) -> OperatorPoly:
        if self.depth == MAX_DEPTH:
            _, text, offset = self.tokens[self.pos]
            expected = (f"at most {MAX_DEPTH} nested factors",)
            raise ParseError(offset, expected, text or "end of input")
        self.depth += 1
        if self.kind() == "MINUS":
            self.advance()
            poly = -self.factor()
        else:
            poly = self.atom()
            if self.kind() == "CARET":
                self.advance()
                _, text, offset = self.expect("NUMBER", ("nonnegative integer exponent",))
                poly = poly ** _integer(text, offset)
        self.depth -= 1
        return poly

    def atom(self) -> OperatorPoly:
        kind, text, offset = self.tokens[self.pos]
        if kind == "NUMBER":
            self.advance()
            numerator, denominator = _integer(text, offset), 1
            if self.kind() == "SLASH":
                self.advance()
                _, denom_text, denom_offset = self.expect("NUMBER", ("denominator",))
                denominator = _integer(denom_text, denom_offset)
                if denominator == 0:
                    raise ParseError(denom_offset, ("nonzero denominator",), denom_text)
            return OperatorPoly({(0, 0): numerator}, denominator)
        if kind == "LETTER":
            self.advance()
            return GENERATORS[text]
        if kind == "LPAREN":
            self.advance()
            poly = self.expr()
            self.expect("RPAREN", ("')'",))
            return poly
        raise ParseError(offset, ("generator", "number", "'('"), text or "end of input")


def _integer(text: str, offset: int) -> int:
    """int() of a NUMBER token's text, whose only failure is Python's int/str digit limit."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(offset, ("fewer digits",), f"{len(text)} digits") from None


def parse_operator_poly(text: str) -> OperatorPoly:
    """Parse operator text straight into its canonical polynomial."""
    return _Parser(text).parse()

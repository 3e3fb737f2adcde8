"""Recursive-descent parser for operator expressions.

Grammar (whitespace-insensitive; juxtaposition means composition):

    expr     := ["-"] term (("+" | "-") term)*
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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .operators import GENERATORS, OperatorPoly


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER LETTER PLUS MINUS STAR SLASH CARET LPAREN RPAREN END
    text: str
    offset: int


_SIMPLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
}


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SIMPLE:
            tokens.append(_Token(_SIMPLE[ch], ch, pos))
            pos += 1
            continue
        if ch.isdecimal():
            start = pos
            while pos < len(text) and text[pos].isdecimal():
                pos += 1
            tokens.append(_Token("NUMBER", text[start:pos], start))
            continue
        if ch in "IEMD":
            tokens.append(_Token("LETTER", ch, pos))
            pos += 1
            continue
        raise ParseError(pos, ("operator", "generator", "number"), repr(ch))
    tokens.append(_Token("END", "", len(text)))
    return tokens


_ATOM_START = ("NUMBER", "LETTER", "LPAREN")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(token.offset, expected, token.text or "end of input")
        return self.advance()

    def parse(self) -> OperatorPoly:
        poly = self.expr()
        tail = self.peek()
        if tail.kind != "END":
            raise ParseError(tail.offset, ("operator", "end of input"), tail.text)
        return poly

    def expr(self) -> OperatorPoly:
        if self.peek().kind == "MINUS":
            self.advance()
            poly = -self.term()
        else:
            poly = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            right = self.term()
            poly = poly + right if op.kind == "PLUS" else poly - right
        return poly

    def term(self) -> OperatorPoly:
        poly = self.factor()
        while True:
            kind = self.peek().kind
            if kind == "STAR":
                self.advance()
            elif kind not in _ATOM_START:
                return poly
            poly = poly * self.factor()

    def factor(self) -> OperatorPoly:
        if self.peek().kind == "MINUS":
            self.advance()
            return -self.factor()
        poly = self.atom()
        if self.peek().kind == "CARET":
            self.advance()
            exponent = self.expect("NUMBER", ("nonnegative integer exponent",))
            return poly ** _integer(exponent)
        return poly

    def atom(self) -> OperatorPoly:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            numerator, denominator = _integer(token), 1
            if self.peek().kind == "SLASH":
                self.advance()
                denom = self.expect("NUMBER", ("denominator",))
                denominator = _integer(denom)
                if denominator == 0:
                    raise ParseError(denom.offset, ("nonzero denominator",), denom.text)
            return OperatorPoly.scalar(Fraction(numerator, denominator))
        if token.kind == "LETTER":
            self.advance()
            return GENERATORS[token.text]
        if token.kind == "LPAREN":
            self.advance()
            poly = self.expr()
            self.expect("RPAREN", ("')'",))
            return poly
        raise ParseError(token.offset, ("generator", "number", "'('"), token.text or "end of input")


def _integer(token: _Token) -> int:
    """int() of a NUMBER token, whose only failure is Python's int/str digit limit."""
    try:
        return int(token.text)
    except ValueError:
        raise ParseError(token.offset, ("fewer digits",), f"{len(token.text)} digits") from None


def parse_operator_poly(text: str) -> OperatorPoly:
    """Parse operator text straight into its canonical polynomial."""
    return _Parser(text).parse()

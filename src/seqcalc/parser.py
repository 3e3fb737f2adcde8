"""Recursive-descent parser for operator expressions.

Grammar (whitespace-insensitive; juxtaposition means composition):

    expr     := ["-"] term (("+" | "-") term)*
    term     := factor (("*" factor) | factor)*
    factor   := "-" factor | atom ("^" uint)?
    atom     := "1" | "I" | "E" | "M" | "D" | rational | "(" expr ")"
    rational := uint ("/" uint)?

Negative exponents are rejected at parse time; canonicalize() turns a tree
into the canonical OperatorPoly, replacing M with (I+E)/2 and D with E-I by
construction.  The canonical rendering produced by OperatorPoly.render() is
always re-parseable, and re-canonicalizes to the same polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import NegativePower, ParseError
from .operators import GENERATORS, OperatorPoly


@dataclass(frozen=True)
class Generator:
    symbol: str  # one of 1, I, E, M, D


@dataclass(frozen=True)
class Scalar:
    value: Fraction


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Subtract:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Multiply:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Negate:
    operand: "Node"


Node = Union[Generator, Scalar, Add, Subtract, Multiply, Power, Negate]


def canonicalize(node: Node) -> OperatorPoly:
    """Expand an expression tree into its canonical polynomial."""
    if isinstance(node, Generator):
        return GENERATORS[node.symbol]
    if isinstance(node, Scalar):
        return OperatorPoly.scalar(node.value)
    if isinstance(node, Add):
        return canonicalize(node.left) + canonicalize(node.right)
    if isinstance(node, Subtract):
        return canonicalize(node.left) - canonicalize(node.right)
    if isinstance(node, Multiply):
        return canonicalize(node.left) * canonicalize(node.right)
    if isinstance(node, Power):
        if node.exponent < 0:
            raise NegativePower(node.exponent)
        return canonicalize(node.base) ** node.exponent
    if isinstance(node, Negate):
        return -canonicalize(node.operand)
    raise TypeError(f"not an operator expression node: {node!r}")


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

    def parse(self) -> Node:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "END":
            raise ParseError(tail.offset, ("operator", "end of input"), tail.text)
        return node

    def expr(self) -> Node:
        if self.peek().kind == "MINUS":
            self.advance()
            node: Node = Negate(self.term())
        else:
            node = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            right = self.term()
            node = Add(node, right) if op.kind == "PLUS" else Subtract(node, right)
        return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            token = self.peek()
            if token.kind == "STAR":
                self.advance()
                node = Multiply(node, self.factor())
            elif token.kind in _ATOM_START:
                node = Multiply(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        if self.peek().kind == "MINUS":
            self.advance()
            return Negate(self.factor())
        node = self.atom()
        if self.peek().kind == "CARET":
            self.advance()
            exponent = self.expect("NUMBER", ("nonnegative integer exponent",))
            return Power(node, _integer(exponent))
        return node

    def atom(self) -> Node:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            numerator = _integer(token)
            if self.peek().kind == "SLASH":
                self.advance()
                denom = self.expect("NUMBER", ("denominator",))
                if _integer(denom) == 0:
                    raise ParseError(denom.offset, ("nonzero denominator",), denom.text)
                return Scalar(Fraction(numerator, _integer(denom)))
            return Scalar(Fraction(numerator))
        if token.kind == "LETTER":
            self.advance()
            return Generator(token.text)
        if token.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", ("')'",))
            return node
        raise ParseError(token.offset, ("generator", "number", "'('"), token.text or "end of input")


def _integer(token: _Token) -> int:
    """int() of a NUMBER token, whose only failure is Python's int/str digit limit."""
    try:
        return int(token.text)
    except ValueError:
        raise ParseError(token.offset, ("fewer digits",), f"{len(token.text)} digits") from None


def parse_operator(text: str) -> Node:
    """Parse an operator expression into its syntax tree."""
    return _Parser(text).parse()


def parse_operator_poly(text: str) -> OperatorPoly:
    """Parse and canonicalize in one step."""
    return canonicalize(parse_operator(text))

"""The parser's outcome on a fixed corpus of operator text, built with the standard library alone.

``parse_corpus`` holds edge cases, 400 well-formed expressions from
``random_expr`` and 2000 random strings; ``parse_outcome`` gives one line
per text, and PARSE_CORPUS_SHA256 pins the lines.  ``tests/test_parser.py``
calls the same builders under pytest.

Run it as a script: ``PYTHONPATH=src python tests/parser_digests.py``.
"""

import hashlib
import random
from fractions import Fraction

from seqcalc import OperatorPoly, parse_operator_poly
from seqcalc.errors import ParseError, SeqCalcError

# The oracle's generators are written out as term maps, not taken from the
# parser's GENERATORS table.
_I = OperatorPoly({(1, 0): 1})
_E = OperatorPoly({(0, 1): 1})
ORACLE = {
    "I": _I,
    "E": _E,
    "M": OperatorPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}),
    "D": _E - _I,
}


def random_expr(rng, depth=0):
    """Random operator text and the polynomial it denotes, built side by side.

    Every compound is parenthesized, so the text's meaning does not depend on
    precedence; composition is written with "*", a space or nothing at all.
    """
    if depth >= 4 or rng.random() < 0.35:
        if rng.random() < 0.5:
            symbol = rng.choice("IEMD")
            return symbol, ORACLE[symbol]
        num, den = rng.randint(0, 9), rng.randint(1, 9)
        return f"{num}/{den}", OperatorPoly.scalar(Fraction(num, den))
    kind = rng.randrange(5)
    left, lpoly = random_expr(rng, depth + 1)
    if kind == 3:
        k = rng.randint(0, 3)
        return f"({left}^{k})", lpoly**k
    if kind == 4:
        return f"(-{left})", -lpoly
    right, rpoly = random_expr(rng, depth + 1)
    if kind == 0:
        return f"({left} + {right})", lpoly + rpoly
    if kind == 1:
        return f"({left} - {right})", lpoly - rpoly
    glue = rng.choice(["*", " ", ""])
    if not glue and left[-1].isdecimal() and right[0].isdecimal():
        glue = " "
    return f"({left}{glue}{right})", lpoly * rpoly


# Pieces of operator text: every token kind, whitespace of several kinds
# (no-break space and line separator among them), and characters that are
# not tokens.  Exponents are drawn from 0..12 so each parse stays cheap.
_TOKEN_PIECES = ["I", "E", "M", "D", "1", "0", "2", "7", "10", "+", "-", "*", "/", "(", ")"]
_OTHER_PIECES = [" ", "\t", "\n", "\xa0", "\u2028", "٣", "x", "Q", "e", "@", ".", "_"]


def _corpus_text(rng):
    pieces = _TOKEN_PIECES + _OTHER_PIECES[: 5 if rng.random() < 0.8 else None]
    parts = []
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.1:
            parts.append(rng.choice(["^", "^ "]) + str(rng.randint(0, 12)) + rng.choice(" )*+-"))
        else:
            parts.append(rng.choice(pieces))
    return "".join(parts)


def _has_big_exponent(text):
    """True if some "^" is followed, across whitespace, by an ASCII number above 12."""
    for start, ch in enumerate(text):
        if ch == "^":
            rest = text[start + 1 :].lstrip()
            digits = rest[: len(rest) - len(rest.lstrip("0123456789"))]
            if digits and int(digits) > 12:
                return True
    return False


def parse_corpus():
    """A fixed corpus of operator text: edge cases, then 400 well-formed and 2000 random strings."""
    corpus = ["", " ", "\xa0", " ", "٣", "I٣", "x", "IQ", "e", "2/", "2/0", "2/ 0", "0/7"]
    corpus += ["I^", "I^-1", "I^ ", "I^x", "(", ")", "(I", "I)", "((I)", "(I))", "()", "I E +"]
    corpus += ["I^5000", "1" * 4301, "2/" + "3" * 4301, "I^" + "1" * 4301]
    for depth in (63, 64, 65):
        corpus += ["(" * depth + "I" + ")" * depth, "-" * depth + "I", "(" * depth, "-" * depth]
    rng = random.Random("parse-corpus")
    corpus += [random_expr(rng)[0] for _ in range(400)]
    while len(corpus) < 2450:
        text = _corpus_text(rng)
        if not _has_big_exponent(text):
            corpus.append(text)
    return corpus


def parse_outcome(text):
    """One line: the canonical rendering, or the error's type and text (and offset)."""
    try:
        return parse_operator_poly(text).render()
    except ParseError as exc:
        return f"ParseError {exc.offset} {exc}"
    except SeqCalcError as exc:
        return f"{type(exc).__name__} {exc}"


PARSE_CORPUS_SHA256 = "b5781568faae0c377b06c887fc4689a306fd8366f3c48c8cb349252633c1a7db"


def parse_corpus_digest():
    return hashlib.sha256("".join(parse_outcome(text) + "\n" for text in parse_corpus()).encode()).hexdigest()


if __name__ == "__main__":
    assert parse_corpus_digest() == PARSE_CORPUS_SHA256
    print("parser outcomes match the pinned digest")

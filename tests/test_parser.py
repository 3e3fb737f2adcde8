"""Operator expression grammar, errors, and round-trips against a ring oracle."""

import hashlib
import random
from fractions import Fraction

import pytest

from seqcalc import DIFFERENCE, IDENTITY, MIDDLE, OperatorPoly, parse_operator_poly
from seqcalc.errors import ParseError, SeqCalcError
from seqcalc.parser import MAX_DEPTH


def test_standard_operator_relations():
    assert parse_operator_poly("(E - I)^2") == DIFFERENCE**2
    assert parse_operator_poly("(E - I)^2").terms == {
        (0, 2): Fraction(1),
        (1, 1): Fraction(-2),
        (2, 0): Fraction(1),
    }
    assert parse_operator_poly("1/2*I + 1/2*E") == MIDDLE
    assert parse_operator_poly("M") == MIDDLE
    assert parse_operator_poly("D") == DIFFERENCE
    assert parse_operator_poly("E - I") == DIFFERENCE


def test_juxtaposition_is_composition():
    assert parse_operator_poly("IE") == parse_operator_poly("I*E")
    assert parse_operator_poly("2I") == parse_operator_poly("2*I")
    assert parse_operator_poly("I(E+1)") == parse_operator_poly("I*E + I")


def test_whitespace_insensitive():
    assert parse_operator_poly(" ( E\t-\nI ) ^ 2 ") == DIFFERENCE**2
    assert parse_operator_poly("1 / 2 * I + 1/2*E") == MIDDLE


def test_scalars_and_identity():
    assert parse_operator_poly("1") == IDENTITY
    assert parse_operator_poly("3/2") == OperatorPoly.scalar("3/2")
    assert parse_operator_poly("-5") == OperatorPoly.scalar(-5)
    assert parse_operator_poly("2^3") == OperatorPoly.scalar(8)


def test_unary_minus():
    assert parse_operator_poly("-I + E") == DIFFERENCE
    assert parse_operator_poly("- M + M") == OperatorPoly.zero()
    assert parse_operator_poly("3*-2") == OperatorPoly.scalar(-6)
    assert parse_operator_poly("--I") == parse_operator_poly("I")


def test_power_binds_tighter_than_product():
    assert parse_operator_poly("I*E^2") == parse_operator_poly("I*(E^2)")
    assert parse_operator_poly("-I^2") == -parse_operator_poly("I^2")


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_operator_poly("E^-1")
    assert err.value.offset == 2
    assert "exponent" in " ".join(err.value.expected)


def test_parse_error_details():
    with pytest.raises(ParseError) as err:
        parse_operator_poly("I + ")
    assert err.value.found == "end of input"

    with pytest.raises(ParseError) as err:
        parse_operator_poly("(I + E")
    assert "')'" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse_operator_poly("I @ E")
    assert err.value.offset == 2

    with pytest.raises(ParseError):
        parse_operator_poly("3/0")

    with pytest.raises(ParseError):
        parse_operator_poly("I E +")


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_render_parse_round_trip(seed):
    rng = random.Random(f"roundtrip:{seed}")
    for _ in range(200):
        text, poly = random_expr(rng)
        assert parse_operator_poly(text) == poly, text
        assert parse_operator_poly(poly.render()) == poly


def test_nesting_parses_up_to_the_depth_bound():
    inner, top = MAX_DEPTH - 1, parse_operator_poly("I")  # the outermost factor is open too
    assert parse_operator_poly("(" * inner + "I" + ")" * inner) == top
    assert parse_operator_poly("-" * inner + "I") == (-top if inner % 2 else top)
    for text in ("(" * MAX_DEPTH + "I" + ")" * MAX_DEPTH, "-" * MAX_DEPTH + "I"):
        with pytest.raises(ParseError) as err:
            parse_operator_poly(text)
        assert err.value.offset == MAX_DEPTH


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


def test_parse_outcomes_match_the_pinned_digest():
    lines = "".join(parse_outcome(text) + "\n" for text in parse_corpus())
    assert hashlib.sha256(lines.encode()).hexdigest() == PARSE_CORPUS_SHA256

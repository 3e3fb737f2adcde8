"""Operator expression grammar, errors, and round-trips against a ring oracle."""

import random
from fractions import Fraction

import pytest

from seqcalc import DIFFERENCE, IDENTITY, MIDDLE, OperatorPoly, parse_operator_poly
from seqcalc.errors import ParseError
from seqcalc.parser import MAX_DEPTH

from parser_digests import PARSE_CORPUS_SHA256, parse_corpus_digest, random_expr


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


def test_parse_outcomes_match_the_pinned_digest():
    assert parse_corpus_digest() == PARSE_CORPUS_SHA256

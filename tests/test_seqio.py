"""Sequence ingestion formats and JSON report payloads."""

import json
from fractions import Fraction

import pytest
from hypothesis import given

from seqcalc import FiniteSeq, classify_convexity, classify_monotonicity
from seqcalc.errors import QUOTE_CHARS, FormatError, NonContiguousIndex
from seqcalc.seqio import (
    FORMATS,
    classification_payload,
    format_rational,
    load_sequence,
    parse_bfile,
    parse_csv,
    parse_inline,
    parse_json,
    parse_rational,
    parse_sequence_text,
    render_json,
    render_sequence,
    sequence_payload,
)

from strategies import finite_seqs


def test_parse_inline():
    assert parse_inline("1,2,4,8") == FiniteSeq([1, 2, 4, 8])
    assert parse_inline("1, 3/2, -2") == FiniteSeq([1, "3/2", -2])
    assert parse_inline("") == FiniteSeq()
    assert parse_inline("   ") == FiniteSeq()
    with pytest.raises(FormatError):
        parse_inline("1,,2")
    with pytest.raises(FormatError):
        parse_inline("1,2,")


def test_parse_rational_rejects_decimals():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == -7
    with pytest.raises(FormatError):
        parse_rational("1.5")
    with pytest.raises(FormatError):
        parse_rational("3/0")


def test_parse_csv_column_and_row():
    assert parse_csv("1\n3/2\n-2\n") == FiniteSeq([1, "3/2", -2])
    assert parse_csv("1,3/2,-2\n") == FiniteSeq([1, "3/2", -2])
    assert parse_csv("\n\n") == FiniteSeq()
    with pytest.raises(FormatError) as err:
        parse_csv("1\nx\n")
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_csv("1,2\n3,4\n")


def test_parse_json_variants():
    assert parse_json('[1, "3/2", -2]') == FiniteSeq([1, "3/2", -2])
    assert parse_json("[]") == FiniteSeq()
    with pytest.raises(FormatError):
        parse_json('{"a": 1}')
    with pytest.raises(FormatError):
        parse_json("[true]")
    with pytest.raises(FormatError):
        parse_json("[1.5]")
    with pytest.raises(FormatError):
        parse_json("[1, 2")


def test_parse_bfile():
    assert parse_bfile("1 1\n2 4\n3 9\n") == FiniteSeq([1, 4, 9])
    # offsets other than 1 are re-based
    assert parse_bfile("# comment\n0 5\n1 6\n") == FiniteSeq([5, 6])
    with pytest.raises(NonContiguousIndex) as err:
        parse_bfile("1 1\n3 9\n")
    assert (err.value.expected, err.value.got) == (2, 3)
    with pytest.raises(FormatError):
        parse_bfile("1 2 3\n")
    with pytest.raises(FormatError):
        parse_bfile("x 1\n")


@given(finite_seqs())
def test_round_trip_every_format(s):
    for fmt in FORMATS:
        text = render_sequence(s, fmt)
        assert parse_sequence_text(text, fmt) == s


def test_load_sequence_inline_and_files(tmp_path):
    assert load_sequence("inline:1,2,3") == FiniteSeq([1, 2, 3])

    csv = tmp_path / "s.csv"
    csv.write_text("1\n2\n3\n")
    assert load_sequence(f"csv:{csv}") == FiniteSeq([1, 2, 3])

    bfile = tmp_path / "b000001.txt"
    bfile.write_text("1 1\n2 1\n3 2\n4 3\n5 5\n")
    assert load_sequence(f"bfile:{bfile}") == FiniteSeq([1, 1, 2, 3, 5])

    with pytest.raises(FormatError):
        load_sequence("nope:1,2")
    with pytest.raises(FormatError):
        load_sequence(f"json:{tmp_path / 'missing.json'}")


def test_sequence_payload_golden():
    payload = sequence_payload(FiniteSeq([3, 5, 7]))
    assert render_json(payload) == '{"schema":"seqcalc/1","kind":"sequence","values":["3","5","7"]}'


def test_classification_payload_contents():
    s = FiniteSeq([1, 4, 9, 16])
    payload = classification_payload(classify_monotonicity(s), classify_convexity(s))
    assert payload["convexity"]["strictly_convex"] is True
    assert payload["convexity"]["second_derivative"] == ["2", "2"]
    assert payload["monotonicity"]["strictly_increasing"] is True
    # stable, machine-checkable rendering
    assert json.loads(render_json(payload)) == payload


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-3, 2)) == "-3/2"


def test_unknown_format_quotes_a_short_excerpt():
    name = "f" * 3000
    for call in (lambda: parse_sequence_text("1", name), lambda: render_sequence(FiniteSeq(), name)):
        with pytest.raises(FormatError) as err:
            call()
        message = str(err.value)
        assert "f" * QUOTE_CHARS in message and "f" * (QUOTE_CHARS + 1) not in message
        assert "(3000 characters)" in message

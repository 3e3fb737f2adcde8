"""Sequence ingestion formats and JSON report payloads."""

import json
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcalc import FiniteSeq, OperatorPoly, Polynomial, as_rational, classify_convexity, classify_monotonicity, seqio
from seqcalc.errors import QUOTE_CHARS, FormatError, NonContiguousIndex, quoted
from seqcalc.seqio import (
    FORMATS,
    classification_payload,
    format_rational,
    load_sequence,
    operator_payload,
    parse_bfile,
    parse_csv,
    parse_inline,
    parse_json,
    parse_sequence_text,
    polynomial_payload,
    rational_payload,
    render_json,
    render_sequence,
    sequence_payload,
    verification_payload,
)
from seqcalc.verify import CheckReport

from strategies import finite_seqs
from test_scaled import PRIMES_PAST_BOUND


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
    assert as_rational("3/2") == Fraction(3, 2)
    assert as_rational("-7") == -7
    with pytest.raises(FormatError):
        as_rational("1.5")
    with pytest.raises(FormatError):
        as_rational("3/0")


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


def test_an_int_past_the_digit_limit_is_quoted_like_any_long_repr():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no int/str digit limit in this interpreter")
    big = 10**limit
    values = (big, -big - 7, 3**20000, 2**100003 - 1)
    # a rational is quoted as "p/q", with the numerator or the denominator past the limit
    rationals = (Fraction(big, 3), Fraction(-big - 7, 3), Fraction(2, 3**20000), Fraction(-1, 2**100003 - 1))
    for value in values + rationals:
        with pytest.raises(ValueError):
            str(value)
        try:
            sys.set_int_max_str_digits(0)
            text = str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert quoted(value) == f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"
    assert quoted(Fraction(-1, 2)) == "-1/2" and quoted(Fraction(6, 3)) == "2"


def test_parse_integer_quotes_a_bad_token_in_short():
    with pytest.raises(ValueError) as err:
        seqio.parse_integer("٣" * 3000)
    assert str(err.value) == f"not an integer: {'٣' * QUOTE_CHARS!r}... (3000 characters)"


# ---------------------------------------------------------------------------
# The scanner against a per-token reference parser

_REF_RATIONAL = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def _ref_ratio(text, line=None):
    """(p, q) of one literal, one regex match per token: the reading the scanner replaced."""
    token = text.strip()
    match = _REF_RATIONAL.match(token)
    if match is None:
        raise FormatError(f"not a rational literal: {quoted(token)}", line)
    num, den = match.groups()
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError:
        raise FormatError(f"{len(token)}-character literal has too many digits to parse", line) from None
    if q == 0:
        raise FormatError(f"zero denominator in {quoted(token)}", line)
    return p, q


def _ref_inline(text):
    body = text.strip()
    return FiniteSeq.from_ratios([_ref_ratio(p) for p in body.split(",")]) if body else FiniteSeq()


def _ref_csv(text):
    rows = [(n, line) for n, raw in enumerate(text.splitlines(), start=1) if (line := raw.strip())]
    if len(rows) == 1 and "," in rows[0][1]:
        number, line = rows[0]
        return FiniteSeq.from_ratios([_ref_ratio(piece, number) for piece in line.split(",")])
    ratios = []
    for number, line in rows:
        if "," in line:
            raise FormatError("unexpected comma in multi-row csv", number)
        ratios.append(_ref_ratio(line, number))
    return FiniteSeq.from_ratios(ratios)


def _ref_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid json: {exc.msg}", exc.lineno) from None
    except ValueError:
        raise FormatError("json integer has too many digits to parse") from None
    if not isinstance(data, list):
        raise FormatError("json sequence must be an array")
    ratios = []
    for item in data:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise FormatError(f"json entries must be integers or 'p/q' strings, got {quoted(item)}")
        ratios.append((item, 1) if isinstance(item, int) else _ref_ratio(item))
    return FiniteSeq.from_ratios(ratios)


def _ref_bfile(text):
    ratios, expected = [], None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"expected 'index value', got {quoted(line)}", number)
        if not fields[0].isascii() or "_" in fields[0]:
            raise FormatError(f"bad index {quoted(fields[0])}", number)
        try:
            index = int(fields[0])
        except ValueError:
            raise FormatError(f"bad index {quoted(fields[0])}", number) from None
        if expected is not None and index != expected:
            raise NonContiguousIndex(expected, index, number)
        expected = index + 1
        ratios.append(_ref_ratio(fields[1], number))
    return FiniteSeq.from_ratios(ratios)


REFERENCE = {"inline": _ref_inline, "csv": _ref_csv, "json": _ref_json, "bfile": _ref_bfile}


def _outcome(parse, text):
    """The working form parsed, or the error's (type, message, line)."""
    try:
        items, den = parse(text).scaled()
    except (FormatError, NonContiguousIndex) as exc:
        return type(exc), str(exc), exc.line
    return list(items), den


def assert_same_as_reference(fmt, text):
    assert _outcome(REFERENCE[fmt], text) == _outcome(lambda t: parse_sequence_text(t, fmt), text)


_SPACES = ["", " ", "\t", "\xa0", "\u3000", "\x1f"]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_JUNK = ["", "_", "1_000", "٣", "x", ".", ".5", "+", "-", "/", "//", "#", ",", "0", "/0", "/00", "e3"]
_digits = st.text("0123456789", min_size=1, max_size=4)
_tokens = st.builds(
    "{}{}{}".format, st.sampled_from(["", "", "-", "+"]), _digits,
    st.one_of(st.just(""), _digits.map("/{}".format)),
)  # fmt: skip


def _spoilt(spoil, token, before, after, odd, at, replace):
    """token with junk around it (spoil 0), one odd character put in or in place of one of its own
    (spoil 1 or 2), or as it is."""
    if spoil == 0:
        return f"{before}{token}{after}"
    if spoil <= 2:
        at %= len(token) + 1 - replace
        return token[:at] + odd + token[at + replace :]
    return token


# mostly well-formed tokens; one in ten has junk around it, and two in ten a "٣" or "_" inside
_entries = st.builds(
    _spoilt, st.integers(0, 9), _tokens, st.sampled_from(_JUNK), st.sampled_from(_JUNK),
    st.sampled_from(["٣", "_"]), st.integers(0, 9), st.integers(0, 1),
)  # fmt: skip
_padded = st.builds("{}{}{}".format, st.sampled_from(_SPACES), _entries, st.sampled_from(_SPACES))


@st.composite
def _texts(draw, fmt):
    # half the texts draw each entry anew; the other half draw theirs, and a bfile its gaps, from a
    # small pool of well-formed or of padded entries, so texts of many repeats, of few and of
    # integers alone all reach the scan
    pooled = draw(st.booleans())
    if pooled:
        pool = draw(st.lists(_tokens if draw(st.booleans()) else _padded, min_size=1, max_size=4))
        entries = draw(st.lists(st.sampled_from(pool), max_size=12))
    else:
        entries = draw(st.lists(_padded, max_size=8))
    seps = st.sampled_from(_BREAKS * 3 + ([","] if fmt != "bfile" else []))
    if fmt == "inline":
        return ",".join(entries) if draw(st.booleans()) else draw(seps).join(entries)
    if fmt == "json":
        items = [int(e) if re.fullmatch("[+-]?[0-9]+", e) and draw(st.booleans()) else e for e in entries]
        if draw(st.booleans()):
            items.append(draw(st.sampled_from([None, True, 1.5, [], "1,2"])))
        return json.dumps(items, ensure_ascii=draw(st.booleans()))
    lines = entries
    if fmt == "bfile":
        first = draw(st.integers(-3, 3))
        gaps = [" ", "\t", "  ", "\xa0"]
        gap = st.sampled_from(draw(st.lists(st.sampled_from(gaps), min_size=1, max_size=2)) if pooled else gaps)
        lines = [f"{first + i}{draw(gap)}{e}" for i, e in enumerate(entries)]
        if lines and draw(st.booleans()):  # a wrong index, or a comment ended by any line break
            k = draw(st.integers(0, len(lines) - 1))
            spoilt = [f"{first + k + 1} 1", f"# c{draw(seps)}{k}", "", "1 2 3", "+00 1"]
            lines[k] = draw(st.sampled_from(spoilt))
        if draw(st.booleans()):
            lines.insert(0, "# generated")
    return "".join(line + draw(seps) for line in lines)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scanner_matches_the_per_token_reference(fmt, data):
    assert_same_as_reference(fmt, data.draw(_texts(fmt)))


# entries k/p over 13 primes: their lcm passes DEN_BITS, so the scan's from_columns
# builds Fractions over 1 where the reference builds them through from_ratios
_PAST_BOUND = [f"{k if k % 3 else -k}/{p}" for k, p in enumerate(PRIMES_PAST_BOUND, start=1)]
# long texts whose repeats come late (3500 after 1500 distinct tokens) or early (2000 before 3000
# distinct tokens): the table hands back each one's items
_LATE_REPEATS = [f"{k}/7" for k in range(1500)] + ["1/2"] * 3500
_EARLY_REPEATS = ["1/2"] * 2000 + [f"{k}/7" for k in range(3000)]
# at the edge of the table: every token distinct (the distinct tokens are the sequence), one
# repeat at the end, and one token repeated at the start
_DISTINCT = ["1/2", "-3", "4/6", "+5/7", "08"]
_BOUNDARY = [_DISTINCT, [*_DISTINCT, "4/6"], ["4/6", *_DISTINCT]]


def _forms(entries):
    """entries as an inline row, csv lines, bfile lines and a json array."""
    return [
        ",".join(entries), "\n".join(entries), "".join(f"{i} {e}\n" for i, e in enumerate(entries)),
        json.dumps(entries),
    ]  # fmt: skip


EDGE_CORPUS = [
    "1\r\n2\r\n", "1\r2\r3", "1\x1c2\x853\u20284", "\xa01/2\xa0\n\xa0-3\xa0",
    "1_000", "٣", "+7", "007", "2/-3", "1/2/3", "4/00", "0/0", "1/0\n4/00",
    "9" * 4301, "1/" + "9" * 4301, "1\n" + "9" * 4301 + "\n1/0", "1 2", "1, 2 ,3", ",1", "1,",
    '"1,2"', '["1,2"]', '[" 3/4 ", 5, "-0"]', '["4/00"]', "[1, true]", "[1, 2.5]", "[]", "{}",
    "# c\x1c1 5\n2 6", "# c\u20281 5\n2 6\n", "# comment\n-1 5\n0 6\n1 7", "+1 5\n+2 6", "-2 1\n-3 2",
    "1 1\n3 2", "1 1\n\n# gap\n2 2\n", "1 1 1", "x 1", "1 x", "1\t3/4\n2\xa05", "  \n\t\n", "",
    # shapes a check by conversion alone gets wrong: int() takes whitespace around its
    # digits, and field counts can balance across lines
    "1 /2", "1/ 2", "1\t/2", "1/+2", "1/", "+-1", "1\x1f2", "1 2,,3",
    "1 5#x", "1 5 # note", " # c\n1 5", "1 5 2\n7", "1 1\n2\n3\n3 6", "1 5\n 2\n3 \n3 6",
    '["", "1 2"]', '[" ", "1 2"]', '["1 /2"]', "1 ٣", "1 2_0", "1 3/٣", "٣ 1", "2_0 1",
    *_forms(_PAST_BOUND),
    # repeated tokens, read once each: json entries keyed only after their type check, as
    # True == 1 and 1.0 == 1; an error reported at its first line; Fractions past DEN_BITS shared
    "[1, true, 1]", "[1, 1.0, 1]", '["1", 1, " 1", "1"]', "1/0\n2\n1/0", "1/0\n1/0\n2\n1/0", "1/\n1/\n1/",
    "1/2,1/,1/2,1/2", *_forms(_PAST_BOUND * 3), *_forms(_LATE_REPEATS), *_forms(_EARLY_REPEATS),
    *(text for entries in _BOUNDARY for text in _forms(entries)),
]  # fmt: skip


@pytest.mark.parametrize("fmt", FORMATS)
def test_scanner_matches_the_reference_on_edge_cases(fmt):
    for text in EDGE_CORPUS:
        assert_same_as_reference(fmt, text)


_BIG = "-" + "7" * 400
_CANONICAL = ["+7", "007", "-3/4", "5/6", _BIG, "0", "9/12"]
_READ = [7, 7, "-3/4", "5/6", int(_BIG), 0, "3/4"]
_INTEGERS = ["+7", "007", _BIG, "0", "-12"]


def _usual(fmt, entries):
    """entries in fmt's usual shapes: padded pieces, CRLF lines and blank lines, json ints and
    padded "p/q" strings."""
    if fmt == "inline":
        return ", ".join(entries)
    if fmt == "csv":
        return " \r\n".join(entries) + "\r\n\r\n"
    if fmt == "json":
        return json.dumps([int(e) if k % 3 == 1 and "/" not in e else f" {e} " if "/" in e and k % 3 == 2 else e
                           for k, e in enumerate(entries)])  # fmt: skip
    return "# b-file\r\n\r\n" + "".join(f"{i} {v}\r\n\r\n" for i, v in enumerate(entries, start=-2))


# each format's usual text, whose tokens are all distinct; that text with one repeat at the end,
# with one token repeated at the start, and three times over (its distinct tokens read once
# each); and one of integers alone
FAST_TEXTS = {
    fmt: [(_usual(fmt, _CANONICAL), _READ), (_usual(fmt, [*_CANONICAL, "5/6"]), [*_READ, "5/6"]),
          (_usual(fmt, ["-3/4", "-3/4", *_CANONICAL[3:]]), ["-3/4", "-3/4", *_READ[3:]]),
          (_usual(fmt, _CANONICAL * 3), _READ * 3), (_usual(fmt, _INTEGERS), [7, 7, int(_BIG), 0, -12])]
    for fmt in FORMATS
}  # fmt: skip


@pytest.mark.parametrize("fmt", FORMATS)
def test_texts_of_the_usual_shapes_never_reach_the_walk(monkeypatch, fmt):
    """The scan reads them all: a decline to the walk fails here, not just in a benchmark."""

    def walk(piece, line=None):
        raise AssertionError(f"the walk read {piece!r}")

    monkeypatch.setattr(seqio, "_ratio", walk)
    for text, values in FAST_TEXTS[fmt]:
        assert parse_sequence_text(text, fmt) == FiniteSeq(values)


def _rational_outcome(read, text, line):
    """read(text, line) as (p, q) in lowest terms, or the error's (type, message, line)."""
    try:
        value = read(text, line)
    except FormatError as exc:
        return type(exc), str(exc), exc.line
    return value.numerator, value.denominator


def _ref_rational(text, line):
    return Fraction(*_ref_ratio(text, line))


def _read_rational(text, line):
    """as_rational, which has no line, or the walk's rule with the line it is given."""
    return as_rational(text) if line is None else Fraction(*seqio._ratio(text, line))


@pytest.mark.parametrize("line", [None, 7])
def test_parse_rational_matches_the_reference_on_edge_cases(line):
    for text in EDGE_CORPUS:
        assert _rational_outcome(_ref_rational, text, line) == _rational_outcome(_read_rational, text, line)


@pytest.mark.parametrize("fmt", ["csv", "bfile", "json"])
def test_parsing_holds_a_few_hundred_bytes_per_entry(fmt):
    # a whole-text fullmatch keeps sre state per line: its match alone peaks at 880-1090 B
    entries = ([f"{p}/{q}" for p in range(-9, 10) for q in range(1, 10)] * 117)[:20000]
    text = {
        "csv": "\n".join(entries) + "\n",
        "bfile": "# b-file\n" + "".join(f"{i} {e}\n" for i, e in enumerate(entries, start=1)),
        "json": json.dumps(entries),
    }[fmt]
    tracemalloc.start()
    try:
        seq = parse_sequence_text(text, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq) == 20000
    assert peak <= 400 * 20000


def _reports():
    texts = ('quote " here', "back\\slash", "new\nline", "non-ASCII é → ∑", "\x00")
    return [
        CheckReport("a", 3, texts, len(texts), False),
        CheckReport("b", 0, (), 0, True),
    ]


PAYLOADS = {
    "empty sequence": lambda: sequence_payload(FiniteSeq()),
    "one entry": lambda: sequence_payload(FiniteSeq(["-3/7"])),
    "sequence": lambda: sequence_payload(FiniteSeq([1, "1/2", -3, 10**50, "7/9"])),
    "wide denominators": lambda: sequence_payload(FiniteSeq.from_ratios([(1, 2**61 - 1), (1, 2**31 - 1)])),
    "rational": lambda: rational_payload(Fraction(-5, 3)),
    "operator": lambda: operator_payload(OperatorPoly({(1, 0): Fraction(1, 2), (0, 2): -3})),
    "polynomial": lambda: polynomial_payload(Polynomial([1, "-1/2", 0, 3])),
    "zero polynomial": lambda: polynomial_payload(Polynomial([])),
    "classification": lambda: classification_payload(
        classify_monotonicity(FiniteSeq([1, 4, 9])), classify_convexity(FiniteSeq([1, 4, 9]))
    ),
    "classification without convexity": lambda: classification_payload(
        classify_monotonicity(FiniteSeq([2, 1])), None
    ),
    "verification": lambda: verification_payload(_reports()),
}


@pytest.mark.parametrize("kind", PAYLOADS)
def test_render_json_writes_what_json_dumps_writes(kind):
    payload = PAYLOADS[kind]()
    assert render_json(payload) == json.dumps(payload, separators=(",", ":"))

"""Sequence ingestion and JSON report rendering.

Four source formats are understood:

    inline  comma-separated rationals:      1,3/2,-2
    csv     one rational per line, or a single comma-separated row
    json    array of integers / "p/q" strings
    bfile   OEIS-style lines "index value" with contiguous ascending
            indices ("#" comments and blank lines ignored); re-based to 1

Every format shares one token grammar, ``[+-]?[0-9]+(?:/[0-9]+)?`` in ASCII
digits with a nonzero denominator, and every number within Python's int/str
digit limit.  Whitespace around a token is anything ``str.strip()`` removes,
and lines end at every ``str.splitlines()`` boundary (a bfile comment too).

``_read`` reads every format: the scan, else the walk.  A format's shape
check hands the scan whitespace-free tokens: csv lines, inline pieces and json
strings stripped, none empty or with whitespace inside; the values of bfile
lines of two fields past the leading comments, all split by one ``split()``.
Each check reads its tokens joined into one text, which also tells whether
any token holds "/" and rejects one that ends in it ("1/").  In ASCII text
without "_", ``int()`` takes such a token exactly where it matches
``[+-]?[0-9]+``, so the scan's ``int()`` calls check the grammar.  Where no
token holds "/", the items are the tokens' ints over 1.  Else one
``dict.fromkeys`` keys the tokens in first-occurrence order, and only the
distinct ones are split at "/" and read: where none repeats, they are the
sequence; else a table hands their items back in input order, the ints or,
past ``DEN_BITS``, the shared Fractions.  Each distinct denominator text is
checked once, and ``FiniteSeq.from_columns`` gets the numerators,
denominator texts and their ints, so only ``sequences`` chooses the common
denominator.  Json entries are keyed only after their type check: True == 1
and 1.0 == 1 would key as 1.  A ValueError sends the text to the walk, the
reference for values and errors: the format's cells, (piece, line) pairs
that raise its own errors in input order.  The walk checks each token by
``sequences._ratio``, the one rule by which text becomes a rational, which
``as_rational`` also calls for every string scalar: ``isascii()`` and then
``isdigit()`` on the numerator past its sign and on the denominator; no
pattern is compiled.  The scan may decline a valid text, never accept one
the walk rejects.
``render_json`` writes each list of entry texts with one join into the result
itself.

Every user-facing rational is rendered as "p/q" (plain "p" for integers),
never as a decimal.  Reports share the versioned schema tag "seqcalc/1" and
a stable field order, so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import json
from itertools import repeat
from operator import itemgetter

from .errors import FormatError, NonContiguousIndex, quoted
from .lagrange import Polynomial, render_coefficients
from .operators import render_terms
from .sequences import FiniteSeq, Texts, _ratio, format_items, format_rational, format_sequence

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator
    from fractions import Fraction

    from .analysis import ConvexityReport, MonotonicityReport
    from .operators import OperatorPoly
    from .verify import CheckReport

SCHEMA = "seqcalc/1"


def _plain(text: str) -> bool:
    """Whether int() takes text's whitespace-free words exactly where they match [+-]?[0-9]+."""
    return text.isascii() and "_" not in text


def parse_integer(text: str) -> int:
    """int() of ASCII text only: int() alone also reads "٣" as 3 and "2_0" as 20."""
    if not _plain(text):
        raise ValueError(f"not an integer: {quoted(text)}")
    return int(text)


def _shape(fits: bool) -> None:
    """ValueError unless the text fits the shape the scan reads: the walk reads it instead."""
    if not fits:
        raise ValueError("outside the scanned shape")


def _columns(parts: Iterable[tuple]) -> FiniteSeq:
    """The sequence of tokens' parts (numerator, "/" or "", denominator or ""), or ValueError."""
    parts = list(parts)
    nums, keys = list(map(int, map(itemgetter(0), parts))), list(map(itemgetter(2), parts))
    dens = {key: int(key or 1) for key in set(keys)}
    _shape(all(map(str.isdigit, filter(None, dens))) and 0 not in dens.values())
    return FiniteSeq.from_columns(nums, keys, dens)


def _halves(tokens: Iterable[str]) -> Iterator[tuple]:
    """Each token's parts: numerator, "/" or "", denominator or ""."""
    return map(str.partition, tokens, repeat("/"))


def _scan(tokens: list, slashed: bool, split: Callable[[Iterable], Iterable[tuple]]) -> FiniteSeq:
    """The sequence of whitespace-free _plain tokens, none ending in "/", or ValueError: a token
    outside the grammar or past int()'s digit limit, or a 0 denominator.

    Where no token holds "/" (slashed is False), the items are the tokens' ints over 1.  Else
    ``_columns`` reads the parts, as split gives them, of the distinct tokens in first-occurrence
    order: where none repeats that is the sequence, else a table hands their items back in input
    order.
    """
    if not slashed:
        return FiniteSeq.from_scaled(list(map(int, tokens)), 1)
    distinct = dict.fromkeys(tokens)
    seq = _columns(split(distinct))
    if len(distinct) == len(tokens):
        return seq
    items, den = seq.scaled()
    table = dict(zip(distinct, items))
    return FiniteSeq.from_scaled(list(map(table.__getitem__, tokens)), den)


def _read(
    tokens: Callable[[], tuple[list, bool]],
    cells: Iterable[tuple[str, int | None]],
    split: Callable[[Iterable], Iterable[tuple]] = _halves,
) -> FiniteSeq:
    """The scan of tokens(), or where that raises ValueError, the walk of cells."""
    try:
        return _scan(*tokens(), split)
    except ValueError:
        pass  # the walk runs outside the handler, so the scan's lists are freed
    return FiniteSeq.from_ratios([_ratio(piece, line) for piece, line in cells])


def _slashed(joined: str) -> bool:
    """Whether the ","-joined tokens hold "/", or ValueError where one ends in it, as "1/" does."""
    _shape("/," not in joined and joined[-1:] != "/")
    return "/" in joined


def _checked(tokens: list, joined: str) -> tuple[list, bool]:
    """(tokens, whether any holds "/"), where joined, their strings stripped and ","-joined, is
    _plain and holds no whitespace."""
    _shape(_plain(joined) and len(joined.split()) <= 1)  # "" fails int()
    return tokens, _slashed(joined)


def _inline_tokens(pieces: list[str]) -> tuple[list, bool]:
    tokens = list(map(str.strip, pieces))
    return _checked(tokens, ",".join(tokens))


def parse_inline(text: str, line: int | None = None) -> FiniteSeq:
    """Comma-separated rationals; a one-row csv passes its line number."""
    pieces = text.split(",") if text.strip() else []
    return _read(lambda: _inline_tokens(pieces), zip(pieces, repeat(line)))


def _csv_cells(lines: list[str]) -> Iterator[tuple[str, int]]:
    for number, raw in enumerate(lines, start=1):
        if "," in raw:
            raise FormatError("unexpected comma in multi-row csv", number)
        if line := raw.strip():
            yield line, number


def _csv_tokens(lines: list[str]) -> tuple[list, bool]:
    tokens = list(filter(None, map(str.strip, lines)))
    return _checked(tokens, ",".join(tokens))


def parse_csv(text: str) -> FiniteSeq:
    lines = text.splitlines()
    if "," in text:
        rows = [(line, n) for n, raw in enumerate(lines, start=1) if (line := raw.strip())]
        if len(rows) == 1:
            return parse_inline(*rows[0])  # a one-row csv
    return _read(lambda: _csv_tokens(lines), _csv_cells(lines))


def _json_tokens(data: list) -> tuple[list, bool]:
    """The entries, strings stripped where one holds whitespace; typed before any is keyed,
    since True == 1 and 1.0 == 1 key as 1 does."""
    _shape(set(map(type, data)) <= {int, str})
    joined = ",".join(filter(str.__instancecheck__, data))
    if len(f",{joined},".split()) > 1:
        data = [x.strip() if type(x) is str else x for x in data]
        joined = ",".join(filter(str.__instancecheck__, data))
    return _checked(data, joined)


def _json_halves(tokens: Iterable) -> list[tuple]:
    """Each token's parts, as ``_halves`` gives them, an int's being (int, "", "")."""
    return [x.partition("/") if type(x) is str else (x, "", "") for x in tokens]


def _json_cells(data: list) -> Iterator[tuple[str, None]]:
    for item in data:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise FormatError(f"json entries must be integers or 'p/q' strings, got {quoted(item)}")
        yield str(item), None


def parse_json(text: str) -> FiniteSeq:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid json: {exc.msg}", exc.lineno) from None
    except ValueError:
        raise FormatError("json integer has too many digits to parse") from None
    except RecursionError:
        raise FormatError("json arrays are nested too deeply to parse") from None
    if not isinstance(data, list):
        raise FormatError("json sequence must be an array")
    return _read(lambda: _json_tokens(data), _json_cells(data), _json_halves)


def _bfile_tokens(lines: list[str]) -> tuple[list, bool]:
    """The value fields of the nonblank lines past the leading comments, each of two fields (a
    later comment line fails int()), split at once with a "," field between lines."""
    head = 0
    while head < len(lines) and lines[head].strip()[:1] in ("", "#"):
        head += 1
    rows = list(filter(str.strip, lines[head:]))
    body = " , ".join(rows)
    fields = body.split()  # index, value, ",", index, value, ",", ...: a "," elsewhere fails int()
    _shape(_plain(body) and len(fields) == 3 * len(rows) - 1 and fields[2::3] == [","] * (len(rows) - 1))
    index = list(map(int, fields[0::3]))
    first = index[0] if index else 0
    _shape(index == list(range(first, first + len(index))))
    values = fields[1::3]
    return values, _slashed(",".join(values))


def _bfile_cells(lines: list[str]) -> Iterator[tuple[str, int]]:
    expected = None
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise FormatError(f"expected 'index value', got {quoted(line)}", number)
        try:
            index = parse_integer(fields[0])
        except ValueError:
            raise FormatError(f"bad index {quoted(fields[0])}", number) from None
        if expected is not None and index != expected:
            raise NonContiguousIndex(expected, index, number)
        expected = index + 1
        yield fields[1], number


def parse_bfile(text: str) -> FiniteSeq:
    lines = text.splitlines()
    return _read(lambda: _bfile_tokens(lines), _bfile_cells(lines))


_PARSERS = {
    "inline": parse_inline,
    "csv": parse_csv,
    "json": parse_json,
    "bfile": parse_bfile,
}

FORMATS = tuple(_PARSERS)


def parse_sequence_text(text: str, source_format: str) -> FiniteSeq:
    if source_format not in _PARSERS:
        raise FormatError(
            f"unknown sequence format {quoted(source_format)}; known: {', '.join(FORMATS)}"
        )
    return _PARSERS[source_format](text)


def load_sequence(spec_text: str) -> FiniteSeq:
    """Resolve a --seq argument: inline:1,2,3 | csv:path | json:path | bfile:path."""
    tag, _, rest = spec_text.partition(":")
    if tag not in FORMATS:
        raise FormatError(f"sequence spec must start with one of {FORMATS}, got {quoted(tag)}")
    if tag == "inline":
        return parse_inline(rest)
    try:
        with open(rest, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {quoted(rest)}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FormatError(f"cannot read {quoted(rest)}: not UTF-8 text") from None
    except ValueError as exc:  # a NUL byte in the path, which the OS cannot take
        raise FormatError(f"cannot read {quoted(rest)}: {exc}") from None
    return _PARSERS[tag](text)


def render_sequence(seq: FiniteSeq, target_format: str) -> str:
    """Inverse of parse_sequence_text for every supported format."""
    if target_format == "inline":
        return ",".join(format_sequence(seq))
    if target_format == "csv":
        return "\n".join(format_sequence(seq)) + ("\n" if len(seq) else "")
    if target_format == "json":
        return "[" + ", ".join(f'"{t}"' if "/" in t else t for t in format_sequence(seq)) + "]"
    if target_format == "bfile":
        return "".join(f"{i} {t}\n" for i, t in enumerate(format_sequence(seq), start=1))
    raise FormatError(f"unknown sequence format {quoted(target_format)}")


# ---------------------------------------------------------------------------
# JSON reports


def _report(kind: str, **fields: object) -> dict:
    """A report: the schema tag and kind, then fields in the order given."""
    return {"schema": SCHEMA, "kind": kind, **fields}


def sequence_payload(seq: FiniteSeq) -> dict:
    return _report("sequence", values=format_sequence(seq))


def rational_payload(value: Fraction) -> dict:
    return _report("rational", value=format_rational(value))


def operator_payload(poly: OperatorPoly) -> dict:
    ordered = poly.ordered_terms()
    terms = [{"top_power": a, "bottom_power": b, "coeff": text} for a, b, text in ordered]
    return _report("operator", text=render_terms(ordered), terms=terms)


def polynomial_payload(poly: Polynomial) -> dict:
    texts = format_items(*poly.scaled())
    text = render_coefficients(texts)
    return _report("polynomial", text=text, degree=poly.degree, coefficients=texts)


def classification_payload(
    monotonicity: MonotonicityReport, convexity: ConvexityReport | None
) -> dict:
    convex = None if convexity is None else {
        **convexity._asdict(), "second_derivative": format_sequence(convexity.second_derivative)
    }
    return _report("classification", monotonicity=monotonicity._asdict(), convexity=convex)


def check_payload(report: CheckReport) -> dict:
    return report._asdict()  # failures, a tuple, is written as a json array


def verification_payload(reports: list[CheckReport]) -> dict:
    passed = all(r.passed for r in reports)
    return _report("verification", reports=list(map(check_payload, reports)), all_passed=passed)


_ENCODE = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps with those separators


def _write_json(value: object, pieces: list[str]) -> None:
    """Add value's compact JSON text to pieces, whose '","'-join is the whole text.

    A nonempty ``Texts`` list adds its entries as pieces of their own: they never
    need escaping, and the text around them is glued onto its end entries.
    """
    if isinstance(value, dict):
        pieces[-1] += "{"
        for i, (key, item) in enumerate(value.items()):
            pieces[-1] += f'{"," if i else ""}{_ENCODE(key)}:'
            _write_json(item, pieces)
        pieces[-1] += "}"
    elif isinstance(value, Texts) and value:
        pieces[-1] += f'["{value[0]}'
        pieces.extend(value[1:])
        pieces[-1] += '"]'
    else:
        pieces[-1] += _ENCODE(value)


def render_json(payload: dict) -> str:
    """json.dumps(payload, separators=(",", ":")), made by one join over the entry texts."""
    pieces = [""]
    _write_json(payload, pieces)
    return '","'.join(pieces)

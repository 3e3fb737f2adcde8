"""Sequence ingestion and JSON report rendering.

Four source formats are understood:

    inline  comma-separated rationals:      1,3/2,-2
    csv     one rational per line, or a single comma-separated row
    json    array of integers / "p/q" strings
    bfile   OEIS-style lines "index value" with contiguous ascending
            indices ("#" comments and blank lines ignored); re-based to 1

Every user-facing rational is rendered as "p/q" (plain "p" for integers),
never as a decimal.  Reports share the versioned schema tag "seqcalc/1" and
a stable field order, so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import FormatError, NonContiguousIndex, quoted
from .lagrange import Polynomial, render_coefficients
from .operators import render_terms
from .sequences import FiniteSeq, format_items, format_rational, format_sequence

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .analysis import ConvexityReport, MonotonicityReport
    from .operators import OperatorPoly
    from .verify import CheckReport

SCHEMA = "seqcalc/1"

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)  # without it \d takes "١"


def parse_integer(text: str) -> int:
    """int() of ASCII text only: int() alone also reads "٣" as 3 and "2_0" as 20."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _ratio(text: str, line: int | None = None) -> tuple[int, int]:
    """(numerator, denominator) of a rational literal as written, not reduced."""
    token = text.strip()
    match = _RATIONAL_RE.match(token)
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


def parse_rational(text: str, line: int | None = None) -> Fraction:
    return Fraction(*_ratio(text, line))


def parse_inline(text: str) -> FiniteSeq:
    body = text.strip()
    if not body:
        return FiniteSeq()
    return FiniteSeq.from_ratios([_ratio(piece) for piece in body.split(",")])


def parse_csv(text: str) -> FiniteSeq:
    rows = [
        (number, line)
        for number, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip())
    ]
    if not rows:
        return FiniteSeq()
    if len(rows) == 1 and "," in rows[0][1]:
        number, line = rows[0]
        return FiniteSeq.from_ratios([_ratio(piece, number) for piece in line.split(",")])
    ratios = []
    for number, line in rows:
        if "," in line:
            raise FormatError("unexpected comma in multi-row csv", number)
        ratios.append(_ratio(line, number))
    return FiniteSeq.from_ratios(ratios)


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
    ratios = []
    for item in data:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise FormatError(f"json entries must be integers or 'p/q' strings, got {quoted(item)}")
        ratios.append((item, 1) if isinstance(item, int) else _ratio(item))
    return FiniteSeq.from_ratios(ratios)


def parse_bfile(text: str) -> FiniteSeq:
    ratios = []
    expected = None
    for number, raw in enumerate(text.splitlines(), start=1):
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
        ratios.append(_ratio(fields[1], number))
    return FiniteSeq.from_ratios(ratios)


_PARSERS = {
    "inline": parse_inline,
    "csv": parse_csv,
    "json": parse_json,
    "bfile": parse_bfile,
}

FORMATS = tuple(_PARSERS)


def parse_sequence_text(text: str, source_format: str) -> FiniteSeq:
    try:
        parser = _PARSERS[source_format]
    except KeyError:
        raise FormatError(
            f"unknown sequence format {quoted(source_format)}; known: {', '.join(FORMATS)}"
        ) from None
    return parser(text)


def load_sequence(spec_text: str) -> FiniteSeq:
    """Resolve a --seq argument: inline:1,2,3 | csv:path | json:path | bfile:path."""
    tag, _, rest = spec_text.partition(":")
    if tag not in FORMATS:
        raise FormatError(f"sequence spec must start with one of {FORMATS}, got {quoted(tag)}")
    if tag == "inline":
        return parse_sequence_text(rest, "inline")
    try:
        with open(rest, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {quoted(rest)}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FormatError(f"cannot read {quoted(rest)}: not UTF-8 text") from None
    except ValueError as exc:  # a NUL byte in the path, which the OS cannot take
        raise FormatError(f"cannot read {quoted(rest)}: {exc}") from None
    return parse_sequence_text(text, tag)


def render_sequence(seq: FiniteSeq, target_format: str) -> str:
    """Inverse of parse_sequence_text for every supported format."""
    if target_format == "inline":
        return ",".join(format_sequence(seq))
    if target_format == "csv":
        return "\n".join(format_sequence(seq)) + ("\n" if len(seq) else "")
    if target_format == "json":
        texts = format_sequence(seq)
        return "[" + ", ".join(f'"{t}"' if "/" in t else t for t in texts) + "]"
    if target_format == "bfile":
        lines = [f"{i} {t}" for i, t in enumerate(format_sequence(seq), start=1)]
        return "\n".join(lines) + ("\n" if lines else "")
    raise FormatError(f"unknown sequence format {quoted(target_format)}")


# ---------------------------------------------------------------------------
# JSON reports


def sequence_payload(seq: FiniteSeq) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "sequence",
        "values": format_sequence(seq),
    }


def rational_payload(value: Fraction) -> dict:
    return {"schema": SCHEMA, "kind": "rational", "value": format_rational(value)}


def operator_payload(poly: OperatorPoly) -> dict:
    ordered = poly.ordered_terms()
    return {
        "schema": SCHEMA,
        "kind": "operator",
        "text": render_terms(ordered),
        "terms": [{"top_power": a, "bottom_power": b, "coeff": text} for a, b, text in ordered],
    }


def polynomial_payload(poly: Polynomial) -> dict:
    texts = format_items(*poly.scaled())
    return {
        "schema": SCHEMA,
        "kind": "polynomial",
        "text": render_coefficients(texts),
        "degree": poly.degree,
        "coefficients": texts,
    }


def monotonicity_payload(report: MonotonicityReport) -> dict:
    return report._asdict()


def convexity_payload(report: ConvexityReport) -> dict:
    return {**report._asdict(), "second_derivative": format_sequence(report.second_derivative)}


def classification_payload(
    monotonicity: MonotonicityReport, convexity: ConvexityReport | None
) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "classification",
        "monotonicity": monotonicity_payload(monotonicity),
        "convexity": convexity_payload(convexity) if convexity is not None else None,
    }


def check_payload(report: CheckReport) -> dict:
    return report._asdict()  # failures, a tuple, is written as a json array


def verification_payload(reports: list[CheckReport]) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "verification",
        "reports": [check_payload(r) for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))

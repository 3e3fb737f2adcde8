"""Exception hierarchy shared by every seqcalc module.

Two families matter to the CLI: ``UsageError`` (bad input text, exit code 2)
and ``DomainError`` (structurally valid input that violates an operation's
precondition, exit code 3).
"""

from __future__ import annotations

from fractions import Fraction

QUOTE_CHARS = 40

TOO_MANY_DIGITS = "a number in the result has too many digits to write as text"
"""FormatError's message where library text passes Python's int/str digit limit."""


def _digits(n: int) -> tuple[str, int]:
    """(str(n), 0); past the int/str digit limit, whose str raises, a prefix and the digits cut."""
    try:
        return str(n), 0
    except ValueError:  # 0.30102999 < log10(2), so 41 or more digits are kept
        cut = (abs(n).bit_length() - 1) * 30102999 // 10**8 - QUOTE_CHARS
        return ("-" if n < 0 else "") + str(abs(n) // 10**cut), cut


def quoted(value: object) -> str:
    """A value from the input as a message writes it, cut to its first QUOTE_CHARS characters.

    An int or a Fraction is written as "p" or "p/q", the rule for every
    user-facing rational; anything else as its repr.  A longer text is quoted
    as its prefix plus its total length, so one bad token cannot flood
    stderr.  A number past Python's int/str digit limit, whose text raises,
    is quoted the same way, numerator and denominator each counted in full;
    any other value whose repr raises there is written by its type name.
    """
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        (num, cut), (den, den_cut) = _digits(value.numerator), _digits(value.denominator)
        text = short = num if den == "1" else f"{num}/{den}"
        size = len(text) + cut + den_cut
    else:
        try:
            short = repr(value)
        except ValueError:  # it holds an int past the digit limit
            return f"<{type(value).__name__} past the digit limit>"
        text = value if isinstance(value, str) else short
        size = len(text)
    if size <= QUOTE_CHARS:
        return short
    return f"{text[:QUOTE_CHARS]!r}... ({size} characters)"


class SeqCalcError(Exception):
    """Base class for all seqcalc errors."""


class DomainError(SeqCalcError):
    """A precondition of an operation was violated."""


class UsageError(SeqCalcError):
    """Input text could not be understood."""


class LengthMismatch(DomainError):
    def __init__(self, left: int, right: int, what: str = "sequences"):
        super().__init__(f"{what} have different lengths: {left} != {right}")


class ZeroEntry(DomainError):
    def __init__(self, index: int):
        super().__init__(f"zero entry at index {index}")
        self.index = index


class OutOfRange(DomainError):
    """An index, bound, window or order outside the range an operation allows."""


class InvertedBounds(DomainError):
    def __init__(self, a: int, b: int):
        super().__init__(f"lower bound {quoted(a)} exceeds upper bound {quoted(b)}")


class TooShort(DomainError):
    def __init__(self, length: int, minimum: int):
        super().__init__(f"sequence of length {length} is too short (need >= {minimum})")


class NegativePower(DomainError):
    def __init__(self, exponent: int):
        super().__init__(f"operator powers must be nonnegative, got {quoted(exponent)}")


class BadParameter(DomainError):
    """An argument an operation cannot take, such as a zero divisor or a too-large exponent."""


class ParseError(UsageError):
    """Operator expression syntax error, with byte offset and expected tokens.

    The text found is written bare, or through ``quoted`` past QUOTE_CHARS.
    """

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        expect = " or ".join(expected)
        text = found if len(found) <= QUOTE_CHARS else quoted(found)
        super().__init__(f"at offset {offset}: expected {expect}, found {text}")
        self.offset = offset
        self.expected = expected
        self.found = found


class FormatError(UsageError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NonContiguousIndex(FormatError):
    def __init__(self, expected: int, got: int, line: int):
        super().__init__(f"expected index {quoted(expected)}, got {quoted(got)}", line)
        self.expected = expected
        self.got = got


class UnknownCheck(UsageError):
    def __init__(self, name: str, catalog: tuple[str, ...]):
        super().__init__(f"unknown check {quoted(name)}; known: {', '.join(catalog)}")

"""Exception hierarchy shared by every seqcalc module.

Two families matter to the CLI: ``UsageError`` (bad input text, exit code 2)
and ``DomainError`` (structurally valid input that violates an operation's
precondition, exit code 3).
"""

from __future__ import annotations

QUOTE_CHARS = 40


def quoted(value: object) -> str:
    """repr of a value from the input, cut to its first QUOTE_CHARS characters.

    A longer string (or repr, for a non-string) is quoted as its prefix plus
    its total length, so one bad token cannot flood stderr.  An int past
    Python's int/str digit limit, whose repr raises, is quoted the same way.
    """
    try:
        text = value if isinstance(value, str) else repr(value)
        size = len(text)
    except ValueError:  # the digit limit; 0.30102999 < log10(2), so 41 or more digits are kept
        cut = (abs(value).bit_length() - 1) * 30102999 // 10**8 - QUOTE_CHARS
        text = ("-" if value < 0 else "") + str(abs(value) // 10**cut)
        size = len(text) + cut
    if size <= QUOTE_CHARS:
        return repr(value)
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
        self.left = left
        self.right = right


class ZeroEntry(DomainError):
    def __init__(self, index: int):
        super().__init__(f"zero entry at index {index}")
        self.index = index


class OutOfRange(DomainError):
    """An index, bound, window or order outside the range an operation allows."""


class InvertedBounds(DomainError):
    def __init__(self, a: int, b: int):
        super().__init__(f"lower bound {quoted(a)} exceeds upper bound {quoted(b)}")
        self.a = a
        self.b = b


class TooShort(DomainError):
    def __init__(self, length: int, minimum: int):
        super().__init__(f"sequence of length {length} is too short (need >= {minimum})")
        self.length = length
        self.minimum = minimum


class NegativePower(DomainError):
    def __init__(self, exponent: int):
        super().__init__(f"operator powers must be nonnegative, got {exponent}")
        self.exponent = exponent


class BadParameter(DomainError):
    """An argument an operation cannot take, such as a zero divisor or a too-large exponent."""


class ParseError(UsageError):
    """Operator expression syntax error, with byte offset and expected tokens."""

    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        expect = " or ".join(expected)
        super().__init__(f"at offset {offset}: expected {expect}, found {found}")
        self.offset = offset
        self.expected = expected
        self.found = found


class FormatError(UsageError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


class NonContiguousIndex(UsageError):
    def __init__(self, expected: int, got: int, line: int):
        super().__init__(f"line {line}: expected index {quoted(expected)}, got {quoted(got)}")
        self.expected = expected
        self.got = got
        self.line = line


class UnknownCheck(UsageError):
    def __init__(self, name: str, catalog: tuple[str, ...]):
        super().__init__(f"unknown check {quoted(name)}; known: {', '.join(catalog)}")
        self.name = name

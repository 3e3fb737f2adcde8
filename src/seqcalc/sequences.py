"""Exact rational scalars and finite sequences.

The single scalar type of the whole library is ``fractions.Fraction``
(aliased ``Rational``): arbitrary precision, always stored with a positive
denominator and gcd(|num|, den) = 1, so every identity downstream can be
asserted with exact equality.

``FiniteSeq`` is an immutable tuple of rationals with 1-based public
indexing, written S(1)...S(n).  Length 0 is the empty sequence; it is a
legal value everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import BadParameter, FormatError, LengthMismatch, OutOfRange, ZeroEntry

Rational = Fraction

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Fraction) -> str:
    """The one place a rational becomes text; Python's int/str digit limit raises FormatError."""
    try:
        return str(value)
    except ValueError:
        raise FormatError("a number in the result has too many digits to write as text") from None


def format_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Signed sum of nonzero (coefficient, monomial) terms; "" is the monomial 1."""
    pieces = []
    for coeff, mono in terms:
        body = format_rational(abs(coeff))
        if mono:
            body = mono if abs(coeff) == 1 else f"{body}*{mono}"
        if pieces:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
        else:
            pieces.append(f"-{body}" if coeff < 0 else body)
    return "".join(pieces) or "0"


@dataclass(frozen=True)
class FiniteSeq:
    """An immutable finite sequence of exact rationals.

    Elementwise arithmetic requires equal lengths.  ``S * x`` with a scalar
    ``x`` scales every entry, which agrees with multiplying by the constant
    sequence (x, ..., x).
    """

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[RationalLike] = ()):
        object.__setattr__(self, "values", tuple(as_rational(v) for v in values))

    @staticmethod
    def of(*values: RationalLike) -> FiniteSeq:
        return FiniteSeq(values)

    @staticmethod
    def constant(value: RationalLike, length: int) -> FiniteSeq:
        return FiniteSeq([as_rational(value)] * length)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __bool__(self) -> bool:
        return len(self.values) > 0

    def at(self, i: int) -> Fraction:
        """1-based access: at(1) is the first term."""
        if not 1 <= i <= len(self.values):
            raise OutOfRange(f"index {i} outside 1..{len(self.values)}")
        return self.values[i - 1]

    def prefix(self, k: int) -> FiniteSeq:
        """First k terms; prefix(n - 1) is the top of a length-n sequence."""
        if not 0 <= k <= len(self.values):
            raise OutOfRange(f"prefix length {k} outside 0..{len(self.values)}")
        return FiniteSeq(self.values[:k])

    def __add__(self, other: FiniteSeq) -> FiniteSeq:
        if not isinstance(other, FiniteSeq):
            return NotImplemented
        if len(self) != len(other):
            raise LengthMismatch(len(self), len(other))
        return FiniteSeq(a + b for a, b in zip(self.values, other.values))

    def __sub__(self, other: FiniteSeq) -> FiniteSeq:
        if not isinstance(other, FiniteSeq):
            return NotImplemented
        if len(self) != len(other):
            raise LengthMismatch(len(self), len(other))
        return FiniteSeq(a - b for a, b in zip(self.values, other.values))

    def __neg__(self) -> FiniteSeq:
        return FiniteSeq(-a for a in self.values)

    def __mul__(self, other: Union[FiniteSeq, RationalLike]) -> FiniteSeq:
        if isinstance(other, FiniteSeq):
            if len(self) != len(other):
                raise LengthMismatch(len(self), len(other))
            return FiniteSeq(a * b for a, b in zip(self.values, other.values))
        if not isinstance(other, (int, str, Fraction)):
            return NotImplemented
        return FiniteSeq(a * as_rational(other) for a in self.values)

    def __rmul__(self, other: RationalLike) -> FiniteSeq:
        return self.__mul__(other)

    def __truediv__(self, other: Union[FiniteSeq, RationalLike]) -> FiniteSeq:
        if isinstance(other, FiniteSeq):
            return self * other.inverse()
        scalar = as_rational(other)
        if scalar == 0:
            raise BadParameter("division of a sequence by the scalar zero")
        return FiniteSeq(a / scalar for a in self.values)

    def inverse(self) -> FiniteSeq:
        """Termwise reciprocal; rejects the first zero entry by index."""
        for i, a in enumerate(self.values, start=1):
            if a == 0:
                raise ZeroEntry(i)
        return FiniteSeq(1 / a for a in self.values)

    def __repr__(self) -> str:
        inner = ", ".join(str(v) for v in self.values)
        return f"FiniteSeq(({inner}))"


EMPTY = FiniteSeq()

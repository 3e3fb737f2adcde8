"""Exact rational scalars and finite sequences.

The single scalar type of the whole library is ``fractions.Fraction``:
arbitrary precision, always stored with a positive denominator and
gcd(|num|, den) = 1, so every identity downstream can be asserted with exact
equality.

``FiniteSeq`` is an immutable sequence of rationals with 1-based public
indexing, written S(1)...S(n).  Length 0 is the empty sequence; it is a
legal value everywhere.

A sequence's working form is integers over one common denominator:
``scaled()`` returns ``(items, den)`` with entry i equal to ``items[i] / den``
and ``den`` a positive int.  A sequence holds that form and nothing else.
A constructor here builds that form from entries by one of two rules.
``FiniteSeq(values)`` and ``from_ratios`` (the verifier's instances, the
parsers' per-token walk) hand ``(p, q)`` pairs to ``_working_form``; the
parsers' scan hands columns (numerators, denominator keys and a dict of their
ints) to ``from_columns``.  Under both, the items are plain ints while the lcm
of the entry denominators fits in ``DEN_BITS`` bits; past that bound they are
the entries' own Fractions over ``den = 1``, and the same kernel loops run on
them.
Kernels, slices and elementwise arithmetic build the form directly.
``values``, the public tuple of reduced Fractions, is built from it on each
call.

``DEN_BITS`` bounds only the denominators that those constructors choose.
Kernels and arithmetic fold denominators exactly and keep int items past the
bound: sums and differences align two sequences to lcm(d1, d2), products
multiply over d1 * d2, ``OperatorPoly.apply`` and ``calculus.antiderivative``
fold a scalar's denominator into ``den`` (every application of ``M`` doubles
it), and equality compares x * d2 == y * d1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from .errors import BadParameter, FormatError, LengthMismatch, OutOfRange, ZeroEntry

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence
    from typing import Union

    RationalLike = Union[Fraction, int, str]

DEN_BITS = 64
"""Largest bit length of a common denominator chosen for integer items.

One lcm for a whole sequence grows with its number of distinct denominators:
on 2000 entries 1/p with distinct primes p it has thousands of digits, and
every entry would carry them.  Past this bound the items are the entries'
Fractions.  Only a constructor that takes the lcm over entries checks it: a
kernel or an arithmetic operator that folds denominators into ``den`` keeps
int items over whatever ``den`` it reaches.
"""


def _common_den(dens: Iterable[int]) -> int:
    """The lcm of dens while it fits in DEN_BITS bits, else 0: the items are then Fractions."""
    den = 1
    for d in dens:
        den = lcm(den, d)
        if den.bit_length() > DEN_BITS:
            return 0
    return den


def _working_form(ratios: Sequence[tuple[int, int]]) -> tuple[Sequence, int]:
    """(items, den) of the entries p / q over (p, q) pairs with q > 0, not necessarily reduced.

    The items are the ints p * (den // q) over ``_common_den`` of the distinct q,
    else the entries' Fractions over den = 1.
    """
    den = _common_den({q for _, q in ratios})
    if not den:
        return [Fraction(p, q) for p, q in ratios], 1
    return [p * (den // q) for p, q in ratios], den


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def over_lcm(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """(ints, d) with value i equal to ints[i] / d, d the lcm of the denominators."""
    # an int already has .numerator and .denominator (= 1): no Fraction
    rationals = [v if type(v) is int else as_rational(v) for v in values]
    d = lcm(*(v.denominator for v in rationals))
    return [v.numerator * (d // v.denominator) for v in rationals], d


class Texts(list):
    """Entry texts that ``format_items`` wrote: ASCII digits, "-" and "/" only."""

    __slots__ = ()


def format_items(items: Iterable, den: int) -> Texts:
    """The text of each items[i] / den, ints or (with den = 1) Fractions.

    The one place a rational becomes text: each entry costs one gcd with den,
    no Fraction is built, and Python's int/str digit limit raises FormatError.
    """
    try:
        if den == 1:
            return Texts(map(str, items))
        texts = Texts()
        for x in items:
            g = gcd(x, den)
            texts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return texts
    except ValueError:
        raise FormatError("a number in the result has too many digits to write as text") from None


def format_rational(value: Fraction) -> str:
    """One rational's text, as ``format_items`` writes it."""
    return format_items([value.numerator], value.denominator)[0]


def format_sequence(seq: FiniteSeq) -> Texts:
    """Every entry's text, written from the working form."""
    return format_items(*seq.scaled())


def format_terms(terms: Iterable[tuple[str, str]]) -> str:
    """Signed sum of nonzero terms, each (coefficient as text, monomial).

    "" is the monomial 1, and a coefficient 1 or -1 is left out before a monomial.
    """
    pieces = []
    for text, mono in terms:
        negative, body = text[0] == "-", text.lstrip("-")
        if mono:
            body = mono if body == "1" else f"{body}*{mono}"
        if pieces:
            pieces.append(f" - {body}" if negative else f" + {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return "".join(pieces) or "0"


class FiniteSeq:
    """An immutable finite sequence of exact rationals.

    Elementwise arithmetic requires equal lengths.  ``S * x`` with a scalar
    ``x`` scales every entry, which agrees with multiplying by the constant
    sequence (x, ..., x).
    """

    __slots__ = ("_items", "_den")

    def __init__(self, values: Iterable[RationalLike] = ()):
        # an int stays an int: like a Fraction it has .numerator and .denominator
        entries = [v if type(v) is int else as_rational(v) for v in values]
        self._items, self._den = _working_form([(v.numerator, v.denominator) for v in entries])

    @staticmethod
    def from_scaled(items: Sequence, den: int) -> FiniteSeq:
        """The sequence items[i] / den, trusted to be a working form (see ``scaled``)."""
        if den != 1 and items and not isinstance(items[-1], int):
            # Fraction items keep den = 1 (only an antiderivative's first item may be an int)
            items, den = [Fraction(x, den) for x in items], 1
        seq = object.__new__(FiniteSeq)
        seq._items, seq._den = items, den
        return seq

    @staticmethod
    def from_ratios(ratios: Sequence[tuple[int, int]]) -> FiniteSeq:
        """The sequence of p / q over (p, q) pairs with q > 0, not necessarily reduced."""
        return FiniteSeq.from_scaled(*_working_form(ratios))

    @staticmethod
    def from_columns(nums: Sequence[int], keys: Sequence, dens: dict) -> FiniteSeq:
        """The sequence nums[i] / dens[keys[i]] over parallel lists nums and keys.

        ``dens`` maps each distinct key to its denominator, an int > 0: a parser
        passes the denominator texts it read and their ints.  The items are ints
        over ``_common_den`` of those ints, each scaled by its key's factor,
        else the entries' Fractions over den = 1.
        """
        den = _common_den(dens.values())
        if not den:
            return FiniteSeq.from_scaled(tuple(map(Fraction, nums, map(dens.__getitem__, keys))), 1)
        scale = {key: den // d for key, d in dens.items()}
        return FiniteSeq.from_scaled(list(map(mul, nums, map(scale.__getitem__, keys))), den)

    def scaled(self) -> tuple[Sequence, int]:
        """The working form (items, den): entry i is items[i] / den, with den > 0.

        A constructor from entries gives int items when the lcm of their
        denominators fits in DEN_BITS bits, else the entries' Fractions over
        den = 1.  Kernels and arithmetic fold denominators into den unbounded.
        """
        return self._items, self._den

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as reduced Fractions, built from the working form on each call."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._items)

    @staticmethod
    def of(*values: RationalLike) -> FiniteSeq:
        return FiniteSeq(values)

    @staticmethod
    def constant(value: RationalLike, length: int) -> FiniteSeq:
        v = as_rational(value)
        return FiniteSeq.from_scaled([v.numerator] * length, v.denominator)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSeq):
            return NotImplemented
        if len(self) != len(other):
            return False
        (x, d1), (y, d2) = self.scaled(), other.scaled()
        return all(a * d2 == b * d1 for a, b in zip(x, y))

    def __hash__(self) -> int:
        return hash(self.values)

    def at(self, i: int) -> Fraction:
        """1-based access: at(1) is the first term."""
        if not 1 <= i <= len(self):
            raise OutOfRange(f"index {i} outside 1..{len(self)}")
        return Fraction(self._items[i - 1], self._den)

    def prefix(self, k: int) -> FiniteSeq:
        """First k terms; prefix(n - 1) is the top of a length-n sequence."""
        if not 0 <= k <= len(self):
            raise OutOfRange(f"prefix length {k} outside 0..{len(self)}")
        return FiniteSeq.from_scaled(self._items[:k], self._den)

    def _combine(self, other: FiniteSeq, op) -> FiniteSeq:
        """Entry by entry ``op`` (add, sub or mul) of two equal-length sequences.

        Sums and differences align the items to lcm(d1, d2); products multiply
        them over d1 * d2, however many bits that denominator takes.  The same
        formula holds for Fraction items over 1: from_scaled turns Fraction
        results over a den other than 1 into Fractions over 1.
        """
        if len(self) != len(other):
            raise LengthMismatch(len(self), len(other))
        (x, d1), (y, d2) = self.scaled(), other.scaled()
        if op is mul:
            den, f1, f2 = d1 * d2, 1, 1
        else:
            den = lcm(d1, d2)
            f1, f2 = den // d1, den // d2
        return FiniteSeq.from_scaled([op(a * f1, b * f2) for a, b in zip(x, y)], den)

    def __add__(self, other: FiniteSeq) -> FiniteSeq:
        if not isinstance(other, FiniteSeq):
            return NotImplemented
        return self._combine(other, add)

    def __sub__(self, other: FiniteSeq) -> FiniteSeq:
        if not isinstance(other, FiniteSeq):
            return NotImplemented
        return self._combine(other, sub)

    def __neg__(self) -> FiniteSeq:
        return self * -1

    def __mul__(self, other: Union[FiniteSeq, RationalLike]) -> FiniteSeq:
        if isinstance(other, FiniteSeq):
            return self._combine(other, mul)
        if not isinstance(other, (int, str, Fraction)):
            return NotImplemented
        return self._combine(FiniteSeq.constant(other, len(self)), mul)

    __rmul__ = __mul__

    def __truediv__(self, other: Union[FiniteSeq, RationalLike]) -> FiniteSeq:
        if isinstance(other, FiniteSeq):
            return self * other.inverse()
        scalar = as_rational(other)
        if scalar == 0:
            raise BadParameter("division of a sequence by the scalar zero")
        return self * (1 / scalar)

    def inverse(self) -> FiniteSeq:
        """Termwise reciprocal; rejects the first zero entry by index."""
        items, den = self.scaled()
        ratios = []
        for i, x in enumerate(items, start=1):
            if x == 0:
                raise ZeroEntry(i)
            # den / x, with x an int or (past DEN_BITS) a Fraction over den = 1
            p, q = den * x.denominator, x.numerator
            ratios.append((p, q) if q > 0 else (-p, -q))
        return FiniteSeq.from_ratios(ratios)

    def __repr__(self) -> str:
        return f"FiniteSeq(({', '.join(format_sequence(self))}))"


EMPTY = FiniteSeq()

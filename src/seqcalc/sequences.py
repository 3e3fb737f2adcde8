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
the entries' own Fractions over ``den = 1``.
Kernels, slices and elementwise arithmetic build the form directly, and
their loops run as C-level ``map``s over ``operator`` functions.

``DEN_BITS`` bounds only the denominators that those constructors choose.
Kernels and arithmetic fold denominators exactly, over int or Fraction items
alike: sums and differences align two sequences to lcm(d1, d2), products
multiply over d1 * d2, ``OperatorPoly.apply`` and ``calculus.antiderivative``
fold a scalar's denominator into ``den`` (every application of ``M`` doubles
it), and equality compares x * d2 == y * d1.  So Fraction items may sit over
any ``den``.  Ints among them only ever form a leading run: each
antiderivative puts its int constant first, and an int plus a Fraction is a
Fraction, so ``antiderivative(antiderivative(S, 1/3), 2/7)`` starts with two.
The last item thus tells the two forms apart.  Nothing divides them back: an
entry leaves the working form as a reduced Fraction only through ``_exits``,
which ``values``, iteration, ``at``, ``format_items`` and ``hash`` use
(``hash(S) == hash(S.values)``).

Text and rationals meet in two functions here.  ``_ratio`` is the one way
text becomes a rational: ``[+-]?[0-9]+(/[0-9]+)?`` in ASCII digits, a nonzero
denominator and Python's int/str digit limit, else a FormatError.  The
readers' walk and ``as_rational``, which every library scalar given as a
string goes through, call it.  ``format_items`` is the one way a rational
becomes text.  It writes int items by one of two loops, chosen once per call
from a fixed sample of the items: one ``str`` of a reduced int per entry, or,
for a wide running sum (an antiderivative past a few hundred digits), one
``Decimal`` stepped through the sum, whose text costs time linear in its
digits where an int's costs quadratic time.
"""

from __future__ import annotations

import sys
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, eq, mul, neg, sub, truediv

from .errors import TOO_MANY_DIGITS, BadParameter, FormatError, LengthMismatch, OutOfRange, ZeroEntry, quoted

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
Fractions over 1.  Only a constructor that takes the lcm over entries checks
it: a kernel or an arithmetic operator that folds denominators into ``den``
keeps its items, ints or Fractions, over whatever ``den`` it reaches.
"""


def _exits(items: Sequence, den: int) -> Iterator[Fraction]:
    """Each entry items[i] / den as a reduced Fraction: the way a value leaves the working form.

    Int items leave as Fraction(x, den).  Where the last item is a Fraction
    (ints there form a leading run), each leaves as x / Fraction(den): a
    Fraction x is already reduced, so Fraction's division takes one gcd, of
    x's numerator with den.  Over den = 1 each is its value already, and
    Fraction(x) copies it with no gcd.
    """
    if items and type(items[-1]) is Fraction:
        if den == 1:
            return map(Fraction, items)
        return map(truediv, items, repeat(Fraction(den)))
    return map(Fraction, items, repeat(den))


def _common_den(dens: Iterable[int]) -> int:
    """The lcm of dens while it fits in DEN_BITS bits, else 0: the items are then Fractions."""
    den = 1
    for d in dens:
        den = lcm(den, d)
        if den.bit_length() > DEN_BITS:
            return 0
    return den


def _zero_den(dens: Iterable[int]) -> BadParameter:
    """The error for entry denominators dens of which one is 0, named by its entry: its lcm with any
    other is 0, so a constructor meets it only in its Fraction fallback."""
    entry = next(i for i, q in enumerate(dens, start=1) if q == 0)
    return BadParameter(f"zero denominator at entry {entry}")


def _working_form(ratios: Sequence[tuple[int, int]]) -> tuple[Sequence, int]:
    """(items, den) of the entries p / q over (p, q) pairs with q > 0, not necessarily reduced.

    The items are the ints p * (den // q) over ``_common_den`` of the distinct q,
    else the entries' Fractions over den = 1.
    """
    den = _common_den({q for _, q in ratios})
    if not den:
        try:
            return [Fraction(p, q) for p, q in ratios], 1
        except ZeroDivisionError:
            raise _zero_den(q for _, q in ratios) from None
    return [p * (den // q) for p, q in ratios], den


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string or Fraction to an exact Fraction.

    An int is the pair (value, 1), and a string is read into its pair by
    ``_ratio``, the readers' rule for one token.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value, 1)
    if isinstance(value, str):
        return Fraction(*_ratio(value))
    raise TypeError(f"cannot interpret {quoted(value)} as an exact rational")


def checked_length(length: int) -> int:
    """A length the caller chose, in 0..sys.maxsize, else OutOfRange."""
    if not 0 <= length <= sys.maxsize:
        raise OutOfRange(f"length {quoted(length)} outside 0..{sys.maxsize}")
    return length


def over_lcm(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """(ints, d) with value i equal to ints[i] / d, d the lcm of the denominators."""
    # an int already has .numerator and .denominator (= 1): no Fraction
    rationals = [v if type(v) is int else as_rational(v) for v in values]
    d = lcm(*(v.denominator for v in rationals))
    return [v.numerator * (d // v.denominator) for v in rationals], d


def _ratio(piece: str, line: int | None = None) -> tuple[int, int]:
    """(p, q) of one rational literal, or its FormatError: the one way text becomes a rational."""
    token = piece.strip()
    num, slash, den = token.partition("/")
    digits = num[1:] if num.startswith(("+", "-")) else num
    # [+-]?[0-9]+(/[0-9]+)? in ASCII: isdigit() alone also takes "٣"
    if not (token.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise FormatError(f"not a rational literal: {quoted(token)}", line)
    try:
        p, q = int(num), int(den or 1)
    except ValueError:
        raise FormatError(f"{len(token)}-character literal has too many digits to parse", line) from None
    if q == 0:
        raise FormatError(f"zero denominator in {quoted(token)}", line)
    return p, q


class Texts(list):
    """Entry texts that ``format_items`` wrote: ASCII digits, "-" and "/" only."""

    __slots__ = ()


RUN_WIDTH_BITS = 672
"""Bit length past which an int item is wide, and up to which a step is narrow, for the run loop.

``str`` of an int takes time quadratic in its digits, a ``Decimal``'s text
linear time, and adding an int step to a ``Decimal`` converts the step.  On
running sums with small steps the run loop's entry costs less than the int
loop's from about 200 digits on (2**672 has 203).
"""
RUN_SAMPLES = 16
"""Items that ``_is_wide_run`` samples, one at the midpoint of each of as many equal slices."""
RUN_QUORUM = 10
"""Sampled items that must be wide with a narrow step for ``format_items`` to take the run loop.

Running sums with half of their steps wide (entries of 20 to 400 digits)
still wrote 7-27 % faster by the run loop, so 10 of 16 leaves room for misses.
"""

# Exact integer arithmetic in Decimals, never the thread's context: no rounding, and a trap if
# one would happen.  Integer sums and exact quotients signal nothing, so no call sets its flags.
_RUN_CONTEXT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])
# Python 3.10 has no int/str digit limit
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _is_wide_run(items: Sequence) -> bool:
    """Whether int items look like a wide running sum: of ``RUN_SAMPLES`` items, one at the
    midpoint of each equal slice, at least ``RUN_QUORUM`` pass ``RUN_WIDTH_BITS`` bits while their
    step from the item before does not.  Fewer than ``2 * RUN_SAMPLES`` items never do, and the
    sample stops once the quorum is out of reach.
    """
    n = len(items)
    if n < 2 * RUN_SAMPLES:
        return False
    misses = 0
    for j in range(1, 2 * RUN_SAMPLES, 2):
        i = j * n // (2 * RUN_SAMPLES)
        x = items[i]
        if x.bit_length() <= RUN_WIDTH_BITS or (x - items[i - 1]).bit_length() > RUN_WIDTH_BITS:
            misses += 1
            if misses > RUN_SAMPLES - RUN_QUORUM:
                return False
    return True


def _run_texts(items: Sequence, den: int) -> Texts:
    """``format_items``' text of int items, written by stepping one Decimal through their sum.

    Each entry adds its step x[i] - x[i-1] to the Decimal, in the exact
    ``_RUN_CONTEXT``, and to the residue x[i] mod den, whose gcd with den is
    gcd(x[i], den); the reduced numerator is the Decimal divided exactly by
    that gcd.  A numerator past Python's int/str digit limit raises
    FormatError, as ``str`` of the int would.  Any int items give the int
    loop's texts; the cost wins only where most steps are narrow.
    """
    add, divide_int = _RUN_CONTEXT.add, _RUN_CONTEXT.divide_int
    limit = _max_str_digits() or sys.maxsize
    texts = Texts()
    run, res = Decimal(), 0
    for step in map(sub, items, chain((0,), items)):
        run = add(run, step)
        res = (res + step) % den
        g = gcd(res, den)
        num = str(run if g == 1 else divide_int(run, g))
        if len(num) > limit and len(num.lstrip("-")) > limit:
            raise FormatError(TOO_MANY_DIGITS)
        texts.append(num if g == den else f"{num}/{den // g}")
    return texts


def format_items(items: Sequence, den: int) -> Texts:
    """The text of each items[i] / den, over int items or a sequence's Fraction items.

    The one place a rational becomes text, and no Fraction is built for int
    items.  Where ``_is_wide_run`` holds they take ``_run_texts``; else each
    int entry costs one gcd with den and one ``str`` of its reduced
    numerator.  Fraction items write their ``_exits``.  Python's int/str
    digit limit raises FormatError.
    """
    try:
        if items and type(items[-1]) is Fraction:
            return Texts(map(str, _exits(items, den)))
        if _is_wide_run(items):
            return _run_texts(items, den)
        texts = Texts()
        for x in items:
            g = gcd(x, den)
            texts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return texts
    except ValueError:
        raise FormatError(TOO_MANY_DIGITS) from None


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
        """The sequence items[i] / den, trusted to be a working form (see ``scaled``).

        The items are kept as given, ints or Fractions, over any den.
        """
        seq = object.__new__(FiniteSeq)
        seq._items, seq._den = items, den
        return seq

    @staticmethod
    def from_ratios(ratios: Sequence[tuple[int, int]]) -> FiniteSeq:
        """The sequence of p / q over (p, q) pairs with q > 0, not necessarily reduced; a q of 0
        is BadParameter."""
        return FiniteSeq.from_scaled(*_working_form(ratios))

    @staticmethod
    def from_columns(nums: Sequence[int], keys: Sequence, dens: dict) -> FiniteSeq:
        """The sequence nums[i] / dens[keys[i]] over parallel lists nums and keys.

        ``dens`` maps each distinct key to its denominator, an int > 0: a parser
        passes the denominator texts it read and their ints.  The items are ints
        over ``_common_den`` of those ints, each scaled by its key's factor,
        else the entries' Fractions over den = 1.  An entry over 0 is BadParameter.
        """
        den = _common_den(dens.values())
        if not den:
            try:
                return FiniteSeq.from_scaled(tuple(map(Fraction, nums, map(dens.__getitem__, keys))), 1)
            except ZeroDivisionError:
                raise _zero_den(map(dens.__getitem__, keys)) from None
        scale = {key: den // d for key, d in dens.items()}
        return FiniteSeq.from_scaled(list(map(mul, nums, map(scale.__getitem__, keys))), den)

    def scaled(self) -> tuple[Sequence, int]:
        """The working form (items, den): entry i is items[i] / den, with den > 0.

        A constructor from entries gives int items when the lcm of their
        denominators fits in DEN_BITS bits, else the entries' Fractions over
        den = 1.  Kernels and arithmetic fold denominators into den unbounded,
        over int and Fraction items alike, and never divide an item back.
        """
        return self._items, self._den

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as reduced Fractions, built from the working form on each call."""
        return tuple(self)

    @staticmethod
    def of(*values: RationalLike) -> FiniteSeq:
        return FiniteSeq(values)

    @staticmethod
    def constant(value: RationalLike, length: int) -> FiniteSeq:
        v = as_rational(value)
        return FiniteSeq.from_scaled([v.numerator] * checked_length(length), v.denominator)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Fraction]:
        return _exits(self._items, self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSeq):
            return NotImplemented
        if len(self) != len(other):
            return False
        (x, d1), (y, d2) = self.scaled(), other.scaled()
        if d1 == d2:
            return all(map(eq, x, y))
        return all(a * d2 == b * d1 for a, b in zip(x, y))

    def __hash__(self) -> int:
        """``hash(self.values)``: the hash of the entries' ``_exits``."""
        return hash(tuple(self))

    def at(self, i: int) -> Fraction:
        """1-based access: at(1) is the first term."""
        if not 1 <= i <= len(self):
            raise OutOfRange(f"index {quoted(i)} outside 1..{len(self)}")
        return next(_exits(self._items[i - 1 : i], self._den))

    def prefix(self, k: int) -> FiniteSeq:
        """First k terms; prefix(n - 1) is the top of a length-n sequence."""
        if not 0 <= k <= len(self):
            raise OutOfRange(f"prefix length {quoted(k)} outside 0..{len(self)}")
        return FiniteSeq.from_scaled(self._items[:k], self._den)

    def _combine(self, other: FiniteSeq, op) -> FiniteSeq:
        """Entry by entry ``op`` (add, sub or mul) of two equal-length sequences.

        Sums and differences align the items to lcm(d1, d2), rescaling only a
        side whose den differs from it; products multiply them over d1 * d2,
        however many bits that denominator takes.  The same formula holds for
        Fraction items, and their results stay over that den.  Any other
        ``other`` is NotImplemented.
        """
        if not isinstance(other, FiniteSeq):
            return NotImplemented
        if len(self) != len(other):
            raise LengthMismatch(len(self), len(other))
        (x, d1), (y, d2) = self.scaled(), other.scaled()
        if op is mul:
            den = d1 * d2
        else:
            den = lcm(d1, d2)
            if d1 != den:
                x = list(map(mul, x, repeat(den // d1)))
            if d2 != den:
                y = list(map(mul, y, repeat(den // d2)))
        return FiniteSeq.from_scaled(list(map(op, x, y)), den)

    def __add__(self, other: FiniteSeq) -> FiniteSeq:
        return self._combine(other, add)

    def __sub__(self, other: FiniteSeq) -> FiniteSeq:
        return self._combine(other, sub)

    def __neg__(self) -> FiniteSeq:
        items, den = self.scaled()
        return FiniteSeq.from_scaled(list(map(neg, items)), den)

    def __mul__(self, other: Union[FiniteSeq, RationalLike]) -> FiniteSeq:
        if not isinstance(other, (int, str, Fraction)):
            return self._combine(other, mul)  # a sequence, else NotImplemented
        # the items times p over den * q, for the scalar p / q
        v = as_rational(other)
        items, den = self.scaled()
        return FiniteSeq.from_scaled(list(map(mul, items, repeat(v.numerator))), den * v.denominator)

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
            # den / x, with x an int or (past DEN_BITS) a Fraction
            p, q = den * x.denominator, x.numerator
            ratios.append((p, q) if q > 0 else (-p, -q))
        return FiniteSeq.from_ratios(ratios)

    def __repr__(self) -> str:
        return f"FiniteSeq(({', '.join(format_sequence(self))}))"


EMPTY = FiniteSeq()

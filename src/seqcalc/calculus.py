"""Discrete derivative, antiderivative and definite integral.

The derivative of S is the difference sequence DS(i) = S(i+1) - S(i); its
right inverse is the cumulative-sum antiderivative whose free constant is
stored at index 1.  The definite integral from a to b is the inclusive sum
of S(a)..S(b).

The antiderivative runs on the working form (see ``sequences``): it puts the
constant c = p / q over lcm(den, q) and takes prefix sums of the items.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm

from .errors import InvertedBounds, OutOfRange, quoted
from .operators import DIFFERENCE
from .sequences import FiniteSeq, as_rational

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .sequences import RationalLike


def derivative(seq: FiniteSeq, order: int = 1) -> FiniteSeq:
    """order-fold difference; empty when order >= len(seq), S itself at order 0."""
    if order < 0:
        raise OutOfRange(f"derivative order must be >= 0, got {quoted(order)}")
    for _ in range(min(order, len(seq))):
        seq = DIFFERENCE.apply(seq)
    return seq


def antiderivative(seq: FiniteSeq, constant: RationalLike = 0) -> FiniteSeq:
    """Cumulative sums of S prefixed by the integration constant.

    The result J has length n+1 with J(1) = constant and
    J(i) = constant + S(1) + ... + S(i-1); derivative(J) == S exactly.
    """
    c = as_rational(constant)
    items, den = seq.scaled()
    common = lcm(den, c.denominator)
    if common != den:
        items = [x * (common // den) for x in items]
    start = c.numerator * (common // c.denominator)
    return FiniteSeq.from_scaled(list(accumulate(items, initial=start)), common)


def definite_integral(seq: FiniteSeq, a: int, b: int) -> Fraction:
    """Inclusive sum S(a) + ... + S(b) with 1 <= a <= b <= len(seq)."""
    n = len(seq)
    if a > b:
        raise InvertedBounds(a, b)
    if a < 1 or b > n:
        raise OutOfRange(f"bounds {quoted(a)}..{quoted(b)} outside 1..{n}")
    items, den = seq.scaled()
    return Fraction(sum(items[a - 1 : b]), den)

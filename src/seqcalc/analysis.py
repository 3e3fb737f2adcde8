"""Sign-based classification of sequences by first and second differences.

Each classifier reads three sign facts of a difference (``_signs``): every
entry is >= 0, every entry is <= 0, and no entry is 0.  Increasing and convex
are the first fact, decreasing and concave the second, constant is both, and
each strict flag is its weak flag with no zero entry.  Convexity is read on
the second difference; continuously convex is strictly convex with a
nowhere-zero first difference.  The collinearity determinant of three
consecutive graph points equals the second difference at that index and
twice the signed triangle area.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .calculus import derivative
from .errors import OutOfRange, TooShort, quoted
from .sequences import FiniteSeq

MonotonicityReport = namedtuple(
    "MonotonicityReport",
    "strictly_increasing strictly_decreasing increasing decreasing constant",
)

ConvexityReport = namedtuple(
    "ConvexityReport",
    "convex concave strictly_convex strictly_concave continuously_convex continuously_concave"
    " second_derivative",
)


def _signs(items) -> tuple[bool, bool, bool]:
    """(every item >= 0, every item <= 0, no item is 0) of a working form's items.

    The den is > 0, so the items carry the entries' signs.
    """
    return all(d >= 0 for d in items), all(d <= 0 for d in items), 0 not in items


def classify_monotonicity(seq: FiniteSeq) -> MonotonicityReport:
    if len(seq) < 2:
        raise TooShort(len(seq), 2)
    increasing, decreasing, nonzero = _signs(derivative(seq).scaled()[0])
    return MonotonicityReport(
        strictly_increasing=increasing and nonzero,
        strictly_decreasing=decreasing and nonzero,
        increasing=increasing,
        decreasing=decreasing,
        constant=increasing and decreasing,
    )


def classify_convexity(seq: FiniteSeq) -> ConvexityReport:
    if len(seq) < 3:
        raise TooShort(len(seq), 3)
    first = derivative(seq)
    second = derivative(first)
    convex, concave, nonzero = _signs(second.scaled()[0])
    strictly_convex = convex and nonzero
    strictly_concave = concave and nonzero
    return ConvexityReport(
        convex=convex,
        concave=concave,
        strictly_convex=strictly_convex,
        strictly_concave=strictly_concave,
        continuously_convex=strictly_convex and 0 not in first.scaled()[0],
        continuously_concave=strictly_concave and 0 not in first.scaled()[0],
        second_derivative=second,
    )


def collinearity_determinant(seq: FiniteSeq, i: int) -> Fraction:
    """det of rows (i, S(i), 1), (i+1, S(i+1), 1), (i+2, S(i+2), 1).

    Zero exactly when the three graph points are collinear; |det|/2 is the
    triangle area; the value equals derivative(seq, 2)(i).  The formula runs
    on the working form, integer x's against items i..i+2, and one Fraction
    divides the result by the common denominator.
    """
    n = len(seq)
    if not 1 <= i <= n - 2:
        raise OutOfRange(f"index {quoted(i)} outside 1..{n - 2}")
    items, den = seq.scaled()
    x = [i, i + 1, i + 2]
    y = items[i - 1 : i + 2]
    det = (
        x[0] * (y[1] - y[2])
        - y[0] * (x[1] - x[2])
        + (x[1] * y[2] - x[2] * y[1])
    )
    return Fraction(det, den)

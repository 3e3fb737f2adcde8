"""Sign-based classification of sequences by first and second differences.

Convexity here means the second difference is everywhere >= 0 (strictly
convex: > 0; continuously convex: strictly convex with a nowhere-zero first
difference).  Concave flags are the same tests on -S.  The collinearity
determinant of three consecutive graph points equals the second difference
at that index and twice the signed triangle area.
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


def classify_monotonicity(seq: FiniteSeq) -> MonotonicityReport:
    if len(seq) < 2:
        raise TooShort(len(seq), 2)
    diffs, _ = derivative(seq).scaled()  # den > 0, so the items carry the signs
    return MonotonicityReport(
        strictly_increasing=all(d > 0 for d in diffs),
        strictly_decreasing=all(d < 0 for d in diffs),
        increasing=all(d >= 0 for d in diffs),
        decreasing=all(d <= 0 for d in diffs),
        constant=all(d == 0 for d in diffs),
    )


def classify_convexity(seq: FiniteSeq) -> ConvexityReport:
    if len(seq) < 3:
        raise TooShort(len(seq), 3)
    first = derivative(seq)
    second = derivative(first)
    d1, _ = first.scaled()  # den > 0, so the items carry the signs
    d2, _ = second.scaled()
    strictly_convex = all(d > 0 for d in d2)
    strictly_concave = all(d < 0 for d in d2)
    nonzero_slope = all(d != 0 for d in d1)
    return ConvexityReport(
        convex=all(d >= 0 for d in d2),
        concave=all(d <= 0 for d in d2),
        strictly_convex=strictly_convex,
        strictly_concave=strictly_concave,
        continuously_convex=strictly_convex and nonzero_slope,
        continuously_concave=strictly_concave and nonzero_slope,
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

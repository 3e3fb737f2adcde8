"""Exact interpolation through consecutive graph points of a sequence.

The nodes n0..n0+m are consecutive integers, so the polynomial through
(j, S(j)) is Newton's forward form sum_k D^k S(n0) * C(x - n0, k), k = 0..m,
with each D^k taken by the operator kernel.  Its k = m term is the law
m! * a_m = D^m S(n0), which also gives a determinant route to higher
derivatives via Cramer's rule:

    D^m S(i) = m! * det(M_S) / det(V)

where V has rows ((i+r)^m, ..., (i+r), 1) and M_S replaces the first column
with S(i+r).  det(V) is a column-reversed Vandermonde determinant, so it is
never zero but equals m! in absolute value only for m <= 2; the bare
det(M_S) therefore does not equal D^m S for m >= 3 (the verifier pins this).
Determinants are evaluated by fraction-free (Bareiss) elimination on
integers: each row is scaled once by the lcm of its denominators, so the
inner loop divides Python ints exactly and one Fraction is built at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from .errors import OutOfRange
from .operators import DIFFERENCE
from .sequences import FiniteSeq, RationalLike, as_rational, format_terms


@dataclass(frozen=True)
class Polynomial:
    """Dense rational coefficients, index k holding the x^k coefficient.

    Trailing zeros are trimmed; the zero polynomial has no coefficients and
    degree -1.
    """

    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Sequence[RationalLike] = ()):
        coeffs = [as_rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return Fraction(0)

    def evaluate(self, x: RationalLike) -> Fraction:
        xq = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * xq + c
        return acc

    def render(self) -> str:
        """Ascending powers, zero terms skipped: "1 - 2*x + x^2"."""
        powers = ("", "x") + tuple(f"x^{k}" for k in range(2, len(self.coefficients)))
        return format_terms((c, x) for c, x in zip(self.coefficients, powers) if c != 0)

    def __repr__(self) -> str:
        return f"<Polynomial {self.render()}>"


def bareiss_determinant(matrix: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Fraction-free determinant; exact for rational entries.

    Each row is scaled to integers by the lcm of its denominators, so every
    elimination step divides exactly with ``//``; the determinant is the last
    pivot over the product of the row scales.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m: list[list[int]] = []
    scale = 1
    for row in matrix:
        entries = [as_rational(v) for v in row]
        d = lcm(*(v.denominator for v in entries))
        scale *= d
        m.append([v.numerator * (d // v.denominator) for v in entries])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, pivot_tail = m[k][k], m[k][k + 1 :]
        for row in m[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1 :], pivot_tail)]
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scale)


def _check_window(seq: FiniteSeq, start: int, m: int) -> None:
    if m < 0:
        raise OutOfRange(f"order must be >= 0, got {m}")
    if start < 1 or start + m > len(seq):
        raise OutOfRange(
            f"window {start}..{start + m} outside sequence of length {len(seq)}"
        )


def lagrange_poly(seq: FiniteSeq, n0: int, m: int) -> Polynomial:
    """Unique polynomial of degree <= m through (j, S(j)), j = n0..n0+m."""
    _check_window(seq, n0, m)
    items, den = seq.scaled()
    window = FiniteSeq.from_scaled(items[n0 - 1 : n0 + m], den)
    diffs = [window.at(1)]
    for _ in range(m):
        window = DIFFERENCE.apply(window)
        diffs.append(window.at(1))
    coeffs: list[Fraction] = []
    for k in range(m, -1, -1):
        # coeffs <- coeffs * (x - (n0 + k)) + D^k S(n0) / k!, ascending powers
        node = n0 + k
        coeffs = [low - high * node for low, high in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[k] / factorial(k)
    return Polynomial(coeffs)


def lagrange_mth_derivative(seq: FiniteSeq, n0: int, m: int) -> Fraction:
    """m! times the degree-m coefficient; equals derivative(seq, m)(n0)."""
    poly = lagrange_poly(seq, n0, m)
    return factorial(m) * poly.coefficient(m)


def effective_degree(seq: FiniteSeq, n0: int, m: int) -> int:
    """Degree of the interpolant; equals m exactly when D^m S(n0) != 0."""
    return lagrange_poly(seq, n0, m).degree


def interpolation_determinants(seq: FiniteSeq, i: int, m: int) -> tuple[Fraction, Fraction]:
    """(det(M_S), det(V)) for the descending-power node matrix at window i."""
    _check_window(seq, i, m)
    nodes = [Fraction(i + r) for r in range(m + 1)]
    v_matrix = [[x ** (m - k) for k in range(m + 1)] for x in nodes]
    ms_matrix = [[seq.at(i + r)] + v_matrix[r][1:] for r in range(m + 1)]
    return bareiss_determinant(ms_matrix), bareiss_determinant(v_matrix)


def dm_via_determinant(seq: FiniteSeq, i: int, m: int) -> Fraction:
    """Cramer-normalized determinant route: m! * det(M_S) / det(V)."""
    if m < 1:
        raise OutOfRange(f"determinant route needs order >= 1, got {m}")
    det_ms, det_v = interpolation_determinants(seq, i, m)
    return factorial(m) * det_ms / det_v

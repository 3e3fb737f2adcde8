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
integers, and both come from one elimination over the nodes 0..m with the
columns in ascending powers, [1, x, ..., x^(m-1) | x^m | S], which reverses
V's and M_S's columns and so flips both signs by (-1)^(m(m+1)/2).  The order
matters: every entry Bareiss writes is a minor of the rows, and with the low
powers first those minors stay small (at m = 20 the entries written hold
under half the bits they hold with the high powers first).

Newton's form is expanded on the window's working form in integers over
den * m!, which ``Polynomial`` keeps in lowest terms; evaluation at p/q sums
c_k * p^k * q^(m-k) in integers and builds one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd

from .errors import OutOfRange, quoted
from .operators import DIFFERENCE
from .sequences import FiniteSeq, as_rational, format_items, format_terms, over_lcm

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence

    from .sequences import RationalLike


class Polynomial:
    """Dense rational coefficients, the k-th of them multiplying x^k.

    Stored as (integer coefficients, den) in lowest terms, trailing zeros
    trimmed: the zero polynomial has no coefficients, den = 1 and degree -1.
    So two polynomials are equal exactly when their forms are.
    """

    __slots__ = ("_coeffs", "_den")

    def __init__(self, coefficients: Sequence[RationalLike] = (), den: int = 1):
        """The polynomial sum(coefficients[k] / den * x^k), den > 0."""
        coeffs, d = over_lcm(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        g = gcd(den * d, *coeffs)
        self._coeffs, self._den = tuple(c // g for c in coeffs), den * d // g

    def scaled(self) -> tuple[tuple[int, ...], int]:
        """(coefficients, den): the x^k coefficient is coefficients[k] / den."""
        return self._coeffs, self._den

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on each call."""
        return tuple(Fraction(c, self._den) for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._coeffs, self._den))

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self._coeffs[k] if 0 <= k < len(self._coeffs) else 0, self._den)

    def evaluate(self, x: RationalLike) -> Fraction:
        xq = x if type(x) is int else as_rational(x)
        p, q = xq.numerator, xq.denominator
        # Horner's rule on sum c_k p^k q^(m-k), which is the value times den * q^m
        acc, q_power = 0, 1
        for c in reversed(self._coeffs):
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc * q, self._den * q_power)

    def render(self) -> str:
        """Ascending powers, zero terms skipped: "1 - 2*x + x^2"."""
        return render_coefficients(format_items(self._coeffs, self._den))

    def __repr__(self) -> str:
        return f"<Polynomial {self.render()}>"


def render_coefficients(texts: list[str]) -> str:
    """The text of a polynomial from its coefficients' texts, the x^k one at k."""
    powers = ("", "x") + tuple(f"x^{k}" for k in range(2, len(texts)))
    return format_terms((text, x) for text, x in zip(texts, powers) if text != "0")


def bareiss_determinant(
    matrix: Sequence[Sequence[RationalLike]], bordered: int = 0
) -> Fraction | tuple[Fraction, ...]:
    """Fraction-free determinant; exact for rational entries.

    Each row is scaled to integers by the lcm of its denominators, so every
    elimination step divides exactly with ``//``; the determinant is the last
    pivot over the product of the row scales.

    With ``bordered = b > 0`` the n rows have n - 1 + b entries, and the
    result is the tuple of the b determinants det[A | c_j], with A the first
    n - 1 columns and c_j the j-th of the b trailing columns.  The same n - 1
    elimination steps run, and by Sylvester's identity the last row then
    holds each of them (Bareiss 1968).
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m: list[list[int]] = []
    scale = 1
    for row in matrix:
        ints, d = over_lcm(row)
        m.append(ints)
        scale *= d
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                # columns 0..k are dependent, and every determinant holds them
                return (Fraction(0),) * bordered if bordered else Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, pivot_tail = m[k][k], m[k][k + 1 :]
        for row in m[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1 :], pivot_tail)]
        prev = pivot
    dets = tuple(Fraction(sign * x, scale) for x in m[n - 1][n - 1 :])
    return dets if bordered else dets[0]


def _check_window(seq: FiniteSeq, start: int, m: int) -> None:
    if m < 0:
        raise OutOfRange(f"order must be >= 0, got {quoted(m)}")
    if start < 1 or start + m > len(seq):
        raise OutOfRange(
            f"window {quoted(start)}..{quoted(start + m)} outside sequence of length {len(seq)}"
        )


def lagrange_poly(seq: FiniteSeq, n0: int, m: int) -> Polynomial:
    """Unique polynomial of degree <= m through (j, S(j)), j = n0..n0+m."""
    _check_window(seq, n0, m)
    items, den = seq.scaled()
    window = FiniteSeq.from_scaled(items[n0 - 1 : n0 + m], den)
    heads = [items[n0 - 1]]
    for _ in range(m):
        # D has scale 1, so every difference stays over the window's den
        window = DIFFERENCE.apply(window)
        heads.append(window.scaled()[0][0])
    # Newton's form times den * m!: D^k S(n0) / k! becomes the item times m!/k!
    coeffs: list[int] = []
    weight = 1
    for k in range(m, -1, -1):
        # coeffs <- coeffs * (x - (n0 + k)) + item_k * m!/k!, ascending powers
        node = n0 + k
        coeffs = [low - high * node for low, high in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += heads[k] * weight
        weight *= k
    return Polynomial(coeffs, den * factorial(m))


def lagrange_mth_derivative(seq: FiniteSeq, n0: int, m: int) -> Fraction:
    """m! times the degree-m coefficient; equals derivative(seq, m)(n0)."""
    poly = lagrange_poly(seq, n0, m)
    return factorial(m) * poly.coefficient(m)


def effective_degree(seq: FiniteSeq, n0: int, m: int) -> int:
    """Degree of the interpolant; equals m exactly when D^m S(n0) != 0."""
    return lagrange_poly(seq, n0, m).degree


def interpolation_determinants(seq: FiniteSeq, i: int, m: int) -> tuple[Fraction, Fraction]:
    """(det(M_S), det(V)) for the descending-power node matrix at window i.

    One elimination on the nodes translated to 0..m, which leaves both
    determinants unchanged (the change of basis on the power columns is unit
    triangular), over the columns [1, x, ..., x^(m-1) | x^m | S]: reversing
    the m + 1 columns of V and M_S multiplies each by (-1)^(m(m+1)/2).  In
    this order the pivots are Vandermonde determinants on the nodes 0..k,
    small and never zero, so no step swaps rows.
    """
    _check_window(seq, i, m)
    items, den = seq.scaled()
    rows = [[x**k for k in range(m + 1)] + [items[i - 1 + x]] for x in range(m + 1)]
    det_v, det_ms = bareiss_determinant(rows, bordered=2)
    sign = (-1) ** (m * (m + 1) // 2)
    return sign * det_ms / den, sign * det_v


def dm_via_determinant(seq: FiniteSeq, i: int, m: int) -> Fraction:
    """Cramer-normalized determinant route: m! * det(M_S) / det(V)."""
    if m < 1:
        raise OutOfRange(f"determinant route needs order >= 1, got {quoted(m)}")
    det_ms, det_v = interpolation_determinants(seq, i, m)
    return factorial(m) * det_ms / det_v

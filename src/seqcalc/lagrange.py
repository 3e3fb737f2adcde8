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
The window's entries go over one denominator, and both determinants come
from fraction-free (Bareiss) elimination on those integer rows, over the
nodes 0..m with the columns in ascending powers, [1, x, ..., x^(m-1) | x^m | S]
(the pivots are then Vandermonde determinants, never zero), which reverses
V's and M_S's columns and so flips both signs by (-1)^(m(m+1)/2).  The order
matters: every entry Bareiss writes is a minor of the rows, and with the low
powers first those minors stay small (at m = 20 the entries written hold
under half the bits they hold with the high powers first).

Only the last column holds S, and the power columns' minors are known in
closed form.  By Sylvester's identity the entry that step k reads at row r is
the Vandermonde determinant on the nodes 0..k-1, r:
T[r][k] = sf(k-1) * r!/(r-k)!, with sf(j) = 0! * 1! * ... * j!, and the pivot
T[k][k] is sf(k) (Bareiss 1968; Krattenthaler, "Advanced determinant
calculus", 1999).  So Bareiss's step on the data column,
y_r <- (y_r * sf(k) - T[r][k] * y_k) // sf(k-1), divides out exactly to
y_r <- k! * y_r - r!/(r-k)! * y_k, with the same intermediate values, and
det(V) is the sign times sf(m).  The route makes m(m+1)/2 integer updates
and keeps no state between calls.

Newton's form is expanded on the window's entries over one int den, as the
determinants' rows are, in integers over den * m!, which ``Polynomial``
keeps in lowest terms; evaluation at p/q sums c_k * p^k * q^(m-k) in
integers and builds one Fraction.
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

    def __init__(self, coefficients: Sequence[RationalLike] = ()):
        """The polynomial sum(coefficients[k] * x^k)."""
        self._reduce(*over_lcm(coefficients))

    def _reduce(self, coeffs: list[int], den: int) -> Polynomial:
        """Store sum(coeffs[k] / den * x^k) over int coefficients, den > 0, in lowest terms."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        g = gcd(den, *coeffs)
        self._coeffs, self._den = tuple(c // g for c in coeffs), den // g
        return self

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


def bareiss_determinant(rows: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) elimination on n integer rows, in place.

    The reference elimination: ``interpolation_determinants`` runs the same
    steps on its data column with the node rows' minors in closed form.

    The rows have n - 1 + b entries: A is their first n - 1 columns, and
    every leading minor of A must be nonzero, so each pivot is.  The result
    is the b determinants det[A | c_j], c_j the j-th trailing column.  Each of
    the n - 1 steps divides exactly with ``//`` by the previous pivot, and by
    Sylvester's identity the last row then holds the determinants (Bareiss
    1968).
    """
    n = len(rows)
    prev = 1
    for k in range(n - 1):
        pivot, pivot_tail = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1 :], pivot_tail)]
        prev = pivot
    return rows[n - 1][n - 1 :]


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
    # past DEN_BITS the items are Fractions: the window goes over one int den, as
    # interpolation_determinants' rows do, so the differences and coefficients are ints
    ints, d = over_lcm(items[n0 - 1 : n0 + m])
    window = FiniteSeq.from_scaled(ints, den * d)
    heads = [ints[0]]
    for _ in range(m):
        # D has scale 1, so every difference stays over the window's den
        window = DIFFERENCE.apply(window)
        heads.append(window.scaled()[0][0])
    # Newton's form times den * d * m!: D^k S(n0) / k! becomes the item times m!/k!
    coeffs: list[int] = []
    weight = 1
    for k in range(m, -1, -1):
        # coeffs <- coeffs * (x - (n0 + k)) + item_k * m!/k!, ascending powers
        node = n0 + k
        coeffs = [low - high * node for low, high in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += heads[k] * weight
        weight *= k
    return object.__new__(Polynomial)._reduce(coeffs, den * d * factorial(m))


def lagrange_mth_derivative(seq: FiniteSeq, n0: int, m: int) -> Fraction:
    """m! times the degree-m coefficient; equals derivative(seq, m)(n0)."""
    poly = lagrange_poly(seq, n0, m)
    return factorial(m) * poly.coefficient(m)


def effective_degree(seq: FiniteSeq, n0: int, m: int) -> int:
    """Degree of the interpolant; equals m exactly when D^m S(n0) != 0."""
    return lagrange_poly(seq, n0, m).degree


def interpolation_determinants(seq: FiniteSeq, i: int, m: int) -> tuple[Fraction, Fraction]:
    """(det(M_S), det(V)) for the descending-power node matrix at window i.

    The m + 1 window entries go over one denominator with one ``over_lcm``
    call.  The elimination runs on the nodes translated to 0..m, which
    leaves both determinants unchanged (the change of basis on the power
    columns is unit triangular), over the integer columns
    [1, x, ..., x^(m-1) | x^m | S]: reversing the m + 1 columns of V and M_S
    multiplies each by (-1)^(m(m+1)/2).  Only the data column y runs
    Bareiss's steps, each in its division-free form
    y_r <- k! * y_r - r!/(r-k)! * y_k for r > k, and det(V) is that sign
    times sf(m) = 0! * 1! * ... * m!.
    """
    _check_window(seq, i, m)
    items, den = seq.scaled()
    column, d = over_lcm(items[i - 1 : i + m])
    falling = [1] * m  # r!/(r-k)! for the rows r = k+1..m below step k's pivot
    fact = superfactorial = 1  # k! and sf(k)
    for k in range(m):
        y = column[k]
        column[k + 1 :] = [fact * x - f * y for x, f in zip(column[k + 1 :], falling)]
        falling = [f * (r - k) for r, f in enumerate(falling[1:], k + 2)]
        fact *= k + 1
        superfactorial *= fact
    sign = (-1) ** (m * (m + 1) // 2)
    return Fraction(sign * column[m], den * d), Fraction(sign * superfactorial)


def dm_via_determinant(seq: FiniteSeq, i: int, m: int) -> Fraction:
    """Cramer-normalized determinant route: m! * det(M_S) / det(V)."""
    if m < 1:
        raise OutOfRange(f"determinant route needs order >= 1, got {quoted(m)}")
    det_ms, det_v = interpolation_determinants(seq, i, m)
    return factorial(m) * det_ms / det_v

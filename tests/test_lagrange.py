"""Interpolation, coefficient laws, and the determinant route to D^m."""

import random
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqcalc import (
    DIFFERENCE,
    FiniteSeq,
    Polynomial,
    derivative,
    dm_via_determinant,
    effective_degree,
    lagrange_mth_derivative,
    lagrange_poly,
)
from seqcalc.errors import OutOfRange
from seqcalc.lagrange import bareiss_determinant, interpolation_determinants

from strategies import finite_seqs, rationals


def cofactor_oracle(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    total = Fraction(0)
    for c, entry in enumerate(matrix[0]):
        minor = [row[:c] + row[c + 1 :] for row in matrix[1:]]
        total += (-1) ** c * entry * cofactor_oracle(minor)
    return total


def basis_form_oracle(xs, ys, x):
    total = Fraction(0)
    for j, yj in enumerate(ys):
        term = yj
        for k, xk in enumerate(xs):
            if k != j:
                term *= Fraction(x - xk, xs[j] - xk)
        total += term
    return total


# denominators 2**70 + k: the lcm of two distinct ones is past DEN_BITS
wide_rationals = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(2**70, 2**70 + 99))


def horner_oracle(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coefficients == (Fraction(1), Fraction(2))
        assert Polynomial([0, 0]).degree == -1
        assert Polynomial([]).degree == -1
        assert Polynomial([5]).degree == 0

    def test_evaluate(self):
        p = Polynomial([1, -2, 1])  # (x-1)^2
        assert p.evaluate(1) == 0
        assert p.evaluate("3/2") == Fraction(1, 4)

    @given(
        st.lists(st.one_of(rationals, wide_rationals), max_size=8),
        st.one_of(rationals, wide_rationals),
    )
    def test_evaluate_matches_fraction_horner_oracle(self, coeffs, x):
        assert Polynomial(coeffs).evaluate(x) == horner_oracle(coeffs, x)

    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ([], "0"),
            ([5], "5"),
            ([0, 0, 1], "x^2"),
            ([1, -2, 1], "1 - 2*x + x^2"),
            (["-1/2", 0, "3/4"], "-1/2 + 3/4*x^2"),
        ],
    )
    def test_render(self, coeffs, text):
        assert Polynomial(coeffs).render() == text


def test_interpolation_examples():
    squares = FiniteSeq([1, 4, 9, 16])
    poly = lagrange_poly(squares, 1, 2)
    assert poly.coefficients == (Fraction(0), Fraction(0), Fraction(1))
    assert factorial(2) * poly.coefficient(2) == derivative(squares, 2).at(1) == 2

    constant = FiniteSeq([7, 7, 7])
    flat = lagrange_poly(constant, 1, 2)
    assert flat.degree == 0
    assert flat.coefficient(0) == 7

    assert lagrange_poly(squares, 3, 0).coefficients == (Fraction(9),)


def test_mth_derivative_examples():
    cubes = FiniteSeq([1, 8, 27, 64])
    assert lagrange_mth_derivative(cubes, 1, 3) == 6
    assert derivative(cubes, 3).at(1) == 6
    s = FiniteSeq([2, "7/2", -1])
    assert lagrange_mth_derivative(s, 1, 1) == s.at(2) - s.at(1)
    assert lagrange_mth_derivative(FiniteSeq([1, 4, 9, 16]), 1, 2) == 2


def test_effective_degree_examples():
    assert effective_degree(FiniteSeq([0, 1, 2]), 1, 2) == 1
    assert effective_degree(FiniteSeq([1, 4, 9]), 1, 2) == 2
    assert effective_degree(FiniteSeq([3, 3, 3]), 1, 2) == 0


def test_window_bounds():
    s = FiniteSeq([1, 2, 3])
    with pytest.raises(OutOfRange):
        lagrange_poly(s, 0, 2)
    with pytest.raises(OutOfRange):
        lagrange_poly(s, 2, 2)
    with pytest.raises(OutOfRange):
        dm_via_determinant(s, 1, 0)


def test_determinant_route_examples():
    # m=1: det(V) = -1 and det(M_S) = S(i) - S(i+1)
    s = FiniteSeq([5, "7/3"])
    det_ms, det_v = interpolation_determinants(s, 1, 1)
    assert det_v == -1
    assert det_ms == s.at(1) - s.at(2)
    assert dm_via_determinant(s, 1, 1) == s.at(2) - s.at(1)

    assert dm_via_determinant(FiniteSeq([1, 4, 9]), 1, 2) == 2

    cubes = FiniteSeq([1, 8, 27, 64])
    det_ms, det_v = interpolation_determinants(cubes, 1, 3)
    assert dm_via_determinant(cubes, 1, 3) == 6
    assert det_ms == 12  # bare determinant is off by |det V| / 3! = 2
    assert abs(det_v) == 12


def squares(rows):
    """The b square matrices [A | c_j] of n rows with n - 1 + b entries."""
    n = len(rows)
    return [[row[: n - 1] + [row[j]] for row in rows] for j in range(n - 1, len(rows[0]))]


def leading_minors_nonzero(rows):
    """Whether every leading minor of the first n - 1 columns is nonzero: Bareiss's contract."""
    return all(gauss_oracle([row[:k] for row in rows[:k]]) for k in range(1, len(rows)))


def int_rows(n):
    """n rows of n - 1 + b small ints, b in {1, 4}."""
    return st.sampled_from([1, 4]).flatmap(
        lambda b: st.lists(
            st.lists(st.integers(-30, 30), min_size=n - 1 + b, max_size=n - 1 + b),
            min_size=n,
            max_size=n,
        )
    )


@given(int_rows(3))
def test_bareiss_matches_cofactor_expansion(rows):
    assume(leading_minors_nonzero(rows))
    expected = list(map(cofactor_oracle, squares(rows)))  # before the elimination overwrites rows
    assert bareiss_determinant(rows) == expected


@given(int_rows(4))
@settings(max_examples=50)
def test_bareiss_matches_cofactor_expansion_4x4(rows):
    assume(leading_minors_nonzero(rows))
    expected = list(map(cofactor_oracle, squares(rows)))  # before the elimination overwrites rows
    assert bareiss_determinant(rows) == expected


@given(finite_seqs(min_size=1, max_size=10), st.data())
def test_interpolation_hits_every_node(s, data):
    m = data.draw(st.integers(0, min(6, len(s) - 1)))
    n0 = data.draw(st.integers(1, len(s) - m))
    poly = lagrange_poly(s, n0, m)
    xs = list(range(n0, n0 + m + 1))
    for j in xs:
        assert poly.evaluate(j) == s.at(j)
    probe = data.draw(rationals)
    assert poly.evaluate(probe) == basis_form_oracle(xs, [s.at(j) for j in xs], probe)


@given(finite_seqs(min_size=1, max_size=10), st.data())
def test_leading_coefficient_law(s, data):
    m = data.draw(st.integers(0, min(6, len(s) - 1)))
    n0 = data.draw(st.integers(1, len(s) - m))
    poly = lagrange_poly(s, n0, m)
    target = derivative(s, m).at(n0)
    assert factorial(m) * poly.coefficient(m) == target
    assert lagrange_mth_derivative(s, n0, m) == target
    assert (effective_degree(s, n0, m) == m) == (target != 0)


@given(finite_seqs(min_size=2, max_size=10), st.data())
def test_route_agreement(s, data):
    m = data.draw(st.integers(1, min(5, len(s) - 1)))
    i = data.draw(st.integers(1, len(s) - m))
    by_difference = derivative(s, m).at(i)
    by_operator = (DIFFERENCE**m).apply(s).at(i)
    assert dm_via_determinant(s, i, m) == by_difference == by_operator


@pytest.mark.parametrize("m", [40, 60])
def test_high_order_interpolant_hits_nodes_and_basis_form(m):
    rng = random.Random(m)
    s = FiniteSeq(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m + 5))
    n0 = 3
    poly = lagrange_poly(s, n0, m)
    xs = list(range(n0, n0 + m + 1))
    ys = [s.at(j) for j in xs]
    assert poly.degree <= m
    assert all(poly.evaluate(j) == s.at(j) for j in xs)
    for _ in range(3):
        probe = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        assert poly.evaluate(probe) == basis_form_oracle(xs, ys, probe)
    assert factorial(m) * poly.coefficient(m) == derivative(s, m).at(n0)


def gauss_oracle(matrix):
    """Determinant by plain Fraction Gaussian elimination with row swaps."""
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1 :]:
            factor = row[k] / m[k][k]
            for j in range(k, len(m)):
                row[j] -= factor * m[k][j]
    return det


def random_int_rows(rng, n, b):
    """n rows of n - 1 + b ints in -30..30 whose leading minors are nonzero."""
    while True:
        rows = [[rng.randint(-30, 30) for _ in range(n - 1 + b)] for _ in range(n)]
        if leading_minors_nonzero(rows):
            return rows


@pytest.mark.parametrize("n", range(1, 11))
def test_bareiss_matches_gauss_oracle(n):
    rng = random.Random(n)
    rows = random_int_rows(rng, n, 1)
    (square,) = squares(rows)
    det = bareiss_determinant(rows)
    assert det == [gauss_oracle(square)] and det == rows[-1][-1:]  # in place: the last row holds it
    assert all(type(x) is int for x in det)


@pytest.mark.parametrize("m", range(31))
def test_vandermonde_determinant_closed_form(m):
    s = FiniteSeq(range(-3, 40))
    superfactorial = 1
    for k in range(1, m + 1):
        superfactorial *= factorial(k)
    expected = (-1) ** (m * (m + 1) // 2) * superfactorial
    assert interpolation_determinants(s, 1 + m % 7, m)[1] == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_bordered_determinants_match_each_square_determinant(n):
    rng = random.Random(100 + n)
    rows = random_int_rows(rng, n, 4)
    for row in rows:
        row[-1] = 0  # a zero border: its determinant is 0
    expected = list(map(gauss_oracle, squares(rows)))
    assert bareiss_determinant(rows) == expected and expected[-1] == 0


@pytest.mark.parametrize("n0,m", [(19970, 30), (1, 40)])
def test_one_elimination_matches_gauss_on_untranslated_nodes(n0, m):
    rng = random.Random(n0 + m)
    s = FiniteSeq(Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(n0 + m))
    v = [[Fraction(x ** (m - k)) for k in range(m + 1)] for x in range(n0, n0 + m + 1)]
    ms = [[s.at(x)] + row[1:] for x, row in zip(range(n0, n0 + m + 1), v)]
    assert interpolation_determinants(s, n0, m) == (gauss_oracle(ms), gauss_oracle(v))


def test_interpolant_past_den_bits_matches_basis_form():
    primes = (1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097, 1103)
    s = FiniteSeq.from_ratios([(k if k % 3 else -k, p) for k, p in enumerate(primes, start=1)])
    assert not isinstance(s.scaled()[0][0], int)  # the lcm passes DEN_BITS
    for n0, m in [(1, 12), (2, 9), (5, 0)]:
        poly = lagrange_poly(s, n0, m)
        xs = list(range(n0, n0 + m + 1))
        ys = [s.at(j) for j in xs]
        assert all(poly.evaluate(j) == s.at(j) for j in xs)
        for probe in (Fraction(-7, 3), Fraction(29, 2), 0):
            assert poly.evaluate(probe) == basis_form_oracle(xs, ys, probe)
        assert factorial(m) * poly.coefficient(m) == derivative(s, m).at(n0)


@pytest.mark.parametrize("m", range(1, 9))
def test_determinant_signs_match_gauss_at_every_residue_of_m(m):
    rng = random.Random(200 + m)
    s = FiniteSeq(Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(m + 5))
    v = [[Fraction(x ** (m - k)) for k in range(m + 1)] for x in range(3, m + 4)]
    ms = [[s.at(x)] + row[1:] for x, row in zip(range(3, m + 4), v)]
    assert interpolation_determinants(s, 3, m) == (gauss_oracle(ms), gauss_oracle(v))


def test_determinant_route_past_den_bits_matches_differences():
    primes = (1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097, 1103)
    s = FiniteSeq.from_ratios([(k if k % 3 else -k, p) for k, p in enumerate(primes, start=1)])
    assert not isinstance(s.scaled()[0][0], int)  # Fraction items over den 1
    for m in range(1, 13):
        for n0 in range(1, len(s) - m + 1):
            assert dm_via_determinant(s, n0, m) == derivative(s, m).at(n0)


def window_rows_oracle(s, i, m):
    """(det(M_S), det(V)) by one elimination of the full rows [1, x, ..., x^m, y] on x = 0..m."""
    ys = [s.at(j) for j in range(i, i + m + 1)]
    d = lcm(*(y.denominator for y in ys))
    column = [y.numerator * (d // y.denominator) for y in ys]
    rows = [[x**k for k in range(m + 1)] + [column[x]] for x in range(m + 1)]
    det_v, det_ms = bareiss_determinant(rows)
    sign = (-1) ** (m * (m + 1) // 2)
    return Fraction(sign * det_ms, d), Fraction(sign * det_v)


def entry_kind_sequences(n):
    """n entries each of ints, p/q, and k/p over distinct primes, whose lcm passes DEN_BITS."""
    rng = random.Random(n)
    primes = [p for p in range(1009, 2000) if all(p % q for q in range(2, 45))][:n]
    past = FiniteSeq.from_ratios([(rng.randint(-99, 99), p) for p in primes])
    assert not isinstance(past.scaled()[0][0], int)
    return [
        FiniteSeq(rng.randint(-(10**12), 10**12) for _ in range(n)),
        FiniteSeq(Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(n)),
        past,
    ]


def test_route_matches_the_reference_elimination_at_every_order_to_30():
    # from m = 27 on, the reference runs the steps past its 25th
    seqs = entry_kind_sequences(33)
    for m in range(31):
        for s in seqs:
            for i in range(1, len(s) - m + 1):
                assert interpolation_determinants(s, i, m) == window_rows_oracle(s, i, m)


def test_determinant_route_at_order_30_matches_differences_on_every_window():
    rng = random.Random(300)
    s = FiniteSeq(Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(300))
    m = 30
    by_difference = derivative(s, m)
    assert [dm_via_determinant(s, i, m) for i in range(1, len(s) - m + 1)] == list(by_difference)


def test_determinant_route_at_order_100_matches_differences():
    rng = random.Random(100)
    s = FiniteSeq(Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(130))
    assert dm_via_determinant(s, 17, 100) == derivative(s, 100).at(17)

"""Derivative, antiderivative and definite integral, with the calculus rules."""

import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcalc import (
    DIFFERENCE,
    EMPTY,
    FiniteSeq,
    antiderivative,
    bottom,
    definite_integral,
    derivative,
    middle,
    top,
)
from seqcalc.errors import InvertedBounds, OutOfRange

from strategies import finite_seqs, rationals, same_length_pairs, zero_free_seqs


def cumsum_oracle(values, c):
    out, acc = [c], c
    for v in values:
        acc += v
        out.append(acc)
    return out


def test_derivative_examples():
    assert derivative(FiniteSeq([5, 5, 5])) == FiniteSeq([0, 0])
    assert derivative(FiniteSeq([1, 3, 5, 7])) == FiniteSeq([2, 2, 2])
    geometric = FiniteSeq([1, 2, 4, 8])
    assert derivative(geometric) == top(geometric) * (2 - 1) == FiniteSeq([1, 2, 4])
    assert derivative(FiniteSeq([1, 4, 9, 16]), 2) == FiniteSeq([2, 2])


def test_derivative_degenerate_orders():
    s = FiniteSeq([1, 2, 3])
    assert derivative(s, 0) == s
    assert derivative(s, 3) == EMPTY
    assert derivative(s, 10) == EMPTY
    with pytest.raises(OutOfRange):
        derivative(s, -1)


def test_antiderivative_examples():
    # cumulative-sum oracle: c=1 then 1+3, 4+5, 9+7
    assert cumsum_oracle([3, 5, 7], Fraction(1)) == [1, 4, 9, 16]
    assert antiderivative(FiniteSeq([3, 5, 7]), 1) == FiniteSeq([1, 4, 9, 16])
    lam = Fraction(-7, 3)
    assert antiderivative(FiniteSeq([0, 0]), lam) == FiniteSeq.constant(lam, 3)
    assert antiderivative(EMPTY, 5) == FiniteSeq([5])


def test_definite_integral_examples():
    s = FiniteSeq([1, 2, 4, 8, 16])
    assert definite_integral(s, 1, 4) == 15
    q, n = Fraction(2), 5
    assert definite_integral(s, 1, 4) == s.at(1) * (1 - q ** (n - 1)) / (1 - q)
    assert definite_integral(s, 3, 3) == s.at(3)


def test_definite_integral_bounds_errors():
    s = FiniteSeq([1, 2, 3])
    with pytest.raises(InvertedBounds):
        definite_integral(s, 3, 1)
    with pytest.raises(OutOfRange):
        definite_integral(s, 0, 2)
    with pytest.raises(OutOfRange):
        definite_integral(s, 1, 4)


def test_constant_sequence_lemma_exhaustive():
    # both directions, integer values -2..2, lengths 1..5
    for n in range(1, 6):
        for combo in product(range(-2, 3), repeat=n):
            s = FiniteSeq(combo)
            is_constant = all(v == combo[0] for v in combo)
            zero_diff = all(v == 0 for v in derivative(s))
            assert zero_diff == is_constant


@given(finite_seqs(), rationals)
def test_derivative_inverts_antiderivative(s, c):
    assert derivative(antiderivative(s, c)) == s


@given(finite_seqs(min_size=1))
def test_antiderivative_inverts_derivative_with_matched_constant(s):
    assert antiderivative(derivative(s), s.at(1)) == s


@given(finite_seqs(min_size=1), rationals, st.data())
def test_second_fundamental_theorem(s, c, data):
    n = len(s)
    a = data.draw(st.integers(1, n))
    b = data.draw(st.integers(a, n))
    integral = antiderivative(s, c)
    direct = sum((s.at(j) for j in range(a, b + 1)), Fraction(0))
    assert definite_integral(s, a, b) == direct == integral.at(b + 1) - integral.at(a)


@given(finite_seqs(min_size=2))
def test_telescoping_display(s):
    n = len(s)
    assert definite_integral(derivative(s), 1, n - 1) == s.at(n) - s.at(1)


@given(same_length_pairs(min_size=1, max_size=10))
def test_product_rule_forms(pair):
    s, g = pair
    lhs = derivative(s * g)
    assert lhs == derivative(s) * middle(g) + middle(s) * derivative(g)
    assert lhs == bottom(s) * bottom(g) - top(s) * top(g)
    assert lhs == derivative(s) * bottom(g) + top(s) * derivative(g)
    assert lhs == derivative(s) * top(g) + bottom(s) * derivative(g)


@given(finite_seqs(min_size=1, max_size=10), st.data())
def test_quotient_rule(s, data):
    g = data.draw(zero_free_seqs(min_size=len(s), max_size=len(s)))
    lhs = derivative(s / g)
    rhs = (derivative(s) * middle(g) - derivative(g) * middle(s)) / (top(g) * bottom(g))
    assert lhs == rhs


@given(zero_free_seqs())
def test_inverse_rule(g):
    assert derivative(g.inverse()) == -(derivative(g) / (top(g) * bottom(g)))


@given(zero_free_seqs())
def test_mean_of_inverse(g):
    assert middle(g.inverse()) == middle(g) / (top(g) * bottom(g))


@given(same_length_pairs(min_size=1, max_size=10), rationals)
def test_integration_by_parts(pair, c0):
    s, g = pair
    c1 = s.at(1) * g.at(1) - c0
    lhs = antiderivative(derivative(s) * middle(g), c0)
    rhs = s * g - antiderivative(middle(s) * derivative(g), c1)
    assert derivative(lhs) == derivative(rhs)
    assert lhs.at(1) == rhs.at(1)
    assert lhs == rhs


@given(rationals, rationals, st.integers(min_value=2, max_value=10))
def test_arithmetic_progression_identity(start, d, n):
    s = FiniteSeq(start + i * d for i in range(n))
    assert derivative(s) == FiniteSeq.constant(d, n - 1)
    for i in range(2, n + 1):
        assert definite_integral(FiniteSeq.constant(d, n), 1, i - 1) == s.at(i) - s.at(1)


@given(finite_seqs(max_size=8), st.integers(min_value=0, max_value=5))
def test_higher_derivative_routes_agree(s, m):
    assert derivative(s, m) == (DIFFERENCE**m).apply(s)


@given(finite_seqs(min_size=1), rationals)
def test_antiderivative_constant_iff_zero_sequence(s, c):
    integral = antiderivative(s, c)
    is_constant = all(v == integral.at(1) for v in integral)
    assert is_constant == all(v == 0 for v in s)


def test_huge_order_stops_once_empty():
    start = time.perf_counter()
    assert derivative(FiniteSeq.of(1, 2, 3), 10**9) == EMPTY
    assert time.perf_counter() - start < 1.0

"""Exact sequence arithmetic, prefix semantics and the empty-sequence rules."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcalc import EMPTY, FiniteSeq, GridFunction, OperatorPoly, Polynomial, antiderivative, as_rational, top
from seqcalc.errors import BadParameter, FormatError, LengthMismatch, OutOfRange, ZeroEntry
from seqcalc.seqio import parse_inline

from strategies import (
    finite_seqs,
    rationals,
    same_length_pairs,
    same_length_triples,
    zero_free_seqs,
)


def test_addition_examples():
    assert FiniteSeq([1, 2]) + FiniteSeq([3, 4]) == FiniteSeq([4, 6])
    assert EMPTY + EMPTY == EMPTY
    assert FiniteSeq(["1/2", "1/3"]) + FiniteSeq(["1/2", "2/3"]) == FiniteSeq([1, 1])


def test_multiplication_examples():
    assert FiniteSeq([2, 3]) * FiniteSeq([4, 5]) == FiniteSeq([8, 15])
    assert EMPTY * EMPTY == EMPTY


def test_scalar_multiple_matches_constant_sequence():
    s = FiniteSeq([3, "1/2", -2])
    lam = Fraction(5, 7)
    assert s * lam == FiniteSeq.constant(lam, 3) * s
    assert lam * s == s * lam


def test_inverse_examples():
    assert FiniteSeq([2, 4]).inverse() == FiniteSeq(["1/2", "1/4"])
    assert FiniteSeq([1, 1, 1]).inverse() == FiniteSeq([1, 1, 1])
    with pytest.raises(ZeroEntry) as err:
        FiniteSeq([2, 0]).inverse()
    assert err.value.index == 2


def test_prefix_examples():
    s = FiniteSeq([1, 2, 3, 4])
    assert s.prefix(3) == FiniteSeq([1, 2, 3])
    assert s.prefix(len(s)) == s
    assert FiniteSeq([5]).prefix(0) == EMPTY
    with pytest.raises(OutOfRange):
        s.prefix(5)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        FiniteSeq([1]) + FiniteSeq([1, 2])
    with pytest.raises(LengthMismatch):
        FiniteSeq([1]) * FiniteSeq([1, 2])


def test_one_based_access():
    s = FiniteSeq([7, 8, 9])
    assert s.at(1) == 7
    assert s.at(3) == 9
    for bad in (0, 4, -1):
        with pytest.raises(OutOfRange):
            s.at(bad)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)


# Fraction(str) reads each of these as a value, or raises ZeroDivisionError or
# ValueError; "1e1000000" takes it a quarter of a second
OUTSIDE_THE_GRAMMAR = ["1.5", "1e3", "1_000", "٣", ".5", "1/0", "9" * 4301, "1e1000000"]


@pytest.mark.parametrize("token", OUTSIDE_THE_GRAMMAR, ids=lambda t: t if len(t) < 12 else f"{len(t)} chars")
def test_string_scalars_are_read_by_the_readers_rule(token):
    with pytest.raises(FormatError) as read:
        parse_inline(token)
    one = FiniteSeq.of(1)
    calls = [
        as_rational,
        lambda t: FiniteSeq([t]),
        lambda t: one * t,
        OperatorPoly.scalar,
        lambda t: Polynomial([t]),
        Polynomial([1]).evaluate,
        lambda t: antiderivative(one, t),
        lambda t: GridFunction(0, t, one),
    ]
    for call in calls:
        with pytest.raises(FormatError) as exc:
            call(token)
        assert str(exc.value) == str(read.value) and exc.value.line is None


@given(same_length_pairs())
def test_elementwise_commutativity(pair):
    s, g = pair
    assert s + g == g + s
    assert s * g == g * s


@given(same_length_triples(max_size=8))
def test_elementwise_associativity(triple):
    s, g, r = triple
    assert (s + g) + r == s + (g + r)
    assert (s * g) * r == s * (g * r)
    assert s * (g + r) == s * g + s * r


@given(finite_seqs())
def test_results_stay_normalized(s):
    doubled = s + s
    for v in doubled:
        assert v.denominator > 0
        assert gcd(abs(v.numerator), v.denominator) == 1


@given(zero_free_seqs())
def test_inverse_roundtrip(s):
    assert s * s.inverse() == FiniteSeq.constant(1, len(s))
    assert s.inverse().inverse() == s


@given(finite_seqs(min_size=1))
def test_prefix_top_compatibility(s):
    # The top operation is exactly the length n-1 prefix.
    assert top(s) == s.prefix(len(s) - 1)


@given(finite_seqs(), rationals)
def test_scaling_distributes(s, lam):
    assert s * lam + s == s * (lam + 1)


@given(st.integers(min_value=0, max_value=8), rationals)
def test_constant_builder(n, value):
    s = FiniteSeq.constant(value, n)
    assert len(s) == n
    assert all(v == value for v in s)


def test_division_by_scalar_zero_is_bad_parameter():
    s = FiniteSeq([1, 2])
    assert s / 2 == FiniteSeq(["1/2", 1])
    for zero in (0, "0/3", Fraction(0)):
        with pytest.raises(BadParameter):
            s / zero


def test_unknown_operand_defers_to_its_reflected_product():
    class Tag:
        def __rmul__(self, other):
            return ("tagged", other)

    s = FiniteSeq([1, 2])
    assert s * Tag() == ("tagged", s)
    with pytest.raises(TypeError):
        s * object()

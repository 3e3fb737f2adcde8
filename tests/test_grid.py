"""Grid-function finite differences and the bridge to sequence operators."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqcalc import (
    DIFFERENCE,
    MIDDLE,
    FiniteSeq,
    GridFunction,
    derivative_error,
    difference,
    discrete_derivative,
    displacement,
    mean_filter,
    sample_function,
)
from seqcalc.errors import LengthMismatch, OutOfRange

from strategies import finite_seqs

steps = st.fractions(min_value="1/9", max_value=9, max_denominator=9)
origins = st.fractions(min_value=-5, max_value=5, max_denominator=9)


def test_difference_and_derivative_example():
    # f(x) = x^2 sampled at 0, 1/2, 1
    g = GridFunction(0, "1/2", FiniteSeq([0, "1/4", 1]))
    assert difference(g).samples == FiniteSeq(["1/4", "3/4"])
    assert discrete_derivative(g).samples == FiniteSeq(["1/2", "3/2"])
    assert mean_filter(GridFunction(0, "1/2", FiniteSeq([0, "1/4"]))).samples == FiniteSeq(["1/8"])


def test_displacement_semantics():
    g = GridFunction(0, 1, FiniteSeq([10, 20, 30]))
    assert displacement(g, 0) == g
    shifted = displacement(g, 2)
    assert shifted.origin == 2 and shifted.samples == FiniteSeq([30])
    back = displacement(g, -1)
    assert back.origin == -1 and back.samples == FiniteSeq([10, 20])
    assert displacement(g, 5).samples == FiniteSeq()
    with pytest.raises(OutOfRange):
        displacement(g, -4)


def test_step_must_be_positive():
    with pytest.raises(OutOfRange):
        GridFunction(0, 0, FiniteSeq([1]))
    with pytest.raises(OutOfRange):
        GridFunction(0, -1, FiniteSeq([1]))


def test_sample_function_checks_the_step_before_it_calls_fn():
    calls = []

    def fn(x):
        calls.append(x)
        return x

    with pytest.raises(OutOfRange, match="grid step must be positive, got -1"):
        sample_function(fn, 0, -1, 200000)
    assert calls == []


def test_grid_points():
    g = GridFunction("1/2", "1/3", FiniteSeq([0, 0, 0]))
    assert g.point(1) == Fraction(1, 2)
    assert g.point(3) == Fraction(1, 2) + 2 * Fraction(1, 3)


def test_error_is_zero_for_affine():
    for h in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        g = sample_function(lambda x: 3 * x - 2, 0, h, 5)
        truth = FiniteSeq([3] * 4)
        assert derivative_error(g, truth) == 0


@pytest.mark.parametrize("h", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
def test_square_error_equals_step(h):
    # (x+h)^2 - x^2 = 2xh + h^2, so the error against 2x is h at every point
    count = int(Fraction(2) / h) + 1
    g = sample_function(lambda x: x * x, 0, h, count)
    truth = FiniteSeq(2 * g.point(i) for i in range(1, count))
    assert derivative_error(g, truth) == h


def test_cube_error_halving_ratio():
    # error for x^3 at step h on [0, X] is h*(3X - 2h); the halving ratio
    # lands strictly between 1/2 and 1
    def cube_error(h):
        count = int(Fraction(2) / h) + 1
        g = sample_function(lambda x: x**3, 0, h, count)
        truth = FiniteSeq(3 * g.point(i) ** 2 for i in range(1, count))
        return derivative_error(g, truth)

    errors = [cube_error(Fraction(1, 2**k)) for k in range(4)]
    for h, err in zip([Fraction(1, 2**k) for k in range(4)], errors):
        assert err == h * (3 * 2 - 2 * h)
    for coarse, fine in zip(errors, errors[1:]):
        ratio = fine / coarse
        assert Fraction(1, 2) < ratio < 1


def test_error_length_mismatch():
    g = GridFunction(0, 1, FiniteSeq([1, 2, 3]))
    with pytest.raises(LengthMismatch):
        derivative_error(g, FiniteSeq([1, 2, 3]))


@given(finite_seqs(min_size=1), steps, origins)
def test_difference_is_displacement_gap(s, h, x0):
    g = GridFunction(x0, h, s)
    n = len(s)
    shifted = displacement(g, 1).samples
    held = displacement(g, 0).samples.prefix(n - 1)
    assert difference(g).samples == shifted - held
    assert mean_filter(g).samples == (shifted + held) * Fraction(1, 2)


@given(finite_seqs(min_size=1), steps, origins)
def test_discrete_derivative_scaling(s, h, x0):
    g = GridFunction(x0, h, s)
    assert discrete_derivative(g).samples == difference(g).samples * (1 / h)
    assert discrete_derivative(g).step == h


@given(finite_seqs())
def test_unit_step_bridge(s):
    g = GridFunction(0, 1, s)
    assert difference(g).samples == DIFFERENCE.apply(s)
    assert mean_filter(g).samples == MIDDLE.apply(s)


@given(finite_seqs(max_size=8), st.integers(0, 4), st.integers(0, 4), st.booleans())
def test_displacement_group_law_same_sign(s, a, b, negative):
    g = GridFunction(0, 1, s)
    if negative:
        a, b = -a, -b
        if abs(a) + abs(b) > len(s):
            return
    assert displacement(displacement(g, a), b) == displacement(g, a + b)

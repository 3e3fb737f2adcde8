"""Monotonicity, convexity and the collinearity determinant."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given

from seqcalc import (
    FiniteSeq,
    OperatorPoly,
    classify_convexity,
    classify_monotonicity,
    collinearity_determinant,
    derivative,
)
from seqcalc.errors import OutOfRange, TooShort

from strategies import finite_seqs


def sarrus_oracle(points):
    # rule-of-Sarrus determinant of [[x, y, 1] for x, y in points]
    (x0, y0), (x1, y1), (x2, y2) = points
    return x0 * y1 + y0 * x2 + x1 * y2 - x2 * y1 - y2 * x0 - x1 * y0


def test_monotonicity_examples():
    up = classify_monotonicity(FiniteSeq([1, 2, 3]))
    assert up.strictly_increasing and up.increasing
    assert not (up.strictly_decreasing or up.decreasing or up.constant)

    weak = classify_monotonicity(FiniteSeq([1, 1, 2]))
    assert weak.increasing and not weak.strictly_increasing

    mixed = classify_monotonicity(FiniteSeq([3, 1, 2]))
    assert not any(
        [mixed.strictly_increasing, mixed.strictly_decreasing, mixed.increasing, mixed.decreasing, mixed.constant]
    )

    flat = classify_monotonicity(FiniteSeq([4, 4]))
    assert flat.constant and flat.increasing and flat.decreasing


def test_monotonicity_too_short():
    with pytest.raises(TooShort):
        classify_monotonicity(FiniteSeq([1]))


def test_convexity_examples():
    squares = classify_convexity(FiniteSeq([1, 4, 9, 16]))
    assert squares.strictly_convex and squares.continuously_convex
    assert squares.second_derivative == FiniteSeq([2, 2])
    assert derivative(FiniteSeq([1, 4, 9, 16])) == FiniteSeq([3, 5, 7])

    affine = classify_convexity(FiniteSeq([0, 1, 2, 3]))
    assert affine.convex and affine.concave
    assert not affine.strictly_convex

    spike = classify_convexity(FiniteSeq([0, 1, 0]))
    assert spike.strictly_concave
    assert spike.second_derivative == FiniteSeq([-2])


def test_convexity_too_short():
    with pytest.raises(TooShort):
        classify_convexity(FiniteSeq([1, 2]))


def test_single_window_length_three_is_classified():
    report = classify_convexity(FiniteSeq([1, 4, 9]))
    assert report.strictly_convex
    assert len(report.second_derivative) == 1


def test_collinearity_examples():
    assert collinearity_determinant(FiniteSeq([0, 1, 2]), 1) == 0
    s = FiniteSeq([1, 4, 9])
    assert sarrus_oracle([(1, 1), (2, 4), (3, 9)]) == 2
    assert collinearity_determinant(s, 1) == 2
    with pytest.raises(OutOfRange):
        collinearity_determinant(s, 2)
    with pytest.raises(OutOfRange):
        collinearity_determinant(s, 0)


@given(finite_seqs(min_size=3, max_size=10))
def test_determinant_equals_second_derivative(s):
    second = derivative(s, 2)
    for i in range(1, len(s) - 1):
        det = collinearity_determinant(s, i)
        points = [(Fraction(i + r), s.at(i + r)) for r in range(3)]
        assert det == sarrus_oracle(points)
        assert det == second.at(i)
        assert collinearity_determinant(-s, i) == -det


@given(finite_seqs(min_size=3, max_size=10))
def test_midpoint_characterization(s):
    report = classify_convexity(s)
    midpoint = all(s.at(i + 1) <= (s.at(i) + s.at(i + 2)) / 2 for i in range(1, len(s) - 1))
    assert report.convex == midpoint


@given(finite_seqs(min_size=3, max_size=10))
def test_negation_duality(s):
    report = classify_convexity(s)
    mirrored = classify_convexity(-s)
    assert report.convex == mirrored.concave
    assert report.strictly_convex == mirrored.strictly_concave
    assert report.continuously_convex == mirrored.continuously_concave


def test_equivalence_theorem_exhaustive():
    # strictly convex <=> no consecutive triple collinear with constant
    # positive determinant sign <=> all determinants positive; dually concave
    for combo in product(range(-2, 3), repeat=4):
        s = FiniteSeq(combo)
        report = classify_convexity(s)
        dets = [collinearity_determinant(s, i) for i in (1, 2)]
        no_collinear = all(d != 0 for d in dets)
        assert report.strictly_convex == (no_collinear and all(d > 0 for d in dets))
        assert report.strictly_convex == all(d > 0 for d in dets)
        assert report.strictly_concave == (no_collinear and all(d < 0 for d in dets))
        assert report.strictly_concave == all(d < 0 for d in dets)


@given(finite_seqs(min_size=2, max_size=10))
def test_monotonicity_flag_implications(s):
    report = classify_monotonicity(s)
    if report.strictly_increasing:
        assert report.increasing
    if report.strictly_decreasing:
        assert report.decreasing
    if report.constant:
        assert report.increasing and report.decreasing


def test_classify_convexity_takes_two_difference_passes(monkeypatch):
    calls = []
    apply = OperatorPoly.apply

    def counted(self, seq):
        calls.append(len(seq))
        return apply(self, seq)

    monkeypatch.setattr(OperatorPoly, "apply", counted)
    report = classify_convexity(FiniteSeq([1, 4, 9, 16, 25]))
    assert report.second_derivative == FiniteSeq([2, 2, 2])
    assert calls == [5, 4]

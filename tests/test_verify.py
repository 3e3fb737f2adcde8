"""Verifier catalog: reproducibility, generators, and per-check sanity."""

from fractions import Fraction

import pytest

from seqcalc import CheckSpec, FiniteSeq, Polynomial, check_names, run_all, run_check, verify
from seqcalc.cli import main
from seqcalc.errors import BadParameter, UnknownCheck
from seqcalc.generators import (
    arithmetic_sequence,
    geometric_sequence,
    random_rational_sequence,
    random_zero_free_sequence,
)
from seqcalc.seqio import check_payload, verification_payload

import random

EXPECTED_CATALOG = (
    "product_rule",
    "quotient_rule",
    "inverse_rule",
    "mean_inverse",
    "antiderivative_roundtrip",
    "partial_sums",
    "hod_binomial",
    "int_by_parts",
    "geometric_rule",
    "arithmetic_rule",
    "geometric_sum",
    "ftc",
    "convexity_equivalence",
    "det_equals_d2",
    "lagrange_leading",
    "lagrange_mth",
    "det_normalization",
    "symbolic_laws",
    "fd_bridge",
)


def test_catalog_is_closed_and_ordered():
    assert check_names() == EXPECTED_CATALOG


@pytest.mark.parametrize("name", EXPECTED_CATALOG)
def test_every_check_passes(name):
    report = run_check(CheckSpec(name, trials=25, seed=7, min_length=2, max_length=10))
    assert report.passed, report.failures[:3]
    assert report.trials_run >= 25
    assert report.failures == ()


def test_unknown_check():
    with pytest.raises(UnknownCheck):
        run_check(CheckSpec("no_such_check"))


def test_spec_validation():
    with pytest.raises(BadParameter):
        CheckSpec("ftc", trials=0)
    with pytest.raises(BadParameter):
        CheckSpec("ftc", min_length=1)
    with pytest.raises(BadParameter):
        CheckSpec("ftc", min_length=5, max_length=4)


def test_reports_are_reproducible():
    spec = CheckSpec("product_rule", trials=40, seed=123, min_length=2, max_length=9)
    assert run_check(spec) == run_check(spec)


def test_convexity_floor_is_clamped():
    # min_length=2 must still work for checks that need length >= 3
    report = run_check(CheckSpec("convexity_equivalence", trials=10, seed=3, min_length=2))
    assert report.passed


def test_run_all_order_and_payload():
    reports = run_all(trials=5, seed=11)
    assert tuple(r.name for r in reports) == EXPECTED_CATALOG
    payload = verification_payload(reports)
    assert payload["all_passed"] is True
    assert [r["name"] for r in payload["reports"]] == list(EXPECTED_CATALOG)
    single = check_payload(reports[0])
    assert set(single) == {"name", "trials_run", "failures", "passed"}


def test_generator_families():
    assert arithmetic_sequence(1, 2, 4) == FiniteSeq([1, 3, 5, 7])
    assert geometric_sequence(1, 2, 4) == FiniteSeq([1, 2, 4, 8])
    assert FiniteSeq.constant(5, 3) == FiniteSeq([5, 5, 5])
    assert geometric_sequence(1, "1/2", 3) == FiniteSeq([1, "1/2", "1/4"])
    with pytest.raises(BadParameter):
        geometric_sequence(1, 0, 3)


def test_random_generator_ranges():
    rng = random.Random(0)
    s = random_rational_sequence(200, rng)
    assert all(-9 <= v.numerator <= 9 or abs(v) <= 9 for v in s)
    assert all(1 <= v.denominator <= 9 for v in s)
    zero_free = random_zero_free_sequence(50, random.Random(1))
    assert all(v != 0 for v in zero_free)


def _off_by_one_in_the_first_entry(seq):
    return FiniteSeq([seq.at(1) + 1, *seq.values[1:]]) if seq else seq


def test_oracles_catch_a_broken_product_kernel(monkeypatch):
    original = FiniteSeq.__mul__

    def broken(self, other):
        return _off_by_one_in_the_first_entry(original(self, other))

    monkeypatch.setattr(FiniteSeq, "__mul__", broken)
    report = run_check(CheckSpec("product_rule", trials=10, seed=7, min_length=2, max_length=6))
    assert report.passed is False


def test_oracles_catch_a_broken_collinearity_determinant(monkeypatch):
    original = verify.collinearity_determinant

    def broken(seq, i):
        return original(seq, i) + (1 if i == 1 else 0)

    monkeypatch.setattr(verify, "collinearity_determinant", broken)
    report = run_check(CheckSpec("det_equals_d2", trials=10, seed=7, min_length=3, max_length=6))
    assert report.passed is False


def test_divided_difference_line_catches_a_skewed_top_coefficient(monkeypatch):
    original = verify.lagrange_poly

    def skewed(seq, n0, m):
        coeffs = list(original(seq, n0, m).coefficients) + [0] * (m + 1)
        coeffs[m] += Fraction(1, 7)
        return Polynomial(coeffs)

    monkeypatch.setattr(verify, "lagrange_poly", skewed)
    report = run_check(CheckSpec("lagrange_leading", trials=10, seed=7, min_length=2, max_length=6))
    assert report.passed is False
    assert "divided difference" in report.failures[0]


@pytest.mark.parametrize(
    "option,limit_name",
    [("--max-len", "max length"), ("--min-len", "min length")],
)
def test_sequence_length_limit_is_a_domain_error(capsys, monkeypatch, option, limit_name):
    def must_not_run(spec):
        raise AssertionError("a check ran past the length limit")

    # were the limit not checked, the command would exit 4 here, not build 1e9 entries
    monkeypatch.setattr(verify, "run_check", must_not_run)
    for check in ("all", "ftc"):
        assert main(["verify", "--check", check, option, "1000000000"]) == 3
        assert capsys.readouterr().err == (
            f"seqcalc: {limit_name} must be <= {verify.MAX_LENGTH}, got 1000000000\n"
        )


def test_sequence_length_limit_is_inclusive():
    spec = CheckSpec("ftc", 2, 0, verify.MAX_LENGTH, verify.MAX_LENGTH)
    assert run_check(spec).passed

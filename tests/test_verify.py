"""Verifier catalog: reproducibility, generators, and per-check sanity."""

import hashlib
import json
import re
import types
from fractions import Fraction

import pytest

from seqcalc import (
    CheckSpec,
    FiniteSeq,
    OperatorPoly,
    Polynomial,
    calculus,
    check_names,
    grid,
    run_all,
    run_check,
    verify,
)
from seqcalc.cli import main
from seqcalc.errors import BadParameter, OutOfRange, UnknownCheck
from seqcalc.generators import (
    arithmetic_sequence,
    draw,
    geometric_sequence,
    random_nonzero_ratios,
    random_rational_sequence,
)
from seqcalc.seqio import check_payload, render_json, verification_payload

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
    with pytest.raises(BadParameter):
        CheckSpec("ftc", trials=verify.MAX_TRIALS + 1)
    assert CheckSpec("ftc", trials=verify.MAX_TRIALS).trials == 10_000


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
    assert set(single) == {"name", "trials_run", "failures", "failure_count", "passed"}


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
    zero_free = FiniteSeq.from_ratios(random_nonzero_ratios(50, random.Random(1)))
    assert all(v != 0 for v in zero_free)


def test_draw_takes_the_words_that_randint_and_choice_take():
    for seed in range(21):
        ours, theirs = random.Random(seed), random.Random(seed)
        for width in range(1, 131):
            lo = width - 65  # ranges below, across and above zero
            assert draw(ours, lo, lo + width - 1) == theirs.randint(lo, lo + width - 1)
            items = tuple(range(width))
            assert items[draw(ours, 0, width - 1)] == theirs.choice(items)
            assert ours.getstate() == theirs.getstate()
    for lo, hi in ((1, 0), (5, -5)):
        with pytest.raises(ValueError):
            draw(random.Random(0), lo, hi)


def _off_by_one_in_the_first_entry(seq):
    return FiniteSeq([seq.at(1) + 1, *seq.values[1:]]) if seq else seq


def test_oracles_catch_a_broken_product_kernel(monkeypatch):
    original = FiniteSeq.__mul__

    def broken(self, other):
        return _off_by_one_in_the_first_entry(original(self, other))

    monkeypatch.setattr(FiniteSeq, "__mul__", broken)
    report = run_check(CheckSpec("product_rule", trials=10, seed=7, min_length=2, max_length=6))
    assert report.passed is False


def test_oracles_catch_a_broken_input_build(monkeypatch):
    # the oracles read the (p, q) draws, not the sequence from_ratios builds from them
    original = FiniteSeq.from_ratios

    def broken(ratios):
        (p, q), *rest = ratios
        return original([(p + 1, q), *rest])

    monkeypatch.setattr(FiniteSeq, "from_ratios", staticmethod(broken))
    report = run_check(CheckSpec("product_rule", trials=10, seed=7, min_length=2, max_length=6))
    assert report.passed is False


# stdout of a passing `verify`: the whole catalog at the default lengths 2..12,
# and at lengths up to 100, which those never reach
PASSING_REPORT_SHA256 = [
    (("--check", "all", "--trials", "200"),
     "7a024d4414f1bd5820a04ebe5fba232dda262aa98d52ffb8e4fd33db0cd1ec7c"),
    (("--check", "all", "--trials", "40", "--seed", "11", "--max-len", "100"),
     "d7477c154549a390ab6b30a84685cec6418cb892ae4b5627e25baea9593c8826"),
]


@pytest.mark.parametrize("argv,expected", PASSING_REPORT_SHA256, ids=["trials-200", "max-len-100"])
def test_passing_report_digest(capsys, argv, expected):
    assert main(["verify", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


# stdout of `verify --check all --trials 30 --seed 3 --max-len 14` while
# OperatorPoly.apply shifts its first entry by 1: pins the draw order of
# every check, the failure texts a broken kernel produces and their counts.
FAILING_REPORT_SHA256 = "63cb8729cc2be76bfd9f51fadc208e97d5a3f5c7c60edf291cdabc782cf9dbbd"


def test_failing_report_digest(capsys, monkeypatch):
    original = OperatorPoly.apply

    def broken(self, seq):
        return _off_by_one_in_the_first_entry(original(self, seq))

    monkeypatch.setattr(OperatorPoly, "apply", broken)
    code = main(["verify", "--check", "all", "--trials", "30", "--seed", "3", "--max-len", "14"])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_REPORT_SHA256
    reports = json.loads(out)["reports"]
    assert sum(r["failure_count"] for r in reports) == 493
    assert all(len(r["failures"]) == min(r["failure_count"], verify.MAX_FAILURES) for r in reports)


# stdout of `verify --check all --trials 30 --seed 3` while calculus.antiderivative
# drops its constant: only the checks that read the constant fail, and the
# fundamental theorem, which takes a difference of two antiderivative entries,
# does not
DROPPED_CONSTANT_SHA256 = "600faea90710c27b889380842b2e17ad9df8095d65e1689a0309a3e11cec2f42"


def test_dropped_constant_report_digest(capsys, monkeypatch):
    original = calculus.antiderivative
    monkeypatch.setattr(calculus, "antiderivative", lambda seq, constant=0: original(seq))
    code = main(["verify", "--check", "all", "--trials", "30", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == DROPPED_CONSTANT_SHA256
    counts = {r["name"]: r["failure_count"] for r in json.loads(out)["reports"]}
    assert {name: count for name, count in counts.items() if count} == {
        "antiderivative_roundtrip": 57,
        "partial_sums": 28,
        "int_by_parts": 30,
    }


def _names_from_the_checked_modules():
    """Names in seqcalc.verify bound to a module or object of another seqcalc module."""
    names = set()
    for name, value in vars(verify).items():
        if isinstance(value, types.ModuleType):
            origin = value.__name__
        else:
            origin = getattr(value, "__module__", None)
        if isinstance(origin, str) and origin.startswith("seqcalc.") and origin != "seqcalc.verify":
            names.add(name)
    return names


def _names_read_by(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):  # a nested function or comprehension
            names |= _names_read_by(const)
    return names


def test_oracles_share_no_code_with_the_modules_they_check():
    checked = _names_from_the_checked_modules()
    assert {"calculus", "grid", "FiniteSeq", "DIFFERENCE", "collinearity_determinant"} <= checked
    oracles = {name: fn for name, fn in vars(verify).items() if name.startswith("_o_")}
    assert {"_o_diff", "_o_diff_m", "_o_partial_sums", "_o_sum", "_o_det"} <= set(oracles)
    for name, fn in oracles.items():
        assert not _names_read_by(fn.__code__) & checked, name


def test_sweep_runs_every_case_on_every_call(monkeypatch):
    spec = CheckSpec("ftc", 5)
    first = run_check(spec)
    assert first.passed and first.trials_run == 6255  # 625 sequences x 10 bounds + 5 trials
    assert run_check(spec) == first
    original = calculus.definite_integral
    monkeypatch.setattr(
        calculus, "definite_integral", lambda seq, a, b: original(seq, a, b) + 1
    )
    # a reused sweep instance keeps no outcome: every case runs and fails again
    broken = run_check(spec)
    assert not broken.passed
    assert broken.failure_count == broken.trials_run == 6255


def test_a_short_kernel_result_fails_the_case(monkeypatch):
    original = calculus.antiderivative

    def short(seq, constant=0):
        return original(seq, constant).prefix(len(seq))  # drops the last partial sum

    monkeypatch.setattr(calculus, "antiderivative", short)
    report = run_check(CheckSpec("ftc", 5))
    assert not report.passed
    assert report.failures[0] == "exhaustive: OutOfRange: index 5 outside 1..4"


def test_ftc_builds_each_swept_antiderivative_once_per_run(monkeypatch):
    original, calls = calculus.antiderivative, []

    def counting(seq, constant=0):
        calls.append(constant)
        return original(seq, constant)

    monkeypatch.setattr(calculus, "antiderivative", counting)
    spec = CheckSpec("ftc", 5)
    first = run_check(spec)
    assert first.passed and len(calls) == 625 * 2 + 5  # one per sequence and constant, one per trial
    # nothing is kept from one run to the next
    assert run_check(spec) == first and len(calls) == 2 * (625 * 2 + 5)


def test_a_failing_shared_antiderivative_fails_every_case_that_asks_for_it(monkeypatch):
    def failing(seq, constant=0):
        raise OutOfRange("no antiderivative")

    monkeypatch.setattr(calculus, "antiderivative", failing)
    report = run_check(CheckSpec("ftc", 5))
    assert report.failure_count == report.trials_run == 6255
    assert report.failures[0] == "exhaustive: OutOfRange: no antiderivative"


# sha256 of passing `verify` stdout from before reports carried `failure_count`
EARLIER_PASSING_STDOUT = [
    (("--check", "all", "--trials", "20"),
     "2ccedbbb196be59da6aeab5a9f287c1784dcef6be29850f450570e1a59180910"),
    (("--check", "fd_bridge", "--trials", "60", "--seed", "9", "--max-len", "20"),
     "41599571a0b96c1166d1f75f8efc42c40ef3e7eeb64efbdcf6d0128d52ea92e7"),
]


@pytest.mark.parametrize("argv,expected", EARLIER_PASSING_STDOUT)
def test_passing_payload_extends_the_earlier_one(capsys, argv, expected):
    assert main(["verify", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    for report in payload["reports"]:
        assert report.pop("failure_count") == 0
    # what is left is the earlier payload, byte for byte: same keys, same values
    stdout = render_json(payload) + "\n"
    assert hashlib.sha256(stdout.encode()).hexdigest() == expected


def test_a_raised_library_error_fails_the_trial(capsys, monkeypatch):
    original = FiniteSeq.__mul__

    def broken(self, other):
        return _off_by_one_in_the_first_entry(original(self, other))

    # a shifted product can turn a divisor's entry to zero: the division raises ZeroEntry
    monkeypatch.setattr(FiniteSeq, "__mul__", broken)
    code = main(["verify", "--check", "all", "--trials", "50"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    payload = json.loads(captured.out)
    assert payload["all_passed"] is False
    failures = [text for report in payload["reports"] for text in report["failures"]]
    assert any(re.fullmatch(r"trial \d+: ZeroEntry: zero entry at index \d+", t) for t in failures)


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
    "kernel,line",
    [("difference", "h=1 difference bridge"), ("mean_filter", "h=1 mean bridge")],
)
def test_fd_bridge_checks_the_unit_grid_against_raw_oracles(monkeypatch, kernel, line):
    original = getattr(grid, kernel)

    def skewed_on_the_unit_grid(g):
        out = original(g)
        if (g.origin, g.step) != (0, 1):
            return out
        return grid.GridFunction(0, 1, _off_by_one_in_the_first_entry(out.samples))

    monkeypatch.setattr(grid, kernel, skewed_on_the_unit_grid)
    report = run_check(CheckSpec("fd_bridge", trials=10, seed=7, min_length=2, max_length=6))
    assert report.passed is False
    assert any(line in failure for failure in report.failures)


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


def test_trial_count_limit_is_a_domain_error(capsys, monkeypatch):
    def must_not_run(spec):
        raise AssertionError("a check ran past the trial limit")

    # were the limit not checked, the command would exit 4 here, not run 10001 trials
    monkeypatch.setattr(verify, "run_check", must_not_run)
    for check in ("all", "ftc"):
        assert main(["verify", "--check", check, "--trials", "10001"]) == 3
        assert capsys.readouterr().err == "seqcalc: trials must be <= 10000, got 10001\n"

"""Acceptance gate: one test per criterion, every assertion exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Everything here is zero-tolerance: the library computes over
exact rationals, so each identity is asserted with equality, never with an
epsilon.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

from seqcalc import (
    FiniteSeq,
    antiderivative,
    classify_convexity,
    collinearity_determinant,
    definite_integral,
    derivative,
    derivative_error,
    dm_via_determinant,
    effective_degree,
    lagrange_poly,
    parse_operator_poly,
    sample_function,
    top,
)
from seqcalc.lagrange import interpolation_determinants
from seqcalc.seqio import FORMATS, parse_sequence_text, render_sequence
from seqcalc.verify import CheckSpec, geometric_sequence, random_ratios, run_check

from test_parser import random_expr

ROOT = Path(__file__).resolve().parents[1]

RANDOMIZED_CHECKS = (
    "product_rule",
    "quotient_rule",
    "inverse_rule",
    "mean_inverse",
    "int_by_parts",
    "antiderivative_roundtrip",
    "partial_sums",
    "hod_binomial",
    "symbolic_laws",
    "lagrange_leading",
    "lagrange_mth",
    "fd_bridge",
)


def cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "seqcalc", *argv],
        capture_output=True,
        env=env,
        cwd=ROOT,
        text=True,
    )


def test_criterion_1_randomized_identity_checks():
    """verify --check all --trials 500 --seed 42 --min-len 2 --max-len 12 exits 0."""
    result = cli(
        "verify", "--check", "all", "--trials", "500", "--seed", "42",
        "--min-len", "2", "--max-len", "12",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["all_passed"] is True
    by_name = {r["name"]: r for r in payload["reports"]}
    for name in RANDOMIZED_CHECKS:
        report = by_name[name]
        assert report["passed"] and report["failures"] == [], name
        assert report["trials_run"] >= 500, name
    print("ACCEPTANCE criterion 1 (randomized checks, 500 trials, seed 42): PASS")


def test_criterion_2_exhaustive_small_instances():
    """ftc, convexity_equivalence, det_equals_d2 over all 625 length-4 integer sequences."""
    count = 0
    for combo in product(range(-2, 3), repeat=4):
        s = FiniteSeq(combo)

        for a in range(1, 5):
            for b in range(a, 5):
                direct = sum((s.at(j) for j in range(a, b + 1)), Fraction(0))
                assert definite_integral(s, a, b) == direct
                for c in (Fraction(0), Fraction(5, 3)):
                    integral = antiderivative(s, c)
                    assert integral.at(b + 1) - integral.at(a) == direct
                count += 1

        report = classify_convexity(s)
        dets = [collinearity_determinant(s, i) for i in (1, 2)]
        second = derivative(s, 2)
        assert dets == [second.at(1), second.at(2)]
        no_collinear = all(d != 0 for d in dets)
        assert report.strictly_convex == (no_collinear and all(d > 0 for d in dets))
        assert report.strictly_convex == all(d > 0 for d in dets)
        assert report.strictly_concave == (no_collinear and all(d < 0 for d in dets))
        assert report.strictly_concave == all(d < 0 for d in dets)
    assert count == 625 * 10

    for name in ("ftc", "convexity_equivalence", "det_equals_d2"):
        report = run_check(CheckSpec(name, trials=1, seed=42, min_length=2, max_length=12))
        assert report.passed and report.trials_run >= 625, name
    print("ACCEPTANCE criterion 2 (exhaustive 625-sequence suites): PASS")


def test_criterion_3_geometric_and_arithmetic_integrals():
    """Geometric partial sums via defint over top(S); arithmetic S(i+1)=S(1)+i*d."""
    for q in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)):
        for n in range(3, 9):
            s = geometric_sequence(1, q, n)
            closed_form = s.at(1) * (1 - q ** (n - 1)) / (1 - q)
            result = cli(
                "defint",
                "--seq", "inline:" + render_sequence(top(s), "inline"),
                "--from", "1", "--to", str(n - 1),
            )
            assert result.returncode == 0, result.stderr
            assert json.loads(result.stdout)["value"] == str(closed_form)
            assert definite_integral(top(s), 1, n - 1) == closed_form

    rng = random.Random("criterion3")
    for _ in range(50):
        n = rng.randint(2, 12)
        start = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        d = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        s = FiniteSeq(start + i * d for i in range(n))
        ds = derivative(s)
        for i in range(1, n):
            assert definite_integral(ds, 1, i) == i * d
            assert s.at(i + 1) == s.at(1) + i * d

    report = run_check(CheckSpec("geometric_sum", trials=100, seed=42))
    assert report.passed
    report = run_check(CheckSpec("arithmetic_rule", trials=100, seed=42))
    assert report.passed
    print("ACCEPTANCE criterion 3 (geometric sums and arithmetic progressions): PASS")


def test_criterion_4_determinant_normalization():
    """m=2 triangle determinant equals D^2; m=3 needs the Cramer correction."""
    rng = random.Random("criterion4")
    for _ in range(100):
        n = rng.randint(3, 10)
        s = FiniteSeq.from_ratios(random_ratios(n, rng))
        i = rng.randint(1, n - 2)
        assert collinearity_determinant(s, i) == derivative(s, 2).at(i)
        assert dm_via_determinant(s, i, 2) == derivative(s, 2).at(i)

    cubes = FiniteSeq([1, 8, 27, 64])
    det_ms, det_v = interpolation_determinants(cubes, 1, 3)
    corrected = dm_via_determinant(cubes, 1, 3)
    assert corrected == 6 == derivative(cubes, 3).at(1)
    assert det_ms == 12
    assert det_ms != corrected
    assert abs(det_v) / factorial(3) == 2
    assert det_ms == 2 * corrected

    report = run_check(CheckSpec("det_normalization", trials=200, seed=42))
    assert report.passed
    print("ACCEPTANCE criterion 4 (determinant normalization, both assertions): PASS")


def test_criterion_5_lagrange_interpolation():
    """200 random rational sequences: nodes exact, m!*l_m law, degree law, m=0..6."""
    rng = random.Random("criterion5")
    for _ in range(200):
        n = rng.randint(7, 12)
        s = FiniteSeq.from_ratios(random_ratios(n, rng))
        for m in range(7):
            n0 = rng.randint(1, n - m)
            poly = lagrange_poly(s, n0, m)
            for j in range(n0, n0 + m + 1):
                assert poly.evaluate(j) == s.at(j)
            target = derivative(s, m).at(n0)
            assert factorial(m) * poly.coefficient(m) == target
            assert (effective_degree(s, n0, m) == m) == (target != 0)
    print("ACCEPTANCE criterion 5 (Lagrange interpolation on 200 random sequences): PASS")


def test_criterion_6_finite_difference_convergence():
    """f(x) = x^2 on x0 = 0: the exact derivative error equals h at each step."""
    for h in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        count = int(Fraction(2) / h) + 1
        g = sample_function(lambda x: x * x, 0, h, count)
        truth = FiniteSeq(2 * g.point(i) for i in range(1, count))
        assert derivative_error(g, truth) == h
    print("ACCEPTANCE criterion 6 (discrete derivative error ladder h, h/2, h/4): PASS")


def test_criterion_7_round_trips_and_determinism():
    """1000 seeded parser round-trips, ingestion round-trips, byte-identical CLI."""
    rng = random.Random("criterion7")
    for _ in range(1000):
        text, poly = random_expr(rng)
        assert parse_operator_poly(text) == poly
        assert parse_operator_poly(poly.render()) == poly

    for _ in range(100):
        n = rng.randint(0, 12)
        s = FiniteSeq.from_ratios(random_ratios(n, rng))
        for fmt in FORMATS:
            assert parse_sequence_text(render_sequence(s, fmt), fmt) == s

    invocations = (
        ("classify", "--seq", "inline:1,4,9,16"),
        ("verify", "--check", "fd_bridge", "--trials", "50", "--seed", "9"),
        ("simplify", "--op", "(E-I)^3 + M"),
    )
    for argv in invocations:
        first, second = cli(*argv), cli(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty output
    print("ACCEPTANCE criterion 7 (round-trips and byte-determinism): PASS")

"""Named, seeded, reproducible identity checks.

Every identity the library implements is restated here as a catalog check
that runs over randomized rational instances (and, where the domain is a
single small sequence, an exhaustive integer sweep with values -2..2 and
length 4).  Each check carries its own brute-force oracle, written at the
raw index level so it shares no code with the implementation under test.

Reports are deterministic: trial t draws from a generator seeded by
(name, seed, t), so results do not depend on execution order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial

from . import calculus, grid
from .analysis import classify_convexity, collinearity_determinant
from .errors import BadParameter, UnknownCheck, quoted
from .generators import (
    arithmetic_sequence,
    geometric_sequence,
    random_nonzero_rational,
    random_rational,
    random_rational_sequence,
    random_zero_free_sequence,
)
from .lagrange import (
    dm_via_determinant,
    effective_degree,
    interpolation_determinants,
    lagrange_mth_derivative,
    lagrange_poly,
)
from .operators import BOTTOM, DIFFERENCE, MIDDLE, TOP, OperatorPoly, bottom, middle, top
from .sequences import FiniteSeq


MAX_LENGTH = 100
"""Largest sequence length a check may draw (``--min-len``, ``--max-len``).

Each trial builds its sequences at a length drawn up to ``max_length``, so
this bounds the work of one trial.  A zero-free sequence is drawn by
resampling the whole sequence until no entry is zero, about (19/18)**n
draws: at this bound one trial of every check takes a fraction of a second,
and at n = 200 one zero-free draw takes seconds.
"""


@dataclass(frozen=True)
class CheckSpec:
    name: str
    trials: int = 200
    seed: int = 0
    min_length: int = 2
    max_length: int = 12

    def __post_init__(self):
        if self.trials < 1:
            raise BadParameter(f"trials must be >= 1, got {self.trials}")
        if self.min_length < 2:
            raise BadParameter(f"min length must be >= 2, got {self.min_length}")
        for label, length in (("min", self.min_length), ("max", self.max_length)):
            if length > MAX_LENGTH:
                raise BadParameter(f"{label} length must be <= {MAX_LENGTH}, got {quoted(length)}")
        if self.max_length < self.min_length:
            raise BadParameter(
                f"max length {self.max_length} below min length {self.min_length}"
            )


@dataclass(frozen=True)
class CheckReport:
    name: str
    trials_run: int
    failures: tuple[str, ...]
    passed: bool

    @staticmethod
    def build(name: str, trials_run: int, failures: list[str]) -> CheckReport:
        return CheckReport(name, trials_run, tuple(failures), passed=not failures)


def _rng(spec: CheckSpec, trial: int) -> random.Random:
    return random.Random(f"{spec.name}:{spec.seed}:{trial}")


def _length(spec: CheckSpec, rng: random.Random, floor: int = 2) -> int:
    lo = max(spec.min_length, floor)
    hi = max(spec.max_length, lo)
    return rng.randint(lo, hi)


def _inline(seq: FiniteSeq) -> str:
    return ",".join(str(v) for v in seq.values)


# ---------------------------------------------------------------------------
# raw-index oracles (no shared code with the modules under test)

def _o_diff(vals):
    return [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]


def _o_diff_m(vals, m):
    out = list(vals)
    for _ in range(m):
        out = _o_diff(out)
    return out


def _o_partial_sums(vals):
    out, acc = [], Fraction(0)
    for v in vals:
        acc += v
        out.append(acc)
    return out


def _o_sum(vals, a, b):
    acc = Fraction(0)
    for j in range(a, b + 1):
        acc += vals[j - 1]
    return acc


def _o_det(matrix):
    """Cofactor expansion along the first column."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = Fraction(0)
    for r in range(n):
        minor = [row[1:] for k, row in enumerate(matrix) if k != r]
        total += (-1) ** r * matrix[r][0] * _o_det(minor)
    return total


def _o_lagrange_value(xs, ys, x):
    """Barycentric-free basis form of the interpolant, evaluated at x."""
    total = Fraction(0)
    for j, yj in enumerate(ys):
        term = yj
        for k, xk in enumerate(xs):
            if k != j:
                term *= Fraction(x - xk, xs[j] - xk)
        total += term
    return total


def _o_leading_coefficient(xs, ys):
    """Top divided difference: sum of y_j / prod_{k != j} (x_j - x_k) over integer nodes."""
    total = Fraction(0)
    for j, yj in enumerate(ys):
        weight = 1
        for k, xk in enumerate(xs):
            if k != j:
                weight *= xs[j] - xk
        total += yj / weight
    return total


def _exhaustive_integer_sequences(length=4, lo=-2, hi=2):
    for combo in product(range(lo, hi + 1), repeat=length):
        yield FiniteSeq(combo)


# ---------------------------------------------------------------------------
# checks

def _check_product_rule(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        g = random_rational_sequence(n, rng)
        lhs = calculus.derivative(s * g)
        oracle = _o_diff([a * b for a, b in zip(s.values, g.values)])
        symmetric = calculus.derivative(s) * middle(g) + middle(s) * calculus.derivative(g)
        split = bottom(s) * bottom(g) - top(s) * top(g)
        left_form = calculus.derivative(s) * bottom(g) + top(s) * calculus.derivative(g)
        right_form = calculus.derivative(s) * top(g) + bottom(s) * calculus.derivative(g)
        cases += 1
        for label, candidate in (
            ("D(SG)", lhs),
            ("symmetric", symmetric),
            ("split", split),
            ("bottom-weighted", left_form),
            ("top-weighted", right_form),
        ):
            if list(candidate.values) != oracle:
                failures.append(f"trial {t}: {label} mismatch for S={_inline(s)} G={_inline(g)}")
    return cases, failures


def _check_quotient_rule(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        g = random_zero_free_sequence(n, rng)
        lhs = calculus.derivative(s / g)
        oracle = _o_diff([a / b for a, b in zip(s.values, g.values)])
        rhs = (calculus.derivative(s) * middle(g) - calculus.derivative(g) * middle(s)) / (
            top(g) * bottom(g)
        )
        cases += 1
        if list(lhs.values) != oracle or list(rhs.values) != oracle:
            failures.append(f"trial {t}: S={_inline(s)} G={_inline(g)}")
    return cases, failures


def _check_inverse_rule(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        g = random_zero_free_sequence(n, rng)
        lhs = calculus.derivative(g.inverse())
        oracle = _o_diff([1 / v for v in g.values])
        rhs = -(calculus.derivative(g) / (top(g) * bottom(g)))
        cases += 1
        if list(lhs.values) != oracle or list(rhs.values) != oracle:
            failures.append(f"trial {t}: G={_inline(g)}")
    return cases, failures


def _check_mean_inverse(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        g = random_zero_free_sequence(n, rng)
        lhs = middle(g.inverse())
        oracle = [(1 / g.values[i] + 1 / g.values[i + 1]) / 2 for i in range(n - 1)]
        rhs = middle(g) / (top(g) * bottom(g))
        cases += 1
        if list(lhs.values) != oracle or list(rhs.values) != oracle:
            failures.append(f"trial {t}: G={_inline(g)}")
    return cases, failures


def _check_antiderivative_roundtrip(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        c = random_rational(rng)
        integral = calculus.antiderivative(s, c)
        oracle = [c] + [c + p for p in _o_partial_sums(s.values)]
        cases += 1
        if list(integral.values) != oracle:
            failures.append(f"trial {t}: cumulative-sum oracle, S={_inline(s)} c={c}")
        if calculus.derivative(integral) != s:
            failures.append(f"trial {t}: D(J S) != S for S={_inline(s)} c={c}")
        if calculus.antiderivative(calculus.derivative(s), s.at(1)) != s:
            failures.append(f"trial {t}: J(D S) != S for S={_inline(s)}")
    return cases, failures


def _check_partial_sums(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        c = random_rational(rng)
        shifted = bottom(calculus.antiderivative(s, c))
        oracle = [p + c for p in _o_partial_sums(s.values)]
        cases += 1
        if list(shifted.values) != oracle:
            failures.append(f"trial {t}: S={_inline(s)} c={c}")
    return cases, failures


def _check_hod_binomial(spec: CheckSpec):
    failures, cases = [], 0
    for m in range(9):
        expected = OperatorPoly({(k, m - k): (-1) ** k * comb(m, k) for k in range(m + 1)})
        cases += 1
        if DIFFERENCE**m != expected:
            failures.append(f"coefficients of D^{m} differ from the binomial expansion")
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        m = rng.randint(0, min(8, n))
        applied = (DIFFERENCE**m).apply(s)
        oracle = _o_diff_m(list(s.values), m)
        cases += 1
        if list(applied.values) != oracle or calculus.derivative(s, m) != applied:
            failures.append(f"trial {t}: D^{m} on S={_inline(s)}")
    return cases, failures


def _check_int_by_parts(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        g = random_rational_sequence(n, rng)
        c0 = random_rational(rng)
        c1 = s.at(1) * g.at(1) - c0
        lhs = calculus.antiderivative(calculus.derivative(s) * middle(g), c0)
        rhs = s * g - calculus.antiderivative(middle(s) * calculus.derivative(g), c1)
        sv, gv = s.values, g.values
        raw_terms = [
            (sv[j + 1] - sv[j]) * (gv[j] + gv[j + 1]) / 2 for j in range(n - 1)
        ]
        oracle = [c0] + [c0 + p for p in _o_partial_sums(raw_terms)]
        cases += 1
        if list(lhs.values) != oracle:
            failures.append(f"trial {t}: raw oracle, S={_inline(s)} G={_inline(g)}")
        elif calculus.derivative(lhs) != calculus.derivative(rhs):
            failures.append(f"trial {t}: derivatives differ, S={_inline(s)} G={_inline(g)}")
        elif lhs.at(1) != rhs.at(1) or lhs != rhs:
            failures.append(f"trial {t}: sides differ, S={_inline(s)} G={_inline(g)}")
    return cases, failures


def _check_geometric_rule(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        start = random_nonzero_rational(rng)
        q = random_nonzero_rational(rng)
        s = geometric_sequence(start, q, n)
        lhs = calculus.derivative(s)
        oracle = _o_diff(list(s.values))
        rhs = top(s) * (q - 1)
        cases += 1
        if list(lhs.values) != oracle or list(rhs.values) != oracle:
            failures.append(f"trial {t}: start={start} q={q} n={n}")
    return cases, failures


def _check_arithmetic_rule(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        start = random_rational(rng)
        d = random_rational(rng)
        s = arithmetic_sequence(start, d, n)
        ds = calculus.derivative(s)
        cases += 1
        if ds != FiniteSeq.constant(d, n - 1):
            failures.append(f"trial {t}: D S not constant d={d}")
            continue
        for i in range(1, n):
            integral = calculus.definite_integral(ds, 1, i)
            if integral != i * d or s.at(i + 1) != s.at(1) + i * d:
                failures.append(f"trial {t}: S(i+1) != S(1) + i*d at i={i}, d={d}")
                break
    return cases, failures


def _check_geometric_sum(spec: CheckSpec):
    failures, cases = [], 0

    def run_instance(label, start, q, n):
        s = geometric_sequence(start, q, n)
        lhs = calculus.definite_integral(top(s), 1, n - 1)
        oracle = _o_sum(list(s.values), 1, n - 1)
        closed = s.at(1) * (1 - q ** (n - 1)) / (1 - q)
        telescoped = (s.at(n) - s.at(1)) / (q - 1)
        if not lhs == oracle == closed == telescoped:
            failures.append(f"{label}: start={start} q={q} n={n}")

    for q in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)):
        for n in range(3, 9):
            cases += 1
            run_instance("ladder", Fraction(1), q, n)
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng, floor=3)
        start = random_nonzero_rational(rng)
        q = random_nonzero_rational(rng)
        while q == 1:
            q = random_nonzero_rational(rng)
        cases += 1
        run_instance(f"trial {t}", start, q, n)
    return cases, failures


def _check_ftc(spec: CheckSpec):
    failures, cases = [], 0

    def run_instance(label, s, a, b, constants):
        nonlocal cases
        cases += 1
        vals = list(s.values)
        oracle = _o_sum(vals, a, b)
        integral = calculus.definite_integral(s, a, b)
        if integral != oracle:
            failures.append(f"{label}: sum oracle mismatch S={_inline(s)} a={a} b={b}")
            return
        for c in constants:
            anti = calculus.antiderivative(s, c)
            if anti.at(b + 1) - anti.at(a) != oracle:
                failures.append(f"{label}: I(b+1)-I(a) mismatch S={_inline(s)} a={a} b={b} c={c}")
                return

    for s in _exhaustive_integer_sequences():
        for a in range(1, 5):
            for b in range(a, 5):
                run_instance("exhaustive", s, a, b, (Fraction(0), Fraction(5, 3)))
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        a = rng.randint(1, n)
        b = rng.randint(a, n)
        run_instance(f"trial {t}", s, a, b, (random_rational(rng),))
    return cases, failures


def _convexity_predicates(s: FiniteSeq):
    n = len(s)
    dets = [collinearity_determinant(s, i) for i in range(1, n - 1)]
    oracle_dets = [
        _o_det(
            [
                [Fraction(i + r), s.at(i + r), Fraction(1)]
                for r in range(3)
            ]
        )
        for i in range(1, n - 1)
    ]
    report = classify_convexity(s)
    no_collinear = all(d != 0 for d in dets)
    all_positive = all(d > 0 for d in dets)
    all_negative = all(d < 0 for d in dets)
    return report, dets, oracle_dets, no_collinear, all_positive, all_negative


def _check_convexity_equivalence(spec: CheckSpec):
    failures, cases = [], 0

    def run_instance(label, s):
        nonlocal cases
        cases += 1
        report, dets, oracle_dets, no_collinear, all_pos, all_neg = _convexity_predicates(s)
        if dets != oracle_dets:
            failures.append(f"{label}: determinant oracle mismatch S={_inline(s)}")
            return
        convex_equiv = report.strictly_convex == (no_collinear and all_pos) == all_pos
        concave_equiv = report.strictly_concave == (no_collinear and all_neg) == all_neg
        if not (convex_equiv and concave_equiv):
            failures.append(f"{label}: equivalence broken S={_inline(s)}")

    for s in _exhaustive_integer_sequences():
        run_instance("exhaustive", s)
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng, floor=3)
        run_instance(f"trial {t}", random_rational_sequence(n, rng))
    return cases, failures


def _check_det_equals_d2(spec: CheckSpec):
    failures, cases = [], 0

    def run_instance(label, s):
        nonlocal cases
        cases += 1
        second = calculus.derivative(s, 2)
        oracle = _o_diff_m(list(s.values), 2)
        for i in range(1, len(s) - 1):
            det = collinearity_determinant(s, i)
            if det != second.at(i) or det != oracle[i - 1]:
                failures.append(f"{label}: i={i} S={_inline(s)}")
                return
        neg = FiniteSeq([-v for v in s.values])
        for i in range(1, len(s) - 1):
            if collinearity_determinant(neg, i) != -collinearity_determinant(s, i):
                failures.append(f"{label}: negation duality at i={i} S={_inline(s)}")
                return

    for s in _exhaustive_integer_sequences():
        run_instance("exhaustive", s)
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng, floor=3)
        run_instance(f"trial {t}", random_rational_sequence(n, rng))
    return cases, failures


def _check_lagrange_leading(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        m = rng.randint(0, min(6, n - 1))
        n0 = rng.randint(1, n - m)
        poly = lagrange_poly(s, n0, m)
        leading = factorial(m) * poly.coefficient(m)
        oracle = _o_diff_m(list(s.values), m)[n0 - 1]
        xs = list(range(n0, n0 + m + 1))
        divided = _o_leading_coefficient(xs, [s.values[j - 1] for j in xs])
        deg = effective_degree(s, n0, m)
        cases += 1
        if poly.coefficient(m) != divided:
            failures.append(f"trial {t}: divided difference m={m} n0={n0} S={_inline(s)}")
        elif leading != oracle or lagrange_mth_derivative(s, n0, m) != oracle:
            failures.append(f"trial {t}: m={m} n0={n0} S={_inline(s)}")
        elif (deg == m) != (oracle != 0):
            failures.append(f"trial {t}: degree law m={m} n0={n0} S={_inline(s)}")
    return cases, failures


def _check_lagrange_mth(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        m = rng.randint(0, min(6, n - 1))
        n0 = rng.randint(1, n - m)
        poly = lagrange_poly(s, n0, m)
        xs = list(range(n0, n0 + m + 1))
        ys = [s.at(j) for j in xs]
        cases += 1
        if any(poly.evaluate(j) != s.at(j) for j in xs):
            failures.append(f"trial {t}: node mismatch m={m} n0={n0} S={_inline(s)}")
            continue
        probe = random_rational(rng)
        if poly.evaluate(probe) != _o_lagrange_value(xs, ys, probe):
            failures.append(f"trial {t}: basis-form mismatch at x={probe} S={_inline(s)}")
            continue
        oracle = _o_diff_m(list(s.values), m)[n0 - 1]
        if lagrange_mth_derivative(s, n0, m) != oracle:
            failures.append(f"trial {t}: m-th derivative m={m} n0={n0} S={_inline(s)}")
    return cases, failures


def _check_det_normalization(spec: CheckSpec):
    failures, cases = [], 0

    # Frozen instance pinning the normalization: cubes, order 3.
    cubes = FiniteSeq([1, 8, 27, 64])
    det_ms, det_v = interpolation_determinants(cubes, 1, 3)
    corrected = dm_via_determinant(cubes, 1, 3)
    cases += 1
    if not (corrected == 6 and det_ms == 12 and abs(det_v) == 12 and det_ms != corrected):
        failures.append(
            f"cubes instance: corrected={corrected} bare={det_ms} detV={det_v}"
        )
    cases += 1
    oracle_det_v = _o_det([[Fraction((1 + r) ** (3 - k)) for k in range(4)] for r in range(4)])
    if abs(det_v) / factorial(3) != 2 or oracle_det_v != det_v:
        failures.append(f"cubes instance: node determinant {det_v} not the expected +12")

    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng, floor=3)
        s = random_rational_sequence(n, rng)
        i = rng.randint(1, n - 2)
        second = _o_diff_m(list(s.values), 2)[i - 1]
        cases += 1
        # The triangle determinant (columns x, S, 1) is exact at order 2.
        if collinearity_determinant(s, i) != second:
            failures.append(f"trial {t}: order-2 A-determinant, S={_inline(s)} i={i}")
            continue
        m = rng.randint(1, min(4, n - 1))
        i2 = rng.randint(1, n - m)
        oracle = _o_diff_m(list(s.values), m)[i2 - 1]
        if dm_via_determinant(s, i2, m) != oracle:
            failures.append(f"trial {t}: corrected route m={m} i={i2} S={_inline(s)}")
            continue
        # Node determinant law: |det V| is 1!*2!*...*m!, so the bare
        # data-column determinant can only match D^m S up to m = 2.
        det_ms, det_v = interpolation_determinants(s, i2, m)
        superfact = 1
        for k in range(1, m + 1):
            superfact *= factorial(k)
        if abs(det_v) != superfact:
            failures.append(f"trial {t}: node determinant law m={m}")
            continue
        if m >= 3 and oracle != 0 and det_ms == oracle:
            failures.append(f"trial {t}: bare determinant unexpectedly exact at m={m}")
    return cases, failures


def _random_poly(rng: random.Random, max_terms: int = 4, max_power: int = 3) -> OperatorPoly:
    pairs = []
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, max_power), rng.randint(0, max_power))
        pairs.append((key, random_rational(rng)))
    return OperatorPoly(pairs)


def _random_homogeneous_poly(rng: random.Random, max_degree: int = 3) -> OperatorPoly:
    while True:
        degree = rng.randint(0, max_degree)
        pairs = []
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(0, degree)
            pairs.append(((a, degree - a), random_nonzero_rational(rng)))
        poly = OperatorPoly(pairs)
        if not poly.is_zero():
            return poly


def _check_symbolic_laws(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        p = _random_poly(rng)
        q = _random_poly(rng)
        r = _random_poly(rng)
        cases += 1
        laws = (
            ("add commutes", p + q == q + p),
            ("mul commutes", p * q == q * p),
            ("add associates", p + (q + r) == (p + q) + r),
            ("mul associates", p * (q * r) == (p * q) * r),
            ("distributes", p * (q + r) == p * q + p * r),
        )
        broken = [label for label, ok in laws if not ok]
        if broken:
            failures.append(f"trial {t}: {', '.join(broken)}")
            continue

        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        g = random_rational_sequence(n, rng)
        lam = random_rational(rng)
        if p.apply(s * lam + g) != p.apply(s) * lam + p.apply(g):
            failures.append(f"trial {t}: linearity, S={_inline(s)} G={_inline(g)} lam={lam}")
            continue
        hp = _random_homogeneous_poly(rng)
        hq = _random_homogeneous_poly(rng)
        if (hp * hq).apply(s) != hp.apply(hq.apply(s)):
            failures.append(f"trial {t}: homogeneous composition, S={_inline(s)}")
            continue
        if not p.is_zero() and p.apply(FiniteSeq()) != FiniteSeq():
            failures.append(f"trial {t}: empty-sequence convention")
    return cases, failures


def _check_fd_bridge(spec: CheckSpec):
    failures, cases = [], 0
    for t in range(spec.trials):
        rng = _rng(spec, t)
        n = _length(spec, rng)
        s = random_rational_sequence(n, rng)
        h = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        x0 = random_rational(rng)
        g = grid.GridFunction(x0, h, s)
        cases += 1

        diff = grid.difference(g)
        shifted = grid.displacement(g, 1).samples
        held = grid.displacement(g, 0).samples.prefix(n - 1)
        if diff.samples != shifted - held:
            failures.append(f"trial {t}: difference vs displacement, S={_inline(s)}")
            continue
        mean = grid.mean_filter(g)
        if mean.samples != (shifted + held) * Fraction(1, 2):
            failures.append(f"trial {t}: mean vs displacement, S={_inline(s)}")
            continue
        if grid.discrete_derivative(g).samples != diff.samples * (1 / h):
            failures.append(f"trial {t}: derivative scaling h={h}, S={_inline(s)}")
            continue
        oracle = [(s.values[i + 1] - s.values[i]) / h for i in range(n - 1)]
        if list(grid.discrete_derivative(g).samples.values) != oracle:
            failures.append(f"trial {t}: derivative oracle h={h}, S={_inline(s)}")
            continue

        unit = grid.GridFunction(0, 1, s)
        if grid.difference(unit).samples != DIFFERENCE.apply(s):
            failures.append(f"trial {t}: h=1 difference bridge, S={_inline(s)}")
            continue
        if grid.mean_filter(unit).samples != MIDDLE.apply(s):
            failures.append(f"trial {t}: h=1 mean bridge, S={_inline(s)}")
            continue
        if TOP.apply(s) != s.prefix(n - 1) or BOTTOM.apply(s) != grid.displacement(unit, 1).samples:
            failures.append(f"trial {t}: top/bottom prefix law, S={_inline(s)}")
            continue

        a = rng.randint(0, 3)
        b = rng.randint(0, 3)
        sign = rng.choice([1, -1])
        a, b = sign * a, sign * b
        # Same-sign shifts are the cases where both composition orders stay
        # defined; negative shifts additionally need enough samples to drop.
        if sign > 0 or abs(a) + abs(b) <= n:
            stepped = grid.displacement(grid.displacement(g, a), b)
            direct = grid.displacement(g, a + b)
            if stepped != direct:
                failures.append(f"trial {t}: displacement group law a={a} b={b}")
    return cases, failures


CATALOG = {
    "product_rule": _check_product_rule,
    "quotient_rule": _check_quotient_rule,
    "inverse_rule": _check_inverse_rule,
    "mean_inverse": _check_mean_inverse,
    "antiderivative_roundtrip": _check_antiderivative_roundtrip,
    "partial_sums": _check_partial_sums,
    "hod_binomial": _check_hod_binomial,
    "int_by_parts": _check_int_by_parts,
    "geometric_rule": _check_geometric_rule,
    "arithmetic_rule": _check_arithmetic_rule,
    "geometric_sum": _check_geometric_sum,
    "ftc": _check_ftc,
    "convexity_equivalence": _check_convexity_equivalence,
    "det_equals_d2": _check_det_equals_d2,
    "lagrange_leading": _check_lagrange_leading,
    "lagrange_mth": _check_lagrange_mth,
    "det_normalization": _check_det_normalization,
    "symbolic_laws": _check_symbolic_laws,
    "fd_bridge": _check_fd_bridge,
}


def check_names() -> tuple[str, ...]:
    return tuple(CATALOG)


def run_check(spec: CheckSpec) -> CheckReport:
    try:
        fn = CATALOG[spec.name]
    except KeyError:
        raise UnknownCheck(spec.name, check_names()) from None
    cases, failures = fn(spec)
    return CheckReport.build(spec.name, cases, failures)


def run_all(trials: int = 200, seed: int = 0, min_length: int = 2, max_length: int = 12):
    """Run the whole catalog in its fixed order."""
    return [
        run_check(CheckSpec(name, trials, seed, min_length, max_length))
        for name in CATALOG
    ]

"""Named, seeded, reproducible identity checks.

Every identity the library implements is restated here as a catalog check
that runs over randomized rational instances (and, where the domain is a
single small sequence, an exhaustive integer sweep with values -2..2 and
length 4).  Each check carries its own brute-force oracle, written at the
raw index level so it shares no code with the implementation under test.

A check is its body: a generator ``body(spec, rng)`` that draws one instance
(its length, through ``_length``, where its draw order needs it) and yields
a text for each failure it finds.  ``run_check`` is the one driver: it runs
the check's fixed instances in ``_FIXED``, then ``spec.trials`` seeded
trials, counts each instance as a case and prefixes each failure with the
instance's label (``exhaustive: ``, ``trial t: `` and so on).  A
``SeqCalcError`` raised while a case runs is one failure of that case.  A
report keeps the first ``MAX_FAILURES`` failure texts and counts them all.

Reports are deterministic: trial t draws from a generator seeded by
(name, seed, t), so results do not depend on execution order.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import chain, product
from math import comb, factorial

from . import calculus, grid
from .analysis import classify_convexity, collinearity_determinant
from .errors import BadParameter, SeqCalcError, UnknownCheck, quoted
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
from .operators import BOTTOM, DIFFERENCE, TOP, OperatorPoly, bottom, middle, top
from .sequences import FiniteSeq


MAX_LENGTH = 100
"""Largest sequence length a check may draw (``--min-len``, ``--max-len``).

Each trial builds its sequences at a length drawn up to ``max_length``, so
this bounds the work of one trial: at this bound one trial of every check
takes a fraction of a second.
"""

MAX_FAILURES = 10
"""Most failure texts a check report keeps; ``failure_count`` counts them all."""


class CheckSpec(
    namedtuple("CheckSpec", "name trials seed min_length max_length", defaults=(200, 0, 2, 12))
):
    """One check's run: its name, trial count, seed and sequence length bounds."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.trials < 1:
            raise BadParameter(f"trials must be >= 1, got {spec.trials}")
        if spec.min_length < 2:
            raise BadParameter(f"min length must be >= 2, got {spec.min_length}")
        for label, length in (("min", spec.min_length), ("max", spec.max_length)):
            if length > MAX_LENGTH:
                raise BadParameter(f"{label} length must be <= {MAX_LENGTH}, got {quoted(length)}")
        if spec.max_length < spec.min_length:
            raise BadParameter(
                f"max length {spec.max_length} below min length {spec.min_length}"
            )
        return spec


CheckReport = namedtuple("CheckReport", "name trials_run failures failure_count passed")


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


# ---------------------------------------------------------------------------
# check bodies, in catalog order; each yields its failure texts

def _check_product_rule(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s = random_rational_sequence(n, rng)
    g = random_rational_sequence(n, rng)
    oracle = _o_diff([a * b for a, b in zip(s.values, g.values)])
    for label, candidate in (
        ("D(SG)", calculus.derivative(s * g)),
        ("symmetric", calculus.derivative(s) * middle(g) + middle(s) * calculus.derivative(g)),
        ("split", bottom(s) * bottom(g) - top(s) * top(g)),
        ("bottom-weighted", calculus.derivative(s) * bottom(g) + top(s) * calculus.derivative(g)),
        ("top-weighted", calculus.derivative(s) * top(g) + bottom(s) * calculus.derivative(g)),
    ):
        if list(candidate.values) != oracle:
            yield f"{label} mismatch for S={_inline(s)} G={_inline(g)}"


def _check_quotient_rule(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s = random_rational_sequence(n, rng)
    g = random_zero_free_sequence(n, rng)
    lhs = calculus.derivative(s / g)
    oracle = _o_diff([a / b for a, b in zip(s.values, g.values)])
    rhs = (calculus.derivative(s) * middle(g) - calculus.derivative(g) * middle(s)) / (
        top(g) * bottom(g)
    )
    if list(lhs.values) != oracle or list(rhs.values) != oracle:
        yield f"S={_inline(s)} G={_inline(g)}"


def _check_inverse_rule(spec: CheckSpec, rng: random.Random):
    g = random_zero_free_sequence(_length(spec, rng), rng)
    lhs = calculus.derivative(g.inverse())
    oracle = _o_diff([1 / v for v in g.values])
    rhs = -(calculus.derivative(g) / (top(g) * bottom(g)))
    if list(lhs.values) != oracle or list(rhs.values) != oracle:
        yield f"G={_inline(g)}"


def _check_mean_inverse(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    g = random_zero_free_sequence(n, rng)
    lhs = middle(g.inverse())
    oracle = [(1 / g.values[i] + 1 / g.values[i + 1]) / 2 for i in range(n - 1)]
    rhs = middle(g) / (top(g) * bottom(g))
    if list(lhs.values) != oracle or list(rhs.values) != oracle:
        yield f"G={_inline(g)}"


def _check_antiderivative_roundtrip(spec: CheckSpec, rng: random.Random):
    s = random_rational_sequence(_length(spec, rng), rng)
    c = random_rational(rng)
    integral = calculus.antiderivative(s, c)
    oracle = [c] + [c + p for p in _o_partial_sums(s.values)]
    if list(integral.values) != oracle:
        yield f"cumulative-sum oracle, S={_inline(s)} c={c}"
    if calculus.derivative(integral) != s:
        yield f"D(J S) != S for S={_inline(s)} c={c}"
    if calculus.antiderivative(calculus.derivative(s), s.at(1)) != s:
        yield f"J(D S) != S for S={_inline(s)}"


def _check_partial_sums(spec: CheckSpec, rng: random.Random):
    s = random_rational_sequence(_length(spec, rng), rng)
    c = random_rational(rng)
    shifted = bottom(calculus.antiderivative(s, c))
    if list(shifted.values) != [p + c for p in _o_partial_sums(s.values)]:
        yield f"S={_inline(s)} c={c}"


def _binomial_row(m):
    expected = OperatorPoly({(k, m - k): (-1) ** k * comb(m, k) for k in range(m + 1)})
    if DIFFERENCE**m != expected:
        yield f"coefficients of D^{m} differ from the binomial expansion"


def _check_hod_binomial(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s = random_rational_sequence(n, rng)
    m = rng.randint(0, min(8, n))
    applied = (DIFFERENCE**m).apply(s)
    oracle = _o_diff_m(list(s.values), m)
    if list(applied.values) != oracle or calculus.derivative(s, m) != applied:
        yield f"D^{m} on S={_inline(s)}"


def _check_int_by_parts(spec: CheckSpec, rng: random.Random):
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
    if list(lhs.values) != oracle:
        yield f"raw oracle, S={_inline(s)} G={_inline(g)}"
    elif calculus.derivative(lhs) != calculus.derivative(rhs):
        yield f"derivatives differ, S={_inline(s)} G={_inline(g)}"
    elif lhs.at(1) != rhs.at(1) or lhs != rhs:
        yield f"sides differ, S={_inline(s)} G={_inline(g)}"


def _check_geometric_rule(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    start = random_nonzero_rational(rng)
    q = random_nonzero_rational(rng)
    s = geometric_sequence(start, q, n)
    lhs = calculus.derivative(s)
    oracle = _o_diff(list(s.values))
    rhs = top(s) * (q - 1)
    if list(lhs.values) != oracle or list(rhs.values) != oracle:
        yield f"start={start} q={q} n={n}"


def _check_arithmetic_rule(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    start = random_rational(rng)
    d = random_rational(rng)
    s = arithmetic_sequence(start, d, n)
    ds = calculus.derivative(s)
    if ds != FiniteSeq.constant(d, n - 1):
        yield f"D S not constant d={d}"
        return
    for i in range(1, n):
        integral = calculus.definite_integral(ds, 1, i)
        if integral != i * d or s.at(i + 1) != s.at(1) + i * d:
            yield f"S(i+1) != S(1) + i*d at i={i}, d={d}"
            return


def _geometric_sum(start, q, n):
    s = geometric_sequence(start, q, n)
    lhs = calculus.definite_integral(top(s), 1, n - 1)
    oracle = _o_sum(list(s.values), 1, n - 1)
    closed = s.at(1) * (1 - q ** (n - 1)) / (1 - q)
    telescoped = (s.at(n) - s.at(1)) / (q - 1)
    if not lhs == oracle == closed == telescoped:
        yield f"start={start} q={q} n={n}"


def _check_geometric_sum(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng, floor=3)
    start = random_nonzero_rational(rng)
    q = random_nonzero_rational(rng)
    while q == 1:
        q = random_nonzero_rational(rng)
    yield from _geometric_sum(start, q, n)


def _ftc(s, a, b, constants):
    vals = list(s.values)
    oracle = _o_sum(vals, a, b)
    integral = calculus.definite_integral(s, a, b)
    if integral != oracle:
        yield f"sum oracle mismatch S={_inline(s)} a={a} b={b}"
        return
    for c in constants:
        anti = calculus.antiderivative(s, c)
        if anti.at(b + 1) - anti.at(a) != oracle:
            yield f"I(b+1)-I(a) mismatch S={_inline(s)} a={a} b={b} c={c}"
            return


def _check_ftc(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s = random_rational_sequence(n, rng)
    a = rng.randint(1, n)
    b = rng.randint(a, n)
    yield from _ftc(s, a, b, (random_rational(rng),))


def _convexity_equivalence(s):
    windows = range(1, len(s) - 1)
    dets = [collinearity_determinant(s, i) for i in windows]
    oracle_dets = [
        _o_det([[Fraction(i + r), s.at(i + r), Fraction(1)] for r in range(3)]) for i in windows
    ]
    report = classify_convexity(s)
    if dets != oracle_dets:
        yield f"determinant oracle mismatch S={_inline(s)}"
        return
    no_collinear = all(d != 0 for d in dets)
    all_pos = all(d > 0 for d in dets)
    all_neg = all(d < 0 for d in dets)
    convex_equiv = report.strictly_convex == (no_collinear and all_pos) == all_pos
    concave_equiv = report.strictly_concave == (no_collinear and all_neg) == all_neg
    if not (convex_equiv and concave_equiv):
        yield f"equivalence broken S={_inline(s)}"


def _check_convexity_equivalence(spec: CheckSpec, rng: random.Random):
    yield from _convexity_equivalence(random_rational_sequence(_length(spec, rng, floor=3), rng))


def _det_equals_d2(s):
    second = calculus.derivative(s, 2)
    oracle = _o_diff_m(list(s.values), 2)
    for i in range(1, len(s) - 1):
        det = collinearity_determinant(s, i)
        if det != second.at(i) or det != oracle[i - 1]:
            yield f"i={i} S={_inline(s)}"
            return
    neg = FiniteSeq([-v for v in s.values])
    for i in range(1, len(s) - 1):
        if collinearity_determinant(neg, i) != -collinearity_determinant(s, i):
            yield f"negation duality at i={i} S={_inline(s)}"
            return


def _check_det_equals_d2(spec: CheckSpec, rng: random.Random):
    yield from _det_equals_d2(random_rational_sequence(_length(spec, rng, floor=3), rng))


def _check_lagrange_leading(spec: CheckSpec, rng: random.Random):
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
    if poly.coefficient(m) != divided:
        yield f"divided difference m={m} n0={n0} S={_inline(s)}"
    elif leading != oracle or lagrange_mth_derivative(s, n0, m) != oracle:
        yield f"m={m} n0={n0} S={_inline(s)}"
    elif (deg == m) != (oracle != 0):
        yield f"degree law m={m} n0={n0} S={_inline(s)}"


def _check_lagrange_mth(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s = random_rational_sequence(n, rng)
    m = rng.randint(0, min(6, n - 1))
    n0 = rng.randint(1, n - m)
    poly = lagrange_poly(s, n0, m)
    xs = list(range(n0, n0 + m + 1))
    ys = [s.at(j) for j in xs]
    if any(poly.evaluate(j) != s.at(j) for j in xs):
        yield f"node mismatch m={m} n0={n0} S={_inline(s)}"
        return
    probe = random_rational(rng)
    if poly.evaluate(probe) != _o_lagrange_value(xs, ys, probe):
        yield f"basis-form mismatch at x={probe} S={_inline(s)}"
        return
    oracle = _o_diff_m(list(s.values), m)[n0 - 1]
    if lagrange_mth_derivative(s, n0, m) != oracle:
        yield f"m-th derivative m={m} n0={n0} S={_inline(s)}"


# Frozen instance pinning the normalization: cubes, order 3.
_CUBES = FiniteSeq([1, 8, 27, 64])


def _cubes_corrected():
    det_ms, det_v = interpolation_determinants(_CUBES, 1, 3)
    corrected = dm_via_determinant(_CUBES, 1, 3)
    if not (corrected == 6 and det_ms == 12 and abs(det_v) == 12 and det_ms != corrected):
        yield f"corrected={corrected} bare={det_ms} detV={det_v}"


def _cubes_node_determinant():
    det_v = interpolation_determinants(_CUBES, 1, 3)[1]
    oracle_det_v = _o_det([[Fraction((1 + r) ** (3 - k)) for k in range(4)] for r in range(4)])
    if abs(det_v) / factorial(3) != 2 or oracle_det_v != det_v:
        yield f"node determinant {det_v} not the expected +12"


def _check_det_normalization(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng, floor=3)
    s = random_rational_sequence(n, rng)
    i = rng.randint(1, n - 2)
    second = _o_diff_m(list(s.values), 2)[i - 1]
    # The triangle determinant (columns x, S, 1) is exact at order 2.
    if collinearity_determinant(s, i) != second:
        yield f"order-2 A-determinant, S={_inline(s)} i={i}"
        return
    m = rng.randint(1, min(4, n - 1))
    i2 = rng.randint(1, n - m)
    oracle = _o_diff_m(list(s.values), m)[i2 - 1]
    if dm_via_determinant(s, i2, m) != oracle:
        yield f"corrected route m={m} i={i2} S={_inline(s)}"
        return
    # Node determinant law: |det V| is 1!*2!*...*m!, so the bare
    # data-column determinant can only match D^m S up to m = 2.
    det_ms, det_v = interpolation_determinants(s, i2, m)
    superfact = 1
    for k in range(1, m + 1):
        superfact *= factorial(k)
    if abs(det_v) != superfact:
        yield f"node determinant law m={m}"
    elif m >= 3 and oracle != 0 and det_ms == oracle:
        yield f"bare determinant unexpectedly exact at m={m}"


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


def _check_symbolic_laws(spec: CheckSpec, rng: random.Random):
    p = _random_poly(rng)
    q = _random_poly(rng)
    r = _random_poly(rng)
    laws = (
        ("add commutes", p + q == q + p),
        ("mul commutes", p * q == q * p),
        ("add associates", p + (q + r) == (p + q) + r),
        ("mul associates", p * (q * r) == (p * q) * r),
        ("distributes", p * (q + r) == p * q + p * r),
    )
    broken = [label for label, ok in laws if not ok]
    if broken:
        yield ", ".join(broken)
        return

    n = _length(spec, rng)
    s = random_rational_sequence(n, rng)
    g = random_rational_sequence(n, rng)
    lam = random_rational(rng)
    if p.apply(s * lam + g) != p.apply(s) * lam + p.apply(g):
        yield f"linearity, S={_inline(s)} G={_inline(g)} lam={lam}"
        return
    hp = _random_homogeneous_poly(rng)
    hq = _random_homogeneous_poly(rng)
    if (hp * hq).apply(s) != hp.apply(hq.apply(s)):
        yield f"homogeneous composition, S={_inline(s)}"
    elif not p.is_zero() and p.apply(FiniteSeq()) != FiniteSeq():
        yield "empty-sequence convention"


def _check_fd_bridge(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s = random_rational_sequence(n, rng)
    h = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    x0 = random_rational(rng)
    g = grid.GridFunction(x0, h, s)

    diff = grid.difference(g)
    shifted = grid.displacement(g, 1).samples
    held = grid.displacement(g, 0).samples.prefix(n - 1)
    if diff.samples != shifted - held:
        yield f"difference vs displacement, S={_inline(s)}"
        return
    mean = grid.mean_filter(g)
    if mean.samples != (shifted + held) * Fraction(1, 2):
        yield f"mean vs displacement, S={_inline(s)}"
        return
    if grid.discrete_derivative(g).samples != diff.samples * (1 / h):
        yield f"derivative scaling h={h}, S={_inline(s)}"
        return
    oracle = [(s.values[i + 1] - s.values[i]) / h for i in range(n - 1)]
    if list(grid.discrete_derivative(g).samples.values) != oracle:
        yield f"derivative oracle h={h}, S={_inline(s)}"
        return

    unit = grid.GridFunction(0, 1, s)
    if list(grid.difference(unit).samples.values) != _o_diff(s.values):
        yield f"h=1 difference bridge, S={_inline(s)}"
        return
    sv = s.values
    two_point_means = [(sv[i] + sv[i + 1]) / 2 for i in range(n - 1)]
    if list(grid.mean_filter(unit).samples.values) != two_point_means:
        yield f"h=1 mean bridge, S={_inline(s)}"
        return
    if TOP.apply(s) != s.prefix(n - 1) or BOTTOM.apply(s) != grid.displacement(unit, 1).samples:
        yield f"top/bottom prefix law, S={_inline(s)}"
        return

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
            yield f"displacement group law a={a} b={b}"


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

# Every integer sequence of length 4 with entries -2..2.
_SWEEP = tuple(product(range(-2, 3), repeat=4))

# The instances a check runs before its trials, as (label, failure texts).
_FIXED = {
    "hod_binomial": lambda: (("", _binomial_row(m)) for m in range(9)),
    "geometric_sum": lambda: (
        ("ladder: ", _geometric_sum(Fraction(1), q, n))
        for q in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2))
        for n in range(3, 9)
    ),
    "ftc": lambda: (
        ("exhaustive: ", _ftc(s, a, b, (Fraction(0), Fraction(5, 3))))
        for s in map(FiniteSeq, _SWEEP)
        for a in range(1, 5)
        for b in range(a, 5)
    ),
    "convexity_equivalence": lambda: (
        ("exhaustive: ", _convexity_equivalence(s)) for s in map(FiniteSeq, _SWEEP)
    ),
    "det_equals_d2": lambda: (("exhaustive: ", _det_equals_d2(s)) for s in map(FiniteSeq, _SWEEP)),
    "det_normalization": lambda: (
        ("cubes instance: ", _cubes_corrected()),
        ("cubes instance: ", _cubes_node_determinant()),
    ),
}


def check_names() -> tuple[str, ...]:
    return tuple(CATALOG)


def _labelled(label: str, texts):
    """Each failure text of one case, prefixed with the case's label."""
    try:
        for text in texts:
            yield label + text
    except SeqCalcError as exc:  # a kernel that breaks a library rule fails the case
        yield f"{label}{type(exc).__name__}: {exc}"


def run_check(spec: CheckSpec) -> CheckReport:
    try:
        body = CATALOG[spec.name]
    except KeyError:
        raise UnknownCheck(spec.name, check_names()) from None
    trials = (
        (f"trial {t}: ", body(spec, random.Random(f"{spec.name}:{spec.seed}:{t}")))
        for t in range(spec.trials)
    )
    failures, count, cases = [], 0, 0
    for label, texts in chain(_FIXED.get(spec.name, tuple)(), trials):
        cases += 1
        for failure in _labelled(label, texts):
            count += 1
            if count <= MAX_FAILURES:
                failures.append(failure)
    return CheckReport(spec.name, cases, tuple(failures), count, passed=not count)


def run_all(trials: int = 200, seed: int = 0, min_length: int = 2, max_length: int = 12):
    """Run the whole catalog in its fixed order."""
    return [
        run_check(CheckSpec(name, trials, seed, min_length, max_length))
        for name in CATALOG
    ]

"""Named, seeded, reproducible identity checks.

Every identity the library implements is restated here as a catalog check
that runs over randomized rational instances (and, where the domain is a
single small sequence, an exhaustive integer sweep with values -2..2 and
length 4).  Each check carries its own brute-force oracle, written at the
raw index level so it shares no code with the implementation under test.

The oracles read the draws, not the library's build of them.  A random
sequence is drawn as (p, q) ratios (``generators.random_ratios``); ``_drawn``
hands them to ``FiniteSeq.from_ratios``, which builds the kernels' input,
and the check hands the same ratios to ``_o_ints``, which puts them over
lcm(q) with ``math`` and int arithmetic only.  So a fault in the input build
fails the check instead of reaching both sides.  An instance is the triple
``(S, nums, den)``, S's i-th entry being nums[i] / den, for trials and
sweeps alike: ``_instance`` draws a length, S and their lcm, ``_inverses``
does the same for a zero-free G with the ints of 1/G, and the sweep yields
its sequences over den 1.  Checks that draw two sequences of one length,
or read the draws themselves (in a quotient, or after a constant), keep
``_drawn``'s pair.  A drawn scalar gives its numerator and denominator, and
a geometric instance its start and ratio (``_o_geometric``).  The oracle loops add and multiply those ints; the
quotient oracles cross-multiply the ratios (``_o_quotients``).  A result is
compared by cross-multiplication: a sequence on its working form
(``scaled()``, see ``_same``), a scalar r as
``r.numerator * den == num * r.denominator``.  No oracle builds or divides a
Fraction: the verifier builds one only as a kernel's input (a constant, a
ratio, a step) or to write a failure text.  The sweep's sequences are built
once per process, on first use; every run still checks every case.  Within
one ``ftc`` run, each swept sequence's antiderivative at each fixed constant
is built once, by the first window that needs it, and its other windows
share it; nothing is kept from one run to the next.

A check is its body: a generator ``body(spec, rng)`` that draws one instance
(its length, through ``_length``, where its draw order needs it) and yields
a text for each failure it finds.  ``run_check`` is the one driver: it runs
the check's fixed instances in ``_FIXED``, then ``spec.trials`` seeded
trials, counts each instance as a case and prefixes each failure with the
instance's label (``exhaustive: ``, ``trial t: `` and so on).  A
``SeqCalcError`` raised while a case runs is one failure of that case.  A
report keeps the first ``MAX_FAILURES`` failure texts and counts them all.

Reports are deterministic: trial t draws from a generator seeded by
(name, seed, t), so results do not depend on execution order.  Every integer
draw goes through ``generators.draw``, which takes the words that
``rng.randint`` would take, so the draws and every pinned digest stay those
of ``randint``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import chain, product
from math import comb, factorial, lcm, prod

from . import calculus, grid
from .analysis import classify_convexity, collinearity_determinant
from .errors import BadParameter, SeqCalcError, UnknownCheck, quoted
from .generators import (
    arithmetic_sequence,
    draw,
    geometric_sequence,
    random_nonzero_rational,
    random_nonzero_ratios,
    random_rational,
    random_ratios,
)
from .lagrange import (
    dm_via_determinant,
    effective_degree,
    interpolation_determinants,
    lagrange_mth_derivative,
    lagrange_poly,
)
from .operators import BOTTOM, DIFFERENCE, TOP, OperatorPoly, bottom, middle, top
from .sequences import FiniteSeq, format_sequence


MAX_LENGTH = 100
"""Largest sequence length a check may draw (``--min-len``, ``--max-len``).

Each trial builds its sequences at a length drawn up to ``max_length``, so
this bounds the work of one trial: at this bound one trial of every check
takes a fraction of a second.
"""

MAX_TRIALS = 10_000
"""Largest trial count a check may run (``--trials``).

One trial of every check takes about 16 ms at ``MAX_LENGTH`` and 2 ms at the
default lengths 2..12 (2-vCPU VM, Python 3.11), so ``verify --check all`` at
this bound is at most about three minutes of work, and one check about a
nineteenth of that.
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
            raise BadParameter(f"trials must be >= 1, got {quoted(spec.trials)}")
        if spec.trials > MAX_TRIALS:
            raise BadParameter(f"trials must be <= {MAX_TRIALS}, got {quoted(spec.trials)}")
        if spec.min_length < 2:
            raise BadParameter(f"min length must be >= 2, got {quoted(spec.min_length)}")
        for label, length in (("min", spec.min_length), ("max", spec.max_length)):
            if length > MAX_LENGTH:
                raise BadParameter(f"{label} length must be <= {MAX_LENGTH}, got {quoted(length)}")
        if spec.max_length < spec.min_length:
            raise BadParameter(
                f"max length {quoted(spec.max_length)} below min length {quoted(spec.min_length)}"
            )
        return spec


CheckReport = namedtuple("CheckReport", "name trials_run failures failure_count passed")


def _length(spec: CheckSpec, rng: random.Random, floor: int = 2) -> int:
    lo = max(spec.min_length, floor)
    hi = max(spec.max_length, lo)
    return draw(rng, lo, hi)


def _drawn(n: int, rng: random.Random, sample=random_ratios):
    """(S, its draws): n (p, q) draws and the kernels' input built from them."""
    ratios = sample(n, rng)
    return FiniteSeq.from_ratios(ratios), ratios


def _instance(spec: CheckSpec, rng: random.Random, floor: int = 2):
    """(S, nums, den): S at a drawn length, and its draws over their lcm."""
    s, draws = _drawn(_length(spec, rng, floor), rng)
    return (s, *_o_ints(draws))


def _inverses(spec: CheckSpec, rng: random.Random):
    """(G, nums, den): a zero-free G at a drawn length, and the entries of 1/G over their lcm."""
    g, draws = _drawn(_length(spec, rng), rng, random_nonzero_ratios)
    return (g, *_o_ints(_o_quotients([(1, 1)] * len(draws), draws)))


def _inline(seq: FiniteSeq) -> str:
    return ",".join(format_sequence(seq))


# ---------------------------------------------------------------------------
# raw-index oracles (no shared code with the modules under test), on ints

def _o_ints(ratios):
    """(nums, den) with nums[i] / den == p / q for the i-th (p, q), q > 0, den the lcm of the q."""
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _o_quotients(tops, bottoms):
    """The (p, q) ratios, q > 0, of tops[i] / bottoms[i], both (p, q) ratios, bottoms' p != 0."""
    out = []
    for (a, b), (c, d) in zip(tops, bottoms):
        p, q = a * d, b * c
        out.append((-p, -q) if q < 0 else (p, q))
    return out


def _o_geometric(start, q, n):
    """(nums, den) of start * q^i, i < n: a p^i r^(n-1-i) over b r^(n-1), start = a/b, q = p/r."""
    a, b, p, r = start.numerator, start.denominator, q.numerator, q.denominator
    return [a * p**i * r ** (n - 1 - i) for i in range(n)], b * r ** (n - 1)


def _o_diff(vals):
    return [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]


def _o_diff_m(vals, m):
    out = list(vals)
    for _ in range(m):
        out = _o_diff(out)
    return out


def _o_partial_sums(vals):
    out, acc = [], 0
    for v in vals:
        acc += v
        out.append(acc)
    return out


def _o_sum(vals, a, b):
    acc = 0
    for j in range(a, b + 1):
        acc += vals[j - 1]
    return acc


def _o_det(matrix):
    """Cofactor expansion along the first column."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    if n == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = 0
    for r in range(n):
        minor = [row[1:] for k, row in enumerate(matrix) if k != r]
        total += (-1) ** r * matrix[r][0] * _o_det(minor)
    return total


def _o_node_weights(xs):
    """(c, w) with c[j] / w == 1 / prod_{k != j} (x_j - x_k) over integer nodes."""
    weights = []
    for j, xj in enumerate(xs):
        weight = 1
        for k, xk in enumerate(xs):
            if k != j:
                weight *= xj - xk
        weights.append(weight)
    common = lcm(*weights)
    return [common // weight for weight in weights], common


def _o_lagrange_value(xs, ys, p, q):
    """Barycentric-free basis form of the interpolant at x = p / q, as (num, den)."""
    cs, common = _o_node_weights(xs)
    total = 0
    for j, (yj, cj) in enumerate(zip(ys, cs)):
        term = yj * cj
        for k, xk in enumerate(xs):
            if k != j:
                term *= p - q * xk
        total += term
    return total, common * q ** (len(xs) - 1)


def _o_leading_coefficient(xs, ys):
    """Top divided difference, sum of y_j / prod_{k != j} (x_j - x_k), as (num, den)."""
    cs, common = _o_node_weights(xs)
    return sum(yj * cj for yj, cj in zip(ys, cs)), common


# ---------------------------------------------------------------------------
# a kernel's result against an oracle's (num, den), by cross-multiplication

def _same(seq: FiniteSeq, nums, den) -> bool:
    """Whether seq's entries are nums[i] / den, compared on seq's working form."""
    items, d = seq.scaled()
    return len(items) == len(nums) and all(x * den == y * d for x, y in zip(items, nums))


def _entry(seq: FiniteSeq, i: int):
    """(item, den) of seq's i-th entry on its working form; out of range, seq.at raises."""
    items, den = seq.scaled()
    if not 1 <= i <= len(items):
        seq.at(i)
    return items[i - 1], den


def _equals(r: Fraction, num, den) -> bool:
    """Whether the scalar r is num / den, den > 0."""
    return r.numerator * den == num * r.denominator


# ---------------------------------------------------------------------------
# check bodies, in catalog order; each yields its failure texts

def _check_product_rule(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s, s_draws = _drawn(n, rng)
    g, g_draws = _drawn(n, rng)
    (sn, sd), (gn, gd) = _o_ints(s_draws), _o_ints(g_draws)
    oracle = _o_diff([a * b for a, b in zip(sn, gn)])
    for label, candidate in (
        ("D(SG)", calculus.derivative(s * g)),
        ("symmetric", calculus.derivative(s) * middle(g) + middle(s) * calculus.derivative(g)),
        ("split", bottom(s) * bottom(g) - top(s) * top(g)),
        ("bottom-weighted", calculus.derivative(s) * bottom(g) + top(s) * calculus.derivative(g)),
        ("top-weighted", calculus.derivative(s) * top(g) + bottom(s) * calculus.derivative(g)),
    ):
        if not _same(candidate, oracle, sd * gd):
            yield f"{label} mismatch for S={_inline(s)} G={_inline(g)}"


def _check_quotient_rule(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s, s_draws = _drawn(n, rng)
    g, g_draws = _drawn(n, rng, random_nonzero_ratios)
    lhs = calculus.derivative(s / g)
    quotients, den = _o_ints(_o_quotients(s_draws, g_draws))
    oracle = _o_diff(quotients)
    rhs = (calculus.derivative(s) * middle(g) - calculus.derivative(g) * middle(s)) / (
        top(g) * bottom(g)
    )
    if not (_same(lhs, oracle, den) and _same(rhs, oracle, den)):
        yield f"S={_inline(s)} G={_inline(g)}"


def _check_inverse_rule(spec: CheckSpec, rng: random.Random):
    g, inverses, den = _inverses(spec, rng)
    lhs = calculus.derivative(g.inverse())
    oracle = _o_diff(inverses)
    rhs = -(calculus.derivative(g) / (top(g) * bottom(g)))
    if not (_same(lhs, oracle, den) and _same(rhs, oracle, den)):
        yield f"G={_inline(g)}"


def _check_mean_inverse(spec: CheckSpec, rng: random.Random):
    g, inverses, den = _inverses(spec, rng)
    lhs = middle(g.inverse())
    oracle = [inverses[i] + inverses[i + 1] for i in range(len(g) - 1)]
    rhs = middle(g) / (top(g) * bottom(g))
    if not (_same(lhs, oracle, 2 * den) and _same(rhs, oracle, 2 * den)):
        yield f"G={_inline(g)}"


def _check_antiderivative_roundtrip(spec: CheckSpec, rng: random.Random):
    s, draws = _drawn(_length(spec, rng), rng)
    c = random_rational(rng)
    integral = calculus.antiderivative(s, c)
    # c, c + S(1), c + S(1) + S(2), ...: the partial sums of (c, S(1), ..., S(n))
    nums, den = _o_ints([(c.numerator, c.denominator), *draws])
    if not _same(integral, _o_partial_sums(nums), den):
        yield f"cumulative-sum oracle, S={_inline(s)} c={c}"
    if calculus.derivative(integral) != s:
        yield f"D(J S) != S for S={_inline(s)} c={c}"
    if calculus.antiderivative(calculus.derivative(s), s.at(1)) != s:
        yield f"J(D S) != S for S={_inline(s)}"


def _check_partial_sums(spec: CheckSpec, rng: random.Random):
    s, draws = _drawn(_length(spec, rng), rng)
    c = random_rational(rng)
    shifted = bottom(calculus.antiderivative(s, c))
    nums, den = _o_ints([(c.numerator, c.denominator), *draws])
    if not _same(shifted, _o_partial_sums(nums)[1:], den):
        yield f"S={_inline(s)} c={c}"


def _binomial_row(m):
    expected = OperatorPoly({(k, m - k): (-1) ** k * comb(m, k) for k in range(m + 1)})
    if DIFFERENCE**m != expected:
        yield f"coefficients of D^{m} differ from the binomial expansion"


def _check_hod_binomial(spec: CheckSpec, rng: random.Random):
    s, nums, den = _instance(spec, rng)
    m = draw(rng, 0, min(8, len(s)))
    applied = (DIFFERENCE**m).apply(s)
    if not _same(applied, _o_diff_m(nums, m), den) or calculus.derivative(s, m) != applied:
        yield f"D^{m} on S={_inline(s)}"


def _check_int_by_parts(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng)
    s, s_draws = _drawn(n, rng)
    g, g_draws = _drawn(n, rng)
    c0 = random_rational(rng)
    c1 = s.at(1) * g.at(1) - c0
    lhs = calculus.antiderivative(calculus.derivative(s) * middle(g), c0)
    rhs = s * g - calculus.antiderivative(middle(s) * calculus.derivative(g), c1)
    (sn, sd), (gn, gd) = _o_ints(s_draws), _o_ints(g_draws)
    # (S(j+1) - S(j)) * (G(j) + G(j+1)) / 2 and c0, all over 2 * sd * gd * c0's den
    terms_den = 2 * sd * gd
    raw_terms = [
        (sn[j + 1] - sn[j]) * (gn[j] + gn[j + 1]) * c0.denominator for j in range(n - 1)
    ]
    oracle = _o_partial_sums([c0.numerator * terms_den, *raw_terms])
    if not _same(lhs, oracle, terms_den * c0.denominator):
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
    nums, den = _o_geometric(start, q, n)
    oracle = _o_diff(nums)
    rhs = top(s) * (q - 1)
    if not (_same(lhs, oracle, den) and _same(rhs, oracle, den)):
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
    (first, step), den = _o_ints([(v.numerator, v.denominator) for v in (start, d)])
    for i in range(1, n):
        integral = calculus.definite_integral(ds, 1, i)
        if not (_equals(integral, i * step, den) and _equals(s.at(i + 1), first + i * step, den)):
            yield f"S(i+1) != S(1) + i*d at i={i}, d={d}"
            return


def _geometric_sum(start, q, n):
    s = geometric_sequence(start, q, n)
    lhs = calculus.definite_integral(top(s), 1, n - 1)
    nums, den = _o_geometric(start, q, n)
    total = _o_sum(nums, 1, n - 1)
    # with q = p / r and k = n - 1, over den: the closed form S(1) (1 - q^k) / (1 - q)
    # is nums[0] (r^k - p^k) / (r^(k-1) (r - p)), and the telescoped
    # (S(n) - S(1)) / (q - 1) is r (nums[-1] - nums[0]) / (p - r)
    p, r, k = q.numerator, q.denominator, n - 1
    closed = nums[0] * (r**k - p**k) == total * r ** (k - 1) * (r - p)
    telescoped = r * (nums[-1] - nums[0]) == total * (p - r)
    if not (_equals(lhs, total, den) and closed and telescoped):
        yield f"start={start} q={q} n={n}"


def _check_geometric_sum(spec: CheckSpec, rng: random.Random):
    n = _length(spec, rng, floor=3)
    start = random_nonzero_rational(rng)
    q = random_nonzero_rational(rng)
    while q == 1:
        q = random_nonzero_rational(rng)
    yield from _geometric_sum(start, q, n)


def _ftc(s, nums, den, a, b, constants, antis):
    """The fundamental theorem on S = nums / den between a and b.

    ``antis[k]`` holds S's antiderivative at ``constants[k]`` once a case has
    built it, so the windows of one sequence share it; a case that finds the
    slot empty builds it.
    """
    total = _o_sum(nums, a, b)
    if not _equals(calculus.definite_integral(s, a, b), total, den):
        yield f"sum oracle mismatch S={_inline(s)} a={a} b={b}"
        return
    for k, c in enumerate(constants):
        anti = antis[k]
        if anti is None:
            anti = antis[k] = calculus.antiderivative(s, c)
        (upper, d), (lower, _) = _entry(anti, b + 1), _entry(anti, a)
        if (upper - lower) * den != total * d:
            yield f"I(b+1)-I(a) mismatch S={_inline(s)} a={a} b={b} c={c}"
            return


def _check_ftc(spec: CheckSpec, rng: random.Random):
    s, nums, den = _instance(spec, rng)
    a = draw(rng, 1, len(s))
    b = draw(rng, a, len(s))
    yield from _ftc(s, nums, den, a, b, (random_rational(rng),), [None])


def _convexity_equivalence(s, nums, den):
    """Convexity of S = nums / den against the signs of its collinearity determinants."""
    windows = range(1, len(s) - 1)
    dets = [collinearity_determinant(s, i) for i in windows]
    # rows (x, S(x), 1) scaled to (x den, nums, den): each determinant times den^3
    oracle = [_o_det([[(i + r) * den, nums[i + r - 1], den] for r in range(3)]) for i in windows]
    report = classify_convexity(s)
    cube = den**3
    if not all(_equals(det, o, cube) for det, o in zip(dets, oracle)):
        yield f"determinant oracle mismatch S={_inline(s)}"
        return
    no_collinear = all(o != 0 for o in oracle)
    all_pos = all(o > 0 for o in oracle)
    all_neg = all(o < 0 for o in oracle)
    convex_equiv = report.strictly_convex == (no_collinear and all_pos) == all_pos
    concave_equiv = report.strictly_concave == (no_collinear and all_neg) == all_neg
    if not (convex_equiv and concave_equiv):
        yield f"equivalence broken S={_inline(s)}"


def _check_convexity_equivalence(spec: CheckSpec, rng: random.Random):
    yield from _convexity_equivalence(*_instance(spec, rng, floor=3))


def _det_equals_d2(s, nums, den):
    """Collinearity determinants of S = nums / den against its second difference."""
    second = calculus.derivative(s, 2)
    oracle = _o_diff_m(nums, 2)
    dets = []
    for i in range(1, len(s) - 1):
        det = collinearity_determinant(s, i)
        if not (_equals(det, *_entry(second, i)) and _equals(det, oracle[i - 1], den)):
            yield f"i={i} S={_inline(s)}"
            return
        dets.append(det)
    neg = FiniteSeq.from_ratios([(-x, den) for x in nums])
    for i, det in enumerate(dets, start=1):
        if not _equals(collinearity_determinant(neg, i), -det.numerator, det.denominator):
            yield f"negation duality at i={i} S={_inline(s)}"
            return


def _check_det_equals_d2(spec: CheckSpec, rng: random.Random):
    yield from _det_equals_d2(*_instance(spec, rng, floor=3))


def _lagrange_instance(spec: CheckSpec, rng: random.Random):
    """A random s, m and n0, s's interpolant on n0..n0 + m, and that window as ints over den."""
    s, nums, den = _instance(spec, rng)
    m = draw(rng, 0, min(6, len(s) - 1))
    n0 = draw(rng, 1, len(s) - m)
    return s, m, n0, lagrange_poly(s, n0, m), nums[n0 - 1 : n0 + m], den


def _check_lagrange_leading(spec: CheckSpec, rng: random.Random):
    s, m, n0, poly, window, den = _lagrange_instance(spec, rng)
    oracle = _o_diff_m(window, m)[0]
    divided, weight = _o_leading_coefficient(range(n0, n0 + m + 1), window)
    deg = effective_degree(s, n0, m)
    top_coefficient = poly.coefficient(m)
    if not _equals(top_coefficient, divided, weight * den):
        yield f"divided difference m={m} n0={n0} S={_inline(s)}"
    elif not (
        _equals(top_coefficient, oracle, factorial(m) * den)
        and _equals(lagrange_mth_derivative(s, n0, m), oracle, den)
    ):
        yield f"m={m} n0={n0} S={_inline(s)}"
    elif (deg == m) != (oracle != 0):
        yield f"degree law m={m} n0={n0} S={_inline(s)}"


def _check_lagrange_mth(spec: CheckSpec, rng: random.Random):
    s, m, n0, poly, window, den = _lagrange_instance(spec, rng)
    xs = range(n0, n0 + m + 1)
    if not all(_equals(poly.evaluate(j), y, den) for j, y in zip(xs, window)):
        yield f"node mismatch m={m} n0={n0} S={_inline(s)}"
        return
    probe = random_rational(rng)
    value, weight = _o_lagrange_value(xs, window, probe.numerator, probe.denominator)
    if not _equals(poly.evaluate(probe), value, weight * den):
        yield f"basis-form mismatch at x={probe} S={_inline(s)}"
        return
    if not _equals(lagrange_mth_derivative(s, n0, m), _o_diff_m(window, m)[0], den):
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
    oracle_det_v = _o_det([[(1 + r) ** (3 - k) for k in range(4)] for r in range(4)])
    if abs(det_v) != 2 * factorial(3) or oracle_det_v != det_v:
        yield f"node determinant {det_v} not the expected +12"


def _check_det_normalization(spec: CheckSpec, rng: random.Random):
    s, nums, den = _instance(spec, rng, floor=3)
    n = len(s)
    i = draw(rng, 1, n - 2)
    second = _o_diff_m(nums[i - 1 : i + 2], 2)[0]
    # The triangle determinant (columns x, S, 1) is exact at order 2.
    if not _equals(collinearity_determinant(s, i), second, den):
        yield f"order-2 A-determinant, S={_inline(s)} i={i}"
        return
    m = draw(rng, 1, min(4, n - 1))
    i2 = draw(rng, 1, n - m)
    oracle = _o_diff_m(nums[i2 - 1 : i2 + m], m)[0]
    if not _equals(dm_via_determinant(s, i2, m), oracle, den):
        yield f"corrected route m={m} i={i2} S={_inline(s)}"
        return
    # Node determinant law: |det V| is 1!*2!*...*m!, so the bare
    # data-column determinant can only match D^m S up to m = 2.
    det_ms, det_v = interpolation_determinants(s, i2, m)
    if abs(det_v) != prod(map(factorial, range(1, m + 1))):
        yield f"node determinant law m={m}"
    elif m >= 3 and oracle != 0 and _equals(det_ms, oracle, den):
        yield f"bare determinant unexpectedly exact at m={m}"


def _random_poly(rng: random.Random) -> OperatorPoly:
    """Up to 4 terms I^a E^b, a and b in 0..3, with random coefficients."""
    pairs = []
    for _ in range(draw(rng, 0, 4)):
        key = (draw(rng, 0, 3), draw(rng, 0, 3))
        pairs.append((key, random_rational(rng)))
    return OperatorPoly(pairs)


def _random_homogeneous_poly(rng: random.Random) -> OperatorPoly:
    """A nonzero sum of 1 to 3 terms I^a E^b of one degree a + b in 0..3."""
    while True:
        degree = draw(rng, 0, 3)
        pairs = []
        for _ in range(draw(rng, 1, 3)):
            a = draw(rng, 0, degree)
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
    s, _ = _drawn(n, rng)
    g, _ = _drawn(n, rng)
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
    s, nums, den = _instance(spec, rng)
    n = len(s)
    h = Fraction(draw(rng, 1, 9), draw(rng, 1, 9))
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
    if (derivative := grid.discrete_derivative(g).samples) != diff.samples * (1 / h):
        yield f"derivative scaling h={h}, S={_inline(s)}"
        return
    diffs = _o_diff(nums)
    # (S(i+1) - S(i)) / h with h = p / q is (nums[i+1] - nums[i]) q / (den p)
    oracle = [x * h.denominator for x in diffs]
    if not _same(derivative, oracle, den * h.numerator):
        yield f"derivative oracle h={h}, S={_inline(s)}"
        return

    unit = grid.GridFunction(0, 1, s)
    if not _same(grid.difference(unit).samples, diffs, den):
        yield f"h=1 difference bridge, S={_inline(s)}"
        return
    two_point_means = [nums[i] + nums[i + 1] for i in range(n - 1)]
    if not _same(grid.mean_filter(unit).samples, two_point_means, 2 * den):
        yield f"h=1 mean bridge, S={_inline(s)}"
        return
    if TOP.apply(s) != s.prefix(n - 1) or BOTTOM.apply(s) != grid.displacement(unit, 1).samples:
        yield f"top/bottom prefix law, S={_inline(s)}"
        return

    a = draw(rng, 0, 3)
    b = draw(rng, 0, 3)
    sign = (1, -1)[draw(rng, 0, 1)]
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

@cache
def _sweep():
    """Every integer sequence of length 4 with entries -2..2, as an instance
    (S, its entries, den 1), built on first use.

    Sequences are immutable, so one process builds them once; every check
    still runs on them, and no outcome is kept.
    """
    return tuple((FiniteSeq(vals), vals, 1) for vals in product(range(-2, 3), repeat=4))


_FTC_CONSTANTS = (Fraction(0), Fraction(5, 3))

# The instances a check runs before its trials, as (label, failure texts).
_FIXED = {
    "hod_binomial": lambda: (("", _binomial_row(m)) for m in range(9)),
    "geometric_sum": lambda: (
        ("ladder: ", _geometric_sum(Fraction(1), q, n))
        for q in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2))
        for n in range(3, 9)
    ),
    "ftc": lambda: (
        ("exhaustive: ", _ftc(*case, a, b, _FTC_CONSTANTS, antis))
        for case in _sweep()
        for antis in ([None] * len(_FTC_CONSTANTS),)  # one slot per sequence and run
        for a in range(1, 5)
        for b in range(a, 5)
    ),
    "convexity_equivalence": lambda: (
        ("exhaustive: ", _convexity_equivalence(*case)) for case in _sweep()
    ),
    "det_equals_d2": lambda: (("exhaustive: ", _det_equals_d2(*case)) for case in _sweep()),
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

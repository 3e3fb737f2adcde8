"""Seeded request plans for the three workloads.

A plan is a fixed list of ``seqcalc`` command lines, each with the answer
its stdout must match and the sizes of its operands.  The same workload,
seed and request count always give the same plan.  Operand sizes spread
evenly over continuous ranges: each request kind takes the midpoints of
``count`` equal slices of its range.  So every seed times the same mix of
sizes, and the seed varies the entries, evaluation points, verifier seeds and
order.  The sorted latencies form a smooth curve with no plateau for a
percentile to jump across.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Union

import oracles

# Entry heights on long_seq: mostly small p/q (|p|, q <= 9) with a share of
# large integers, far below Python's 4300-digit int<->str limit.
BIG_SHARE = 0.1
BIG_DIGITS = (20, 400)
LONG_N = (2000, 8000)
LAGRANGE_M = (16, 32)
DET_M = (10, 20)
POWER_N = (30, 90)
POWER_TAIL = (8, 40)
VERIFY_TRIALS = (100, 300)
# The verifier catalog, listed here so the plan does not depend on the code
# under test: a check that is renamed or dropped fails its requests.
VERIFY_CHECKS = (
    "product_rule", "quotient_rule", "inverse_rule", "mean_inverse",
    "antiderivative_roundtrip", "partial_sums", "hod_binomial", "int_by_parts",
    "geometric_rule", "arithmetic_rule", "geometric_sum", "ftc",
    "convexity_equivalence", "det_equals_d2", "lagrange_leading", "lagrange_mth",
    "det_normalization", "symbolic_laws", "fd_bridge",
)  # fmt: skip

Expect = Union[str, Callable[[str], bool]]


@dataclass
class Request:
    """One command line; ``expect`` is the sha256 of the exact stdout or a predicate on it."""

    argv: list
    expect: Expect
    sizes: dict


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _spread(rng: random.Random, count: int) -> list:
    """Midpoints of `count` equal slices of [0, 1), in seeded order."""
    points = [(i + 0.5) / count for i in range(count)]
    rng.shuffle(points)
    return points


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def _uniform_int(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


_SMALL = [Fraction(p, q) for p in range(-9, 10) for q in range(1, 10)]


def _small(rng: random.Random) -> Fraction:
    """p/q with p uniform in -9..9 and q uniform in 1..9."""
    return rng.choice(_SMALL)


def _entry(rng: random.Random) -> Fraction:
    if rng.random() < BIG_SHARE:
        digits = rng.randint(*BIG_DIGITS)
        return Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits))
    return _small(rng)


def _sizes(vals: list, order: int) -> dict:
    return {
        "n": len(vals),
        "order": order,
        "num_bits": max(v.numerator.bit_length() for v in vals),
        "den_bits": max(v.denominator.bit_length() for v in vals),
    }


def _write(vals: list, fmt: str, path: Path) -> str:
    if fmt == "csv":
        text = "\n".join(str(v) for v in vals) + "\n"
    elif fmt == "bfile":
        text = "# generated\n" + "".join(f"{i} {v}\n" for i, v in enumerate(vals, start=1))
    else:
        text = json.dumps([v.numerator if v.denominator == 1 else str(v) for v in vals])
    path.write_text(text)
    return f"{fmt}:{path}"


def _inline(vals: list) -> str:
    return "inline:" + ",".join(str(v) for v in vals)


LONG_KINDS = ("diff1", "diff3", "apply_d2", "apply_m", "apply_smooth", "integrate", "defint", "classify")
LONG_OPS = {
    "apply_d2": ("D^2", [Fraction(c) for c in (1, -2, 1)]),
    "apply_m": ("M", [Fraction(1, 2), Fraction(1, 2)]),
    "apply_smooth": ("1/16*(I+E)^4", [Fraction(c, 16) for c in (1, 4, 6, 4, 1)]),
}


def _long_request(kind: str, i: int, n: int, workdir: Path, rng: random.Random) -> Request:
    vals = [_entry(rng) for _ in range(n)]
    if kind == "classify" and i % 2:
        vals.sort()  # monotone input, so the flags are not all false
    fmt = ("csv", "bfile", "json")[i % 3]
    spec = _write(vals, fmt, workdir / f"{kind}-{i}.{fmt}")
    if kind in ("diff1", "diff3"):
        order = int(kind[-1])
        argv = ["diff", "--seq", spec, "--order", str(order)]
        expected = oracles.sequence_report(oracles.differences(vals, order))
    elif kind in LONG_OPS:
        op, weights = LONG_OPS[kind]
        order = len(weights) - 1
        argv = ["apply", "--op", op, "--seq", spec]
        expected = oracles.sequence_report(oracles.stencil(vals, weights))
    elif kind == "integrate":
        order, constant = 0, _small(rng)
        argv = ["integrate", "--seq", spec, f"--constant={constant}"]  # "=" keeps "-3/7" a value
        expected = oracles.sequence_report(oracles.running_sums(vals, constant))
    elif kind == "defint":
        order = 0
        lower, upper = rng.randint(1, n // 4), rng.randint(3 * n // 4, n)
        argv = ["defint", "--seq", spec, "--from", str(lower), "--to", str(upper)]
        expected = oracles.rational_report(oracles.inclusive_sum(vals, lower, upper))
    else:
        order = 2
        argv = ["classify", "--seq", spec]
        expected = oracles.classification_report(vals)
    return Request(argv, digest(expected), _sizes(vals, order))


def long_seq(rng: random.Random, count: int, workdir: Path) -> list:
    per_kind = max(1, math.ceil(count / len(LONG_KINDS)))
    plan = []
    for kind in LONG_KINDS:
        for i, u in enumerate(_spread(rng, per_kind)):
            plan.append(_long_request(kind, i, _log_uniform(u, *LONG_N), workdir, rng))
    rng.shuffle(plan)
    return plan


def _small_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _high_request(kind: str, u: float, rng: random.Random) -> Request:
    if kind in ("coeffs", "eval", "det"):
        m = _uniform_int(u, *(DET_M if kind == "det" else LAGRANGE_M))
        ys = [_small(rng) for _ in range(m + 1)]
        argv = ["lagrange", "--seq", _inline(ys), "--n0", "1", "--m", str(m)]
        if kind == "coeffs":
            return Request(argv + ["--coeffs"], lambda out: oracles.polynomial_fits(out, ys), _sizes(ys, m))
        if kind == "det":
            expected = oracles.rational_report(oracles.differences(ys, m)[0])
            return Request(argv + ["--det"], digest(expected), _sizes(ys, m))
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        expected = oracles.rational_report(oracles.basis_value(ys, x))
        return Request(argv + [f"--eval={x}"], digest(expected), _sizes(ys, m))
    power = _uniform_int(u, *POWER_N)
    a, b = _small_positive(rng), _small_positive(rng)
    op = f"({a}*I - {b}*E)^{power}"
    weights = oracles.power_weights(a, b, power)
    if kind == "simplify":
        expected = oracles.power_simplify_report(weights)
        return Request(["simplify", "--op", op], digest(expected), _sizes([a, b], power))
    vals = [_small(rng) for _ in range(power + rng.randint(*POWER_TAIL))]
    expected = oracles.sequence_report(oracles.stencil(vals, weights))
    return Request(["apply", "--op", op, "--seq", _inline(vals)], digest(expected), _sizes(vals, power))


HIGH_KINDS = ("coeffs", "eval", "det", "simplify", "apply_power")


def high_order(rng: random.Random, count: int, workdir: Path) -> list:
    per_kind = max(1, math.ceil(count / len(HIGH_KINDS)))
    plan = [_high_request(kind, u, rng) for kind in HIGH_KINDS for u in _spread(rng, per_kind)]
    rng.shuffle(plan)
    return plan


def verify_sweep(rng: random.Random, count: int, workdir: Path) -> list:
    """Whole catalog cycles in seeded order; each check's trials spread over the range."""
    cycles = max(1, round(count / len(VERIFY_CHECKS)))
    trials = {name: _spread(rng, cycles) for name in VERIFY_CHECKS}
    plan = []
    for cycle in range(cycles):
        order = list(VERIFY_CHECKS)
        rng.shuffle(order)
        for name in order:
            t = _uniform_int(trials[name][cycle], *VERIFY_TRIALS)
            argv = ["verify", "--check", name, "--trials", str(t), "--seed", str(rng.randrange(10**6))]
            check = lambda out, name=name: oracles.verification_passed(out, name)  # noqa: E731
            plan.append(Request(argv, check, {"n": 12, "order": 0, "num_bits": 4, "den_bits": 4, "trials": t}))
    return plan


BUILDERS = {"long_seq": long_seq, "high_order": high_order, "verify_sweep": verify_sweep}


def build(workload: str, seed: int, count: int, workdir: Path) -> list:
    """The plan for one workload: about `count` requests, all drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, count, workdir)

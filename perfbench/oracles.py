"""Reference answers for every request kind the benchmark sends.

Nothing here imports seqcalc.  Each oracle recomputes its answer from the
definitions with raw-index ``Fraction`` arithmetic and renders it in the
documented ``seqcalc/1`` report format, so a wrong kernel, parser or
renderer shows up as a mismatch.  Oracles run while the plan is built,
outside the timed region and outside ``setup_s``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

SCHEMA = "seqcalc/1"


def _dump(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def sequence_report(values) -> str:
    return _dump({"schema": SCHEMA, "kind": "sequence", "values": [str(v) for v in values]})


def rational_report(value: Fraction) -> str:
    return _dump({"schema": SCHEMA, "kind": "rational", "value": str(value)})


def differences(vals: list, order: int) -> list:
    for _ in range(order):
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    return vals


def stencil(vals: list, weights: list) -> list:
    """out(i) = sum_k weights[k] * S(i + k): an operator with monomials I^(d-k) E^k."""
    width = len(weights)
    return [
        sum((w * vals[i + k] for k, w in enumerate(weights)), Fraction(0))
        for i in range(len(vals) - width + 1)
    ]


def running_sums(vals: list, constant: Fraction) -> list:
    out, acc = [constant], constant
    for v in vals:
        acc += v
        out.append(acc)
    return out


def inclusive_sum(vals: list, lower: int, upper: int) -> Fraction:
    acc = Fraction(0)
    for j in range(lower, upper + 1):
        acc += vals[j - 1]
    return acc


def classification_report(vals: list) -> str:
    first = differences(vals, 1)
    monotonicity = {
        "strictly_increasing": all(d > 0 for d in first),
        "strictly_decreasing": all(d < 0 for d in first),
        "increasing": all(d >= 0 for d in first),
        "decreasing": all(d <= 0 for d in first),
        "constant": all(d == 0 for d in first),
    }
    convexity = None
    if len(vals) >= 3:
        second = differences(first, 1)
        strictly_convex = all(d > 0 for d in second)
        strictly_concave = all(d < 0 for d in second)
        no_flat_step = all(d != 0 for d in first)
        convexity = {
            "convex": all(d >= 0 for d in second),
            "concave": all(d <= 0 for d in second),
            "strictly_convex": strictly_convex,
            "strictly_concave": strictly_concave,
            "continuously_convex": strictly_convex and no_flat_step,
            "continuously_concave": strictly_concave and no_flat_step,
            "second_derivative": [str(d) for d in second],
        }
    return _dump(
        {
            "schema": SCHEMA,
            "kind": "classification",
            "monotonicity": monotonicity,
            "convexity": convexity,
        }
    )


def basis_value(ys: list, x: Fraction) -> Fraction:
    """Lagrange basis form through (j, ys[j-1]), j = 1..len(ys), at x."""
    xs = range(1, len(ys) + 1)
    total = Fraction(0)
    for xj, yj in zip(xs, ys):
        term = yj
        for xk in xs:
            if xk != xj:
                term *= (x - xk) / Fraction(xj - xk)
        total += term
    return total


def polynomial_fits(stdout: str, ys: list) -> bool:
    """A --coeffs report whose polynomial has degree <= m and hits every node."""
    doc = json.loads(stdout)
    if stdout.count("\n") != 1 or doc.get("kind") != "polynomial" or doc.get("schema") != SCHEMA:
        return False
    coeffs = [Fraction(c) for c in doc["coefficients"]]
    if len(coeffs) > len(ys) or doc["degree"] != len(coeffs) - 1:
        return False
    if coeffs and coeffs[-1] == 0:
        return False
    for x, y in enumerate(ys, start=1):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        if acc != y:
            return False
    return True


def power_weights(a: Fraction, b: Fraction, power: int) -> list:
    """Binomial expansion of (a*I - b*E)^N: weight of I^(N-k) E^k at index k."""
    return [comb(power, k) * a ** (power - k) * (-b) ** k for k in range(power + 1)]


def _monomial_text(top: int, bottom: int, coeff: Fraction) -> str:
    factors = []
    if top:
        factors.append("I" if top == 1 else f"I^{top}")
    if bottom:
        factors.append("E" if bottom == 1 else f"E^{bottom}")
    if not factors:
        return str(coeff)
    mono = "*".join(factors)
    return mono if coeff == 1 else f"{coeff}*{mono}"


def power_simplify_report(weights: list) -> str:
    """`simplify` output for a homogeneous power: render line, then the operator report."""
    power = len(weights) - 1
    pieces = []
    for k, c in enumerate(weights):
        text = _monomial_text(power - k, k, abs(c))
        if not pieces:
            pieces.append(f"-{text}" if c < 0 else text)
        else:
            pieces.append(f" - {text}" if c < 0 else f" + {text}")
    text = "".join(pieces)
    terms = [
        {"top_power": power - k, "bottom_power": k, "coeff": str(c)}
        for k, c in enumerate(weights)
    ]
    return text + "\n" + _dump({"schema": SCHEMA, "kind": "operator", "text": text, "terms": terms})


def verification_passed(stdout: str, check: str) -> bool:
    doc = json.loads(stdout)
    reports = doc.get("reports", [])
    return (
        doc.get("kind") == "verification"
        and doc.get("all_passed") is True
        and len(reports) == 1
        and reports[0]["name"] == check
        and reports[0]["passed"] is True
    )

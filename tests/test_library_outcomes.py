"""The outcome of every library call in a seeded corpus, pinned by one digest.

The corpus calls every name in ``seqcalc.__all__``, the verifier's public
names (``CheckReport``, ``CheckSpec``, ``check_names``, ``run_all`` and
``run_check`` from ``seqcalc.verify``) and every public method of
``FiniteSeq``, ``OperatorPoly``, ``Polynomial`` and ``GridFunction``, with
every combination of seeded arguments, each parameter drawing from the seeds
of its kind.  A rational, index, order or length draws from the scalars: 0,
+-1, +-10**5000, +-10**5000/3, -1/2, ``True``, ``"1/0"``, ``"1e3"`` and a
list holding 10**5000.  A sequence draws from the empty sequence, sequences
of lengths 3 and 5, one past ``DEN_BITS`` and one with an entry past the
int/str digit limit.  ``FiniteSeq.from_scaled``, ``from_ratios`` and
``from_columns`` trust their arguments, so they take the forms of the seeded
sequences only.  ``run_all`` takes its trial count only: each valid count
runs the whole catalog, and ``run_check`` takes the seeds in full.

Each call gives one line.  A value gives the sha256 of its text, where every
int is written in hex, never in decimal and never through ``hash()``.  A
``SeqCalcError`` gives its class and message, a ``TypeError`` its class name
only (its text comes from the standard library, and differs between Python
versions), and any other exception its class name marked untyped.

Run it with pytest, or as a script: ``PYTHONPATH=src python
tests/test_library_outcomes.py``.
"""

import hashlib
from fractions import Fraction
from itertools import product
from operator import add, eq, mul, neg, sub, truediv

import seqcalc
from seqcalc import (
    BOTTOM,
    DIFFERENCE,
    EMPTY,
    IDENTITY,
    MIDDLE,
    TOP,
    ConvexityReport,
    FiniteSeq,
    GridFunction,
    MonotonicityReport,
    OperatorPoly,
    Polynomial,
)
from seqcalc.errors import SeqCalcError
from seqcalc.verify import CheckReport, CheckSpec, check_names, run_all, run_check

BIG = 10**5000  # past Python's default int/str digit limit of 4300

SCALARS = {
    "0": 0,
    "1": 1,
    "-1": -1,
    "10**5000": BIG,
    "-10**5000": -BIG,
    "10**5000/3": Fraction(BIG, 3),
    "-10**5000/3": Fraction(-BIG, 3),
    "-1/2": Fraction(-1, 2),
    "True": True,
    "'1/0'": "1/0",
    "'1e3'": "1e3",
    "[10**5000]": [BIG],
}

SEQS = {
    "EMPTY": EMPTY,
    "S3": FiniteSeq.of(1, "-2", Fraction(3, 4)),
    "S5": FiniteSeq.of(0, Fraction(1, 2), -5, Fraction(7, 3), 2),
    # four distinct primes near 2**20: the lcm of the denominators passes DEN_BITS
    "PAST_DEN": FiniteSeq.of(Fraction(1, 1000003), Fraction(-2, 1000033), Fraction(3, 1000037), Fraction(5, 1000039)),
    "WIDE": FiniteSeq.of(BIG, Fraction(-1, 3), 2),
}

OPS = {
    "0": OperatorPoly.zero(),
    "M": MIDDLE,
    "D^2": DIFFERENCE**2,
    "(3/4*I - 5/7*E)^3": (Fraction(3, 4) * TOP - Fraction(5, 7) * BOTTOM) ** 3,
}

POLYS = {
    "P()": Polynomial(),
    "P(-1/2, 0, 3)": Polynomial([Fraction(-1, 2), 0, 3]),
    "P(10**5000, 1)": Polynomial([BIG, 1]),
}

GRIDS = {
    "G(0, 1/3, S3)": GridFunction(0, Fraction(1, 3), SEQS["S3"]),
    "G(-1/2, 2, S5)": GridFunction(Fraction(-1, 2), 2, SEQS["S5"]),
    "G(-10**5000/3, 10**5000/3, PAST_DEN)": GridFunction(Fraction(-BIG, 3), Fraction(BIG, 3), SEQS["PAST_DEN"]),
    "G(1, 1, EMPTY)": GridFunction(1, 1, EMPTY),
}


def _square(x):
    return x * x


def _listed(x):
    return [x]


SEEDS = {
    "q": SCALARS,
    "seq": SEQS,
    "any": {**SEQS, **SCALARS},
    "op": {**OPS, **SCALARS},
    "self_op": OPS,
    "poly": POLYS,
    "grid": GRIDS,
    "fn": {"x*x": _square, "[x]": _listed},
    "values": {"()": (), **{f"[{k}]": [v] for k, v in SCALARS.items()}, **SCALARS},
    "terms": {"{}": {}, "[(E, 1), (E, -1)]": [((0, 1), 1), ((0, 1), -1)], **{f"{{E: {k}}}": {(0, 1): v} for k, v in SCALARS.items()}},
    "form": {f"{k}.scaled()": s.scaled() for k, s in SEQS.items()},
    "ratios": {f"ratios({k})": [(v.numerator, v.denominator) for v in s] for k, s in SEQS.items()},
    "columns": {
        f"columns({k})": ([v.numerator for v in s], [hex(v.denominator) for v in s], {hex(v.denominator): v.denominator for v in s})
        for k, s in SEQS.items()
    },
    "spec": {
        "'inline:1,-2,3/4'": "inline:1,-2,3/4", "'inline:'": "inline:", "'inline:1/0'": "inline:1/0",
        "'inline:9*4301'": "inline:" + "9" * 4301, "'bogus:1'": "bogus:1", "'1/0'": "1/0", "'1e3'": "1e3",
    },
    "format": {repr(f): f for f in ("inline", "csv", "json", "bfile", "tex", "1/0")},
    "optext": {
        "'(I+E)^3 - 1/2*D'": "(I+E)^3 - 1/2*D", "'E^-1'": "E^-1", "'1/0'": "1/0", "'1e3'": "1e3",
        "'I^9*4301'": "I^" + "9" * 4301, "'(*65 I'": "(" * 65 + "I",
        "'1/0*4000'": "1/" + "0" * 4000, "'(*64 7*4000'": "(" * 64 + "7" * 4000,
    },
    "check": {"'product_rule'": "product_rule", "'bogus'": "bogus"},
}

# (name, callable, parameter kinds); a method's first kind is its instance's
CALLS = [
    # seqcalc.__all__ and seqcalc.verify: records and constants
    *((name, lambda x, record=record: record(*[x] * len(record._fields)), ("q",))
      for name, record in (("CheckReport", CheckReport), ("ConvexityReport", ConvexityReport),
                           ("MonotonicityReport", MonotonicityReport))),
    *((name, lambda value=value: value, ()) for name, value in (
        ("BOTTOM", BOTTOM), ("DIFFERENCE", DIFFERENCE), ("EMPTY", EMPTY),
        ("IDENTITY", IDENTITY), ("MIDDLE", MIDDLE), ("TOP", TOP))),
    # seqcalc.__all__: functions
    ("antiderivative", seqcalc.antiderivative, ("seq", "q")),
    ("as_rational", seqcalc.as_rational, ("q",)),
    ("bottom", seqcalc.bottom, ("seq",)),
    ("middle", seqcalc.middle, ("seq",)),
    ("top", seqcalc.top, ("seq",)),
    ("classify_convexity", seqcalc.classify_convexity, ("seq",)),
    ("classify_monotonicity", seqcalc.classify_monotonicity, ("seq",)),
    ("collinearity_determinant", seqcalc.collinearity_determinant, ("seq", "q")),
    ("definite_integral", seqcalc.definite_integral, ("seq", "q", "q")),
    ("derivative", seqcalc.derivative, ("seq", "q")),
    ("derivative_error", seqcalc.derivative_error, ("grid", "seq")),
    ("difference", seqcalc.difference, ("grid",)),
    ("discrete_derivative", seqcalc.discrete_derivative, ("grid",)),
    ("displacement", seqcalc.displacement, ("grid", "q")),
    ("mean_filter", seqcalc.mean_filter, ("grid",)),
    ("sample_function", seqcalc.sample_function, ("fn", "q", "q", "q")),
    ("dm_via_determinant", seqcalc.dm_via_determinant, ("seq", "q", "q")),
    ("effective_degree", seqcalc.effective_degree, ("seq", "q", "q")),
    ("lagrange_mth_derivative", seqcalc.lagrange_mth_derivative, ("seq", "q", "q")),
    ("lagrange_poly", seqcalc.lagrange_poly, ("seq", "q", "q")),
    ("load_sequence", seqcalc.load_sequence, ("spec",)),
    ("render_sequence", seqcalc.render_sequence, ("seq", "format")),
    ("parse_operator_poly", seqcalc.parse_operator_poly, ("optext",)),
    # seqcalc.verify: functions
    ("check_names", check_names, ()),
    ("CheckSpec", lambda name, trials, seed: CheckSpec(name, trials, seed), ("check", "q", "q")),
    ("CheckSpec with lengths", lambda lo, hi: CheckSpec("product_rule", 1, 0, lo, hi), ("q", "q")),
    ("run_check", lambda name, trials, seed: run_check(CheckSpec(name, trials, seed)), ("check", "q", "q")),
    ("run_all", run_all, ("q",)),
    # FiniteSeq
    ("FiniteSeq", FiniteSeq, ("values",)),
    ("FiniteSeq.of", lambda x, y: FiniteSeq.of(x, y), ("q", "q")),
    ("FiniteSeq.constant", FiniteSeq.constant, ("q", "q")),
    ("FiniteSeq.from_scaled", lambda form: FiniteSeq.from_scaled(*form), ("form",)),
    ("FiniteSeq.from_ratios", FiniteSeq.from_ratios, ("ratios",)),
    ("FiniteSeq.from_columns", lambda columns: FiniteSeq.from_columns(*columns), ("columns",)),
    ("FiniteSeq.scaled", FiniteSeq.scaled, ("seq",)),
    ("FiniteSeq.values", lambda s: s.values, ("seq",)),
    ("FiniteSeq.at", FiniteSeq.at, ("seq", "q")),
    ("FiniteSeq.prefix", FiniteSeq.prefix, ("seq", "q")),
    ("FiniteSeq.inverse", FiniteSeq.inverse, ("seq",)),
    ("FiniteSeq.__add__", add, ("seq", "any")),
    ("FiniteSeq.__sub__", sub, ("seq", "any")),
    ("FiniteSeq.__mul__", mul, ("seq", "any")),
    ("FiniteSeq.__rmul__", lambda s, x: mul(x, s), ("seq", "q")),
    ("FiniteSeq.__truediv__", truediv, ("seq", "any")),
    ("FiniteSeq.__neg__", neg, ("seq",)),
    ("FiniteSeq.__eq__", eq, ("seq", "any")),
    ("FiniteSeq.__len__", len, ("seq",)),
    ("FiniteSeq.__iter__", list, ("seq",)),
    ("FiniteSeq.__repr__", repr, ("seq",)),
    # OperatorPoly
    ("OperatorPoly", OperatorPoly, ("terms",)),
    ("OperatorPoly.zero", OperatorPoly.zero, ()),
    ("OperatorPoly.scalar", OperatorPoly.scalar, ("q",)),
    ("OperatorPoly.generator", OperatorPoly.generator, ("q", "q")),
    ("OperatorPoly.terms", lambda p: p.terms, ("self_op",)),
    ("OperatorPoly.max_degree", OperatorPoly.max_degree, ("self_op",)),
    ("OperatorPoly.is_zero", OperatorPoly.is_zero, ("self_op",)),
    ("OperatorPoly.is_homogeneous", OperatorPoly.is_homogeneous, ("self_op",)),
    ("OperatorPoly.ordered_terms", OperatorPoly.ordered_terms, ("self_op",)),
    ("OperatorPoly.render", OperatorPoly.render, ("self_op",)),
    ("OperatorPoly.apply", OperatorPoly.apply, ("self_op", "seq")),
    ("OperatorPoly.render of generator", lambda a, b: OperatorPoly.generator(a, b).render(), ("q", "q")),
    ("OperatorPoly.apply of generator", lambda a, s: OperatorPoly.generator(a).apply(s), ("q", "seq")),
    ("OperatorPoly.__add__", add, ("self_op", "op")),
    ("OperatorPoly.__sub__", sub, ("self_op", "op")),
    ("OperatorPoly.__rsub__", lambda p, x: sub(x, p), ("self_op", "q")),
    ("OperatorPoly.__mul__", mul, ("self_op", "op")),
    ("OperatorPoly.__truediv__", truediv, ("self_op", "q")),
    ("OperatorPoly.__pow__", pow, ("self_op", "q")),
    ("OperatorPoly.__neg__", neg, ("self_op",)),
    ("OperatorPoly.__eq__", eq, ("self_op", "op")),
    ("OperatorPoly.__repr__", repr, ("self_op",)),
    # Polynomial
    ("Polynomial", Polynomial, ("values",)),
    ("Polynomial.scaled", Polynomial.scaled, ("poly",)),
    ("Polynomial.coefficients", lambda p: p.coefficients, ("poly",)),
    ("Polynomial.degree", lambda p: p.degree, ("poly",)),
    ("Polynomial.coefficient", Polynomial.coefficient, ("poly", "q")),
    ("Polynomial.evaluate", Polynomial.evaluate, ("poly", "q")),
    ("Polynomial.render", Polynomial.render, ("poly",)),
    ("Polynomial.__eq__", eq, ("poly", "poly")),
    ("Polynomial.__repr__", repr, ("poly",)),
    # GridFunction
    ("GridFunction", GridFunction, ("q", "q", "seq")),
    ("GridFunction.point", GridFunction.point, ("grid", "q")),
    ("GridFunction.origin", lambda g: g.origin, ("grid",)),
    ("GridFunction.step", lambda g: g.step, ("grid",)),
    ("GridFunction.samples", lambda g: g.samples, ("grid",)),
    ("GridFunction.__len__", len, ("grid",)),
    ("GridFunction.__eq__", eq, ("grid", "grid")),
    ("GridFunction.__repr__", repr, ("grid",)),
]  # fmt: skip


def _text(value):
    """A value's text, each int in hex and each dict in key order."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, int):
        return hex(value)
    if isinstance(value, Fraction):
        return f"{hex(value.numerator)}/{hex(value.denominator)}"
    if isinstance(value, FiniteSeq):
        return f"FiniteSeq{_text(value.values)}"
    if isinstance(value, OperatorPoly):
        return f"OperatorPoly{_text(value.terms)}"
    if isinstance(value, Polynomial):
        return f"Polynomial{_text(value.coefficients)}"
    if isinstance(value, GridFunction):
        return f"GridFunction{_text((value.origin, value.step, value.samples))}"
    if isinstance(value, dict):
        return _text(sorted(value.items()))
    if isinstance(value, (tuple, list)):
        return f"{type(value).__name__}({', '.join(map(_text, value))})"
    return f"<{type(value).__name__}>"


def library_corpus():
    """(line label, callable, arguments) for each call, in the order of CALLS."""
    for name, call, kinds in CALLS:
        for seeds in product(*(SEEDS[kind].items() for kind in kinds)):
            labels = ", ".join(label for label, _ in seeds)
            yield f"{name}({labels})", call, [value for _, value in seeds]


def library_outcome(call, args):
    """The outcome's text: "= " and the sha256 of the value's text, or the exception."""
    try:
        return "= " + hashlib.sha256(_text(call(*args)).encode()).hexdigest()
    except SeqCalcError as exc:
        return f"{type(exc).__name__}: {exc}"
    except TypeError:
        return "TypeError"
    except Exception as exc:
        return f"untyped {type(exc).__name__}"


def library_lines():
    return [f"{label} {library_outcome(call, args)}" for label, call, args in library_corpus()]


def test_the_corpus_calls_every_public_name():
    names = {name.split(" ")[0] for name, _, _ in CALLS}
    assert set(seqcalc.__all__) <= names
    assert {"CheckReport", "CheckSpec", "check_names", "run_all", "run_check"} <= names
    for cls in (FiniteSeq, OperatorPoly, Polynomial, GridFunction):
        public = {f"{cls.__name__}.{attr}" for attr in dir(cls) if not attr.startswith("_")}
        assert public <= names, public - names


LIBRARY_OUTCOMES_SHA256 = "8e0b35c4465404cad67980d64a56b9132510a61d6e3dd191b51a2f0fe2ed930b"


def test_library_outcomes_match_the_pinned_digest():
    lines = library_lines()
    assert [line for line in lines if " untyped " in line] == []
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == LIBRARY_OUTCOMES_SHA256


if __name__ == "__main__":
    test_the_corpus_calls_every_public_name()
    test_library_outcomes_match_the_pinned_digest()
    print("library outcomes match the pinned digest")

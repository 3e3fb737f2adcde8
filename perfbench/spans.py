"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each seqcalc layer, in
this process only, with wrappers that time every call.  The source files are
never edited and ``uninstall`` puts every original back.  Spans nest on one
stack, so a span's self time is its duration minus the time its direct child
spans cover.  A span that re-enters itself counts its busy time once.

``sequences.construct`` wraps ``FiniteSeq.__init__``; when a caller passes a
lazy iterable (inline parsing, the verifier's generators, ``middle``), the
work that produces the entries runs inside that span.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _entries(args, result):
    return {"entries": len(args[0].values)}


def _loaded(args, result):
    return {"entries": len(result.values)}


def _rendered(args, result):
    return {"bytes": len(result)} if isinstance(result, str) else {}


def _madds(args, result):
    return {"madds": len(args[0].terms) * len(result)}


def _checked(args, result):
    return {"cases": result.trials_run, "failures": len(result.failures)}


# (span name, module, attribute, class or None, counter)
LAYERS = [
    ("seqio.load", "seqio", "load_sequence", None, _loaded),
    *[
        ("seqio.render", "seqio", attr, None, _rendered)
        for attr in (
            "render_json", "sequence_payload", "rational_payload", "operator_payload",
            "polynomial_payload", "classification_payload", "verification_payload",
        )
    ],  # fmt: skip
    ("parser.parse", "parser", "parse_operator_poly", None, None),
    ("sequences.construct", "sequences", "__init__", "FiniteSeq", _entries),
    ("operators.apply", "operators", "apply", "OperatorPoly", _madds),
    ("operators.mul", "operators", "__mul__", "OperatorPoly", None),
    ("calculus.derivative", "calculus", "derivative", None, None),
    ("calculus.antiderivative", "calculus", "antiderivative", None, None),
    ("calculus.definite_integral", "calculus", "definite_integral", None, None),
    ("analysis.classify", "analysis", "classify_monotonicity", None, None),
    ("analysis.classify", "analysis", "classify_convexity", None, None),
    ("analysis.collinearity", "analysis", "collinearity_determinant", None, None),
    ("lagrange.poly", "lagrange", "lagrange_poly", None, None),
    ("lagrange.det", "lagrange", "bareiss_determinant", None, None),
    ("lagrange.evaluate", "lagrange", "evaluate", "Polynomial", None),
    *[
        ("grid", "grid", attr, None, None)
        for attr in (
            "difference", "displacement", "mean_filter", "discrete_derivative",
            "derivative_error", "sample_function",
        )
    ],  # fmt: skip
    ("verify.check", "verify", "run_check", None, _checked),
]


class Span:
    __slots__ = ("calls", "busy_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self._stack = []  # child time covered so far, one cell per open span
        self._depth = defaultdict(int)
        self._undo = []

    def wrap(self, name, fn, counter=None):
        span, stack, depth = self.spans[name], self._stack, self._depth

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                span.calls += 1
                span.self_s += elapsed - cell[0]
                if not depth[name]:
                    span.busy_s += elapsed
            if counter:
                for key, amount in counter(args, result).items():
                    span.counts[key] += amount
            return result

        return traced

    def _replace(self, owner, original, wrapped):
        for key, value in list(vars(owner).items()):
            if value is original:
                self._undo.append((owner, key, value))
                setattr(owner, key, wrapped)

    def install(self):
        """Wrap every layer function wherever a seqcalc module holds a reference to it."""
        modules = [m for n, m in sys.modules.items() if n == "seqcalc" or n.startswith("seqcalc.")]
        for name, module, attr, cls, counter in LAYERS:
            owner = importlib.import_module(f"seqcalc.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
                original = vars(owner)[attr]
                self._replace(owner, original, self.wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, counter)
            for mod in modules:
                self._replace(mod, original, wrapped)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

"""Exact discrete calculus of finite sequences.

Everything is computed over arbitrary-precision rationals, so the library's
identities (product/quotient rules, both fundamental theorems, convexity
equivalences, interpolation laws) hold with literal equality and are
re-checkable through the bundled verifier.
"""

from .analysis import (
    ConvexityReport,
    MonotonicityReport,
    classify_convexity,
    classify_monotonicity,
    collinearity_determinant,
)
from .calculus import antiderivative, definite_integral, derivative
from .grid import (
    GridFunction,
    derivative_error,
    difference,
    discrete_derivative,
    displacement,
    mean_filter,
    sample_function,
)
from .lagrange import (
    Polynomial,
    dm_via_determinant,
    effective_degree,
    lagrange_mth_derivative,
    lagrange_poly,
)
from .operators import (
    BOTTOM,
    DIFFERENCE,
    IDENTITY,
    MIDDLE,
    TOP,
    OperatorPoly,
    bottom,
    middle,
    top,
)
from .parser import parse_operator_poly
from .seqio import load_sequence, render_sequence
from .sequences import EMPTY, FiniteSeq, as_rational

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "ConvexityReport",
    "DIFFERENCE",
    "EMPTY",
    "FiniteSeq",
    "GridFunction",
    "IDENTITY",
    "MIDDLE",
    "MonotonicityReport",
    "OperatorPoly",
    "Polynomial",
    "TOP",
    "antiderivative",
    "as_rational",
    "bottom",
    "classify_convexity",
    "classify_monotonicity",
    "collinearity_determinant",
    "definite_integral",
    "derivative",
    "derivative_error",
    "difference",
    "discrete_derivative",
    "displacement",
    "dm_via_determinant",
    "effective_degree",
    "lagrange_mth_derivative",
    "lagrange_poly",
    "load_sequence",
    "mean_filter",
    "middle",
    "parse_operator_poly",
    "render_sequence",
    "sample_function",
    "top",
]

"""Finite differences of a function sampled on an arithmetic grid.

A GridFunction stores exact samples of f at x0, x0+h, ..., x0+(n-1)h.
The classical operations live here: forward difference, displacement by k
steps, two-point mean, and the discrete derivative (difference scaled by
1/h), together with the exact sup-norm error against caller-supplied true
derivative samples.  The difference and the mean are the sequence operators
D and M acting on the samples.

Displacement records provenance in the origin: the result of displacement(k)
keeps the surviving samples and carries origin x0 + k*h, so grid alignment
stays explicit.  Negative k drops samples from the tail and needs |k| <= n.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TOO_MANY_DIGITS, FormatError, LengthMismatch, OutOfRange, quoted
from .operators import DIFFERENCE, MIDDLE
from .sequences import FiniteSeq, as_rational, checked_length

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .sequences import RationalLike


def _positive(step: Fraction) -> Fraction:
    """The step, if it is positive, else OutOfRange."""
    if step <= 0:
        raise OutOfRange(f"grid step must be positive, got {quoted(step)}")
    return step


class GridFunction:
    """Samples of f at origin, origin + step, ...; equal when all three parts are."""

    __slots__ = ("origin", "step", "samples")

    def __init__(self, origin: RationalLike, step: RationalLike, samples: FiniteSeq):
        self.step: Fraction = _positive(as_rational(step))
        self.origin: Fraction = as_rational(origin)
        self.samples: FiniteSeq = samples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return (self.origin, self.step, self.samples) == (other.origin, other.step, other.samples)

    def __hash__(self) -> int:
        return hash((self.origin, self.step, self.samples))

    def __repr__(self) -> str:
        try:
            return f"GridFunction(origin={self.origin!r}, step={self.step!r}, samples={self.samples!r})"
        except ValueError:
            raise FormatError(TOO_MANY_DIGITS) from None

    def __len__(self) -> int:
        return len(self.samples)

    def point(self, i: int) -> Fraction:
        """Grid point carrying the i-th sample (1-based)."""
        return self.origin + (i - 1) * self.step


def difference(grid: GridFunction) -> GridFunction:
    return GridFunction(grid.origin, grid.step, DIFFERENCE.apply(grid.samples))


def displacement(grid: GridFunction, k: int) -> GridFunction:
    items, den = grid.samples.scaled()
    n = len(items)
    if k >= 0:
        kept = items[k:]
    else:
        if -k > n:
            raise OutOfRange(f"cannot displace by {quoted(k)}: only {n} samples")
        kept = items[: n + k]
    return GridFunction(grid.origin + k * grid.step, grid.step, FiniteSeq.from_scaled(kept, den))


def mean_filter(grid: GridFunction) -> GridFunction:
    return GridFunction(grid.origin, grid.step, MIDDLE.apply(grid.samples))


def discrete_derivative(grid: GridFunction) -> GridFunction:
    return GridFunction(grid.origin, grid.step, DIFFERENCE.apply(grid.samples) * (1 / grid.step))


def derivative_error(grid: GridFunction, true_derivative: FiniteSeq) -> Fraction:
    """Exact sup-norm gap between the discrete derivative and reference
    samples aligned to x0 .. x0+(n-2)h."""
    approx = discrete_derivative(grid).samples
    if len(approx) != len(true_derivative):
        raise LengthMismatch(len(approx), len(true_derivative), "derivative samples")
    gap, den = (approx - true_derivative).scaled()
    return Fraction(max(map(abs, gap), default=0), den)


def sample_function(fn, origin: RationalLike, step: RationalLike, count: int) -> GridFunction:
    """Tabulate fn at count grid points starting at origin; the step is checked before fn runs."""
    x0, h = as_rational(origin), as_rational(step)
    count = checked_length(count)
    _positive(h)
    samples = FiniteSeq(fn(x0 + i * h) for i in range(count))
    return GridFunction(x0, h, samples)

"""Deterministic sequence generators for the identity checks.

Random rationals draw numerators from -9..9 and denominators from 1..9.
The special families follow their defining recurrences exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadParameter
from .sequences import FiniteSeq, as_rational

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .sequences import RationalLike


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


_NONZERO_NUMERATORS = (*range(-9, 0), *range(1, 10))


def random_nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NONZERO_NUMERATORS), rng.randint(1, 9))


def random_rational_sequence(length: int, rng: random.Random) -> FiniteSeq:
    # random_rational's draws in its order, so a seed gives the same sequences
    return FiniteSeq.from_ratios([(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)])


def random_zero_free_sequence(length: int, rng: random.Random) -> FiniteSeq:
    # random_nonzero_rational's draws in its order; drawing each entry from the
    # nonzero values gives the distribution of resampling until none is zero
    return FiniteSeq.from_ratios(
        [(rng.choice(_NONZERO_NUMERATORS), rng.randint(1, 9)) for _ in range(length)]
    )


def arithmetic_sequence(start: RationalLike, d: RationalLike, length: int) -> FiniteSeq:
    a = as_rational(start)
    step = as_rational(d)
    return FiniteSeq(a + i * step for i in range(length))


def geometric_sequence(start: RationalLike, q: RationalLike, length: int) -> FiniteSeq:
    ratio = as_rational(q)
    if ratio == 0:
        raise BadParameter("geometric ratio q must be nonzero")
    a = as_rational(start)
    values = []
    for _ in range(length):
        values.append(a)
        a = a * ratio
    return FiniteSeq(values)


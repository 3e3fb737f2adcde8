"""Deterministic sequence generators for the identity checks.

Random rationals draw numerators from -9..9 and denominators from 1..9.
The special families follow their defining recurrences exactly.

Every integer draw goes through ``draw(rng, lo, hi)``, which returns what
``rng.randint(lo, hi)`` returns from the same Mersenne Twister words: it is
CPython's ``_randbelow_with_getrandbits`` (the same in 3.10 through 3.13)
written on the public ``rng.getrandbits``.  With n = hi - lo + 1 values and
k = n.bit_length(), it takes ``getrandbits(k)`` until the result is below n,
without ``randint``'s two extra calls.  ``rng.choice(seq)`` is
``seq[draw(rng, 0, len(seq) - 1)]`` the same way.  So a seed gives the same
draws as it did through ``randint`` and ``choice``.

A random sequence is drawn as its (p, q) ratios first
(``random_ratios``, ``random_nonzero_ratios``): the verifier hands the same
draws to ``FiniteSeq.from_ratios`` and to its own oracles.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadParameter
from .sequences import FiniteSeq, as_rational

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .sequences import RationalLike


def draw(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi), drawing the same words from rng."""
    n = hi - lo + 1
    if n <= 0:  # getrandbits(0) is 0 on every call: the loop below would not end
        raise ValueError(f"empty range for draw({lo}, {hi})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(draw(rng, -9, 9), draw(rng, 1, 9))


_NONZERO_NUMERATORS = (*range(-9, 0), *range(1, 10))


def _nonzero_numerator(rng: random.Random) -> int:
    """rng.choice(_NONZERO_NUMERATORS), from the same words."""
    return _NONZERO_NUMERATORS[draw(rng, 0, len(_NONZERO_NUMERATORS) - 1)]


def random_nonzero_rational(rng: random.Random) -> Fraction:
    return Fraction(_nonzero_numerator(rng), draw(rng, 1, 9))


def random_ratios(length: int, rng: random.Random) -> list[tuple[int, int]]:
    """length (p, q) draws, random_rational's in its order, neither reduced nor built."""
    return [(draw(rng, -9, 9), draw(rng, 1, 9)) for _ in range(length)]


def random_nonzero_ratios(length: int, rng: random.Random) -> list[tuple[int, int]]:
    """length (p, q) draws with p != 0, random_nonzero_rational's in its order.

    Drawing each p from the nonzero values gives the distribution of
    resampling the whole sequence until none is zero.
    """
    return [(_nonzero_numerator(rng), draw(rng, 1, 9)) for _ in range(length)]


def random_rational_sequence(length: int, rng: random.Random) -> FiniteSeq:
    return FiniteSeq.from_ratios(random_ratios(length, rng))


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

"""The symbolic operator ring acting on finite sequences.

Every operator here is a commutative polynomial in two generators with
rational coefficients: the *top* generator (drop the last term) and the
*bottom* generator (drop the first term, a unit shift).  The familiar
operators are ring elements:

    identity   1            = T^0 B^0
    top        I            (generator)
    bottom     E            (generator)
    middle     M = (I+E)/2
    difference D = E - I

Ring arithmetic keeps the sparse term map canonical (no zero coefficients),
so two expressions denote the same operator exactly when their term maps are
equal.  Note the identity and the top generator are *symbolically* distinct
even though their applications agree after truncation.

Applying a polynomial with maximum total degree d to a sequence of length n
yields a sequence of length max(n - d, 0): each monomial T^a B^b contributes
S(i + b), and lower-degree monomials are evaluated on the same truncated
index range 1..n-d.  The canonical zero operator maps S to the zero sequence
of the same length (it acts as the scalar 0).

``apply`` is the library's one linear stencil.  Once per operator it sums
the coefficients, as integers over the lcm d of their denominators, by
bottom exponent b and divides the sums by their gcd g: coprime integer
weights times the scale g / d.  Each call adds one multiple of the slice
S[b : b + n - d] of the sequence's working form (integers over a common
denominator, see ``sequences``) per shift, a plain add or subtract for a
unit weight, so D costs one subtraction per entry.  The scale's numerator
multiplies the sums and its denominator joins the common denominator, so
integer items stay integers.

Ring multiplication and powers (and so every parsed product or power) work
on integers over a common denominator: each factor, or a power's base, is
scaled once by the lcm d of its coefficient denominators, and one
``Fraction`` is built per output monomial, over d1 * d2 or d**N.  A product
convolves the two integer term lists.  A power expands binomially over the
base's first term u = c*I^a*E^b and the rest R: P^N = sum_k C(N, k) u^(N-k)
R^k, with R^k convolved from R^(k-1) and c^(N-k) stepped down by exact
division.  For a two-term base R is one monomial, so the power costs O(N)
integer products where repeated squaring cost O(N^2).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .errors import BadParameter, NegativePower
from .sequences import FiniteSeq, as_rational, format_rational, format_terms

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from typing import Union

    from .sequences import RationalLike

Monomial = tuple[int, int]  # (top exponent, bottom exponent)


class OperatorPoly:
    """Canonical sparse polynomial over the top/bottom generators."""

    __slots__ = ("_terms", "_stencil")

    def __init__(self, terms: Mapping[Monomial, RationalLike] = ()):
        clean: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (a, b), coeff in items:
            if a < 0 or b < 0:
                raise NegativePower(min(a, b))
            c = as_rational(coeff)
            if c != 0:
                clean[(a, b)] = clean.get((a, b), Fraction(0)) + c
                if clean[(a, b)] == 0:
                    del clean[(a, b)]
        self._terms = clean
        self._stencil = None

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    @staticmethod
    def zero() -> OperatorPoly:
        return OperatorPoly()

    @staticmethod
    def scalar(value: RationalLike) -> OperatorPoly:
        return OperatorPoly({(0, 0): as_rational(value)})

    @staticmethod
    def generator(top_power: int = 0, bottom_power: int = 0) -> OperatorPoly:
        return OperatorPoly({(top_power, bottom_power): 1})

    def max_degree(self) -> int:
        """Largest total degree among the terms, -1 for the zero operator."""
        if not self._terms:
            return -1
        return max(a + b for a, b in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self) -> bool:
        """True when every monomial shares one total degree (or zero)."""
        degrees = {a + b for a, b in self._terms}
        return len(degrees) <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: Union[OperatorPoly, RationalLike]) -> OperatorPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, Fraction(0)) + coeff
        return OperatorPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> OperatorPoly:
        return OperatorPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: Union[OperatorPoly, RationalLike]) -> OperatorPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> OperatorPoly:
        return _coerce(other) + (-self)

    def __mul__(self, other: Union[OperatorPoly, RationalLike]) -> OperatorPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, left = _over_common_denominator(self._terms)
        d2, right = _over_common_denominator(other._terms)
        return _from_integers(_convolve(left, right), d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> OperatorPoly:
        s = as_rational(scalar)
        if s == 0:
            raise BadParameter("division of an operator by the scalar zero")
        return OperatorPoly({k: c / s for k, c in self._terms.items()})

    def __pow__(self, exponent: int) -> OperatorPoly:
        if not isinstance(exponent, int):
            raise TypeError("operator exponents must be integers")
        if exponent < 0:
            raise NegativePower(exponent)
        d, base = _over_common_denominator(self._terms)
        if not base:
            return OperatorPoly.scalar(1) if exponent == 0 else OperatorPoly()
        # P^n = sum_k C(n, k) u^(n-k) R^k over the first term u = c I^a E^b and the rest R
        ((a, b), c), rest = base[0], base[1:]
        sums: dict[Monomial, int] = {}
        binom, c_power, rest_power = 1, c**exponent, [((0, 0), 1)]
        for k in range(exponent + 1):
            j = exponent - k
            factor = binom * c_power
            for (ra, rb), r in rest_power:
                key = (a * j + ra, b * j + rb)
                sums[key] = sums.get(key, 0) + factor * r
            if k == exponent or not rest:
                break
            binom = binom * j // (k + 1)
            c_power //= c
            rest_power = _convolve(rest_power, rest)
        return _from_integers([(key, v) for key, v in sums.items() if v], d**exponent)

    def _weights(self) -> tuple[int, Fraction, list[tuple[int, int]]]:
        """(truncation, scale, [(shift b, integer weight)]), a +1 weight first."""
        d, terms = _over_common_denominator(self._terms)
        merged: dict[int, int] = {}
        for (_, b), c in terms:
            merged[b] = merged.get(b, 0) + c
        nonzero = [(b, w) for b, w in merged.items() if w]
        g = gcd(*(w for _, w in nonzero))
        weights = sorted(((b, w // g) for b, w in nonzero), key=lambda bw: bw[1] != 1)
        return max(self.max_degree(), 0), Fraction(g, d), weights

    def apply(self, seq: FiniteSeq) -> FiniteSeq:
        """Act on a finite sequence with the truncation convention."""
        if self._stencil is None:
            self._stencil = self._weights()
        depth, scale, weights = self._stencil
        items, den = seq.scaled()
        out_len = max(len(items) - depth, 0)
        if not weights:
            return FiniteSeq.from_scaled([0] * out_len, 1)
        (b, w), *rest = weights
        acc = items[b : b + out_len] if w == 1 else [v * w for v in items[b : b + out_len]]
        for b, w in rest:
            window = items[b : b + out_len]
            if w == 1:
                acc = [x + v for x, v in zip(acc, window)]
            elif w == -1:
                acc = [x - v for x, v in zip(acc, window)]
            else:
                acc = [x + v * w for x, v in zip(acc, window)]
        if scale.numerator != 1:
            acc = [x * scale.numerator for x in acc]
        return FiniteSeq.from_scaled(acc, den * scale.denominator)

    def ordered_terms(self) -> list[tuple[int, int, bool, str]]:
        """(top power, bottom power, negative, |coefficient| as text) per term.

        The terms come by total degree, then bottom exponent: the order that
        ``render`` writes.  Each coefficient becomes text here, once.
        """
        ordered = sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1]))
        return [(a, b, c.numerator < 0, format_rational(abs(c))) for (a, b), c in ordered]

    def render(self) -> str:
        """Canonical text: terms by total degree then bottom exponent.

        Examples: "1/2*I + 1/2*E", "-I + E", "I^2 - 2*I*E + E^2", "0".
        Re-parseable by the expression parser.
        """
        return render_terms(self.ordered_terms())

    def __repr__(self) -> str:
        return f"<OperatorPoly {self.render()}>"


def _over_common_denominator(
    terms: dict[Monomial, Fraction],
) -> tuple[int, list[tuple[Monomial, int]]]:
    """(d, [(monomial, d * coeff)]) with d the lcm of the coefficient denominators."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in terms.items()]


def _convolve(
    left: list[tuple[Monomial, int]], right: list[tuple[Monomial, int]]
) -> list[tuple[Monomial, int]]:
    """The nonzero integer coefficients of the product of two integer term lists."""
    sums: dict[Monomial, int] = {}
    for (a1, b1), n1 in left:
        for (a2, b2), n2 in right:
            key = (a1 + a2, b1 + b2)
            sums[key] = sums.get(key, 0) + n1 * n2
    return [(key, c) for key, c in sums.items() if c]


def _from_integers(terms: list[tuple[Monomial, int]], den: int) -> OperatorPoly:
    """The operator sum(c / den * monomial) over distinct monomials with c != 0."""
    # the terms are already merged by monomial: skip __init__'s Fraction pass
    poly = object.__new__(OperatorPoly)
    poly._terms = {key: Fraction(c, den) for key, c in terms}
    poly._stencil = None
    return poly


def _coerce(value: Union[OperatorPoly, RationalLike]) -> OperatorPoly:
    if isinstance(value, OperatorPoly):
        return value
    if isinstance(value, (int, str, Fraction)):
        return OperatorPoly.scalar(value)
    return NotImplemented


def render_terms(ordered: list[tuple[int, int, bool, str]]) -> str:
    """The canonical text of an operator from its ``ordered_terms()``."""
    return format_terms((negative, body, _monomial(a, b)) for a, b, negative, body in ordered)


def _monomial(a: int, b: int) -> str:
    factors = []
    if a:
        factors.append("I" if a == 1 else f"I^{a}")
    if b:
        factors.append("E" if b == 1 else f"E^{b}")
    return "*".join(factors)


IDENTITY = OperatorPoly.scalar(1)
TOP = OperatorPoly.generator(top_power=1)
BOTTOM = OperatorPoly.generator(bottom_power=1)
MIDDLE = (TOP + BOTTOM) / 2
DIFFERENCE = BOTTOM - TOP

GENERATORS = {"1": IDENTITY, "I": TOP, "E": BOTTOM, "M": MIDDLE, "D": DIFFERENCE}


def top(seq: FiniteSeq) -> FiniteSeq:
    """Drop the last term (length n -> n-1; empty stays empty)."""
    items, den = seq.scaled()
    return FiniteSeq.from_scaled(items[:-1], den)


def bottom(seq: FiniteSeq) -> FiniteSeq:
    """Drop the first term; the unit shift."""
    items, den = seq.scaled()
    return FiniteSeq.from_scaled(items[1:], den)


def middle(seq: FiniteSeq) -> FiniteSeq:
    """Pairwise mean of top and bottom."""
    return MIDDLE.apply(seq)

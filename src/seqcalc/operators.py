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

The identity and the top generator are *symbolically* distinct even though
their applications agree after truncation.

Applying a polynomial with maximum total degree d to a sequence of length n
yields a sequence of length max(n - d, 0): each monomial T^a B^b contributes
S(i + b), and lower-degree monomials are evaluated on the same truncated
index range 1..n-d.  The canonical zero operator maps S to the zero sequence
of the same length (it acts as the scalar 0).

An operator is stored in lowest terms as ``(terms, den)``: a nonzero integer
per monomial over one positive den, with gcd(den, *terms) = 1 and den = 1 for
zero.  So equal operators have equal forms, which ``==`` and ``hash`` compare.
Sums align den to an lcm, and a product convolves the terms over d1 * d2.
``__init__``, sums, negations and products end in one reducer, ``_reduce``:
divide by the gcd, drop zero terms.  The ring operations hand it their int
term maps directly, without ``__init__``'s parse.  Powers skip the gcd: by
Gauss's lemma the content (gcd of the terms) of P^N is the content of P to
the N, which is coprime to d**N because the content of P is coprime to d,
so a power of a base in lowest terms is born in lowest terms and only its
zero sums are dropped.  A power expands over the base's first term
u = c*I^a*E^b and the rest R: P^N = sum_k C(N, k) u^(N-k) R^k over d**N,
with R^k convolved from R^(k-1) and c^(N-k) stepped down by exact division.
Where R is one term r*I^p*E^q, as in D, M and every (a*I - b*E), the k-th
coefficient t_k = C(N, k) c^(N-k) r^k comes from the one before by the
binomial ratio, t_(k+1) = t_k * (N-k) * r // ((k+1) * c), one exact
division per step.
Exponents are bounded by ``MAX_EXPONENT``, and the term products of one
``*`` or ``**`` by ``MAX_TERM_PRODUCTS``.

``apply`` is the library's one linear stencil.  Once per operator it sums
the integer terms by bottom exponent b and divides the sums by their gcd g:
coprime integer weights times the scale g / den.  Each call adds one multiple
of the slice S[b : b + n - d] of the sequence's working form (see
``sequences``) per shift, a plain add or subtract for a unit weight, so D
costs one subtraction per entry.  The scale's numerator multiplies the sums
and its denominator joins the sequence's, so integer items stay integers.  The
scale is kept as two ints, and each shift's add, subtract or multiple runs as
one C-level ``map`` over its window, with no per-entry Python frame.  Near
full order the output is short and the passes many: where a stencil has
more than two shifts and more shifts than outputs, and its dense weight row
over shifts 0..top (top being the last shift with a nonzero weight) holds
at most one zero per two nonzero weights, each output is instead one dot
product of that row with its window S[i : i + top + 1].  The row is built
once per operator, and only for such a stencil, so its length is bounded by
the operator's own terms whatever its degree.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub

from .errors import TOO_MANY_DIGITS, BadParameter, FormatError, NegativePower, quoted
from .sequences import FiniteSeq, as_rational, format_items, format_terms, over_lcm

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from typing import Union

    from .sequences import RationalLike

Monomial = tuple[int, int]  # (top exponent, bottom exponent)

MAX_EXPONENT = 4096  # work and text grow with the exponent squared: (I+E)^4000 is 10.7 MB

# products of two terms that one * or ** may form, counted before each step: (I+E)^4096 forms
# 8194, but ((I+E)^60)^60 convolves a 60-term rest 60 times, about 6.6 million products
MAX_TERM_PRODUCTS = 2**17


class OperatorPoly:
    """Canonical sparse polynomial over the top/bottom generators."""

    __slots__ = ("_terms", "_den", "_stencil")

    def __init__(self, terms: Mapping[Monomial, RationalLike] = ()):
        """sum(c * monomial) over (monomial, c) pairs; monomials may repeat."""
        pairs = list(terms.items() if isinstance(terms, Mapping) else terms)
        nums, d = over_lcm(c for _, c in pairs)
        merged: dict[Monomial, int] = {}
        for ((a, b), _), c in zip(pairs, nums):
            if a < 0 or b < 0:
                raise NegativePower(min(a, b))
            merged[a, b] = merged.get((a, b), 0) + c
        self._reduce(merged, d)

    def _reduce(self, terms: dict[Monomial, int], den: int) -> OperatorPoly:
        """Store sum(c / den * monomial) over int terms, den > 0, in lowest terms."""
        g = gcd(den, *terms.values())
        self._terms = {key: c // g for key, c in terms.items() if c}
        self._den, self._stencil = den // g, None
        return self

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """Each monomial's coefficient as a Fraction, built on each call."""
        den = self._den
        return {key: Fraction(c, den) for key, c in self._terms.items()}

    @staticmethod
    def zero() -> OperatorPoly:
        return OperatorPoly()

    @staticmethod
    def scalar(value: RationalLike) -> OperatorPoly:
        return OperatorPoly({(0, 0): value})

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
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __add__(self, other: Union[OperatorPoly, RationalLike]) -> OperatorPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self._den, other._den)
        f1, f2 = den // self._den, den // other._den
        merged = {key: c * f1 for key, c in self._terms.items()}
        for key, c in other._terms.items():
            merged[key] = merged.get(key, 0) + c * f2
        return _from_ints(merged, den)

    __radd__ = __add__

    def __neg__(self) -> OperatorPoly:
        return _from_ints({key: -c for key, c in self._terms.items()}, self._den)

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
        _check_work(len(self._terms) * len(other._terms), "product")
        return _from_ints(_convolve(self._terms, other._terms), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> OperatorPoly:
        s = as_rational(scalar)
        if s == 0:
            raise BadParameter("division of an operator by the scalar zero")
        return self * (1 / s)

    def __pow__(self, exponent: int) -> OperatorPoly:
        if not isinstance(exponent, int):
            raise TypeError("operator exponents must be integers")
        if exponent < 0:
            raise NegativePower(exponent)
        if exponent > MAX_EXPONENT:
            raise BadParameter(
                f"operator exponents must be <= {MAX_EXPONENT}, got {quoted(exponent)}"
            )
        if not self._terms:
            return OperatorPoly.scalar(1) if exponent == 0 else OperatorPoly()
        if len(self._terms) == 2:
            return self._binomial_power(exponent)
        # P^n = sum_k C(n, k) u^(n-k) R^k over the first term u = c I^a E^b and the rest R
        ((a, b), c), *rest = self._terms.items()
        rest = dict(rest)
        sums: dict[Monomial, int] = {}
        binom, c_power, rest_power, work = 1, c**exponent, {(0, 0): 1}, 0
        for k in range(exponent + 1):
            # this step: one product per term of R^k, and R^(k+1) = R^k * R
            work += len(rest_power) * (1 + len(rest))
            _check_work(work, "power")
            j = exponent - k
            factor = binom * c_power
            for (ra, rb), r in rest_power.items():
                key = (a * j + ra, b * j + rb)
                sums[key] = sums.get(key, 0) + factor * r
            if k == exponent or not rest:
                break
            binom = binom * j // (k + 1)
            c_power //= c
            rest_power = _convolve(rest_power, rest)
        return _from_lowest({key: s for key, s in sums.items() if s}, self._den**exponent)

    def _binomial_power(self, n: int) -> OperatorPoly:
        """(u + v)^n for the two terms u = c I^a E^b and v = r I^ra E^rb, by the binomial ratio.

        The k-th term C(n, k) c^(n-k) r^k comes from the one before by one exact
        division; the terms are inserted by ascending k, as the general loop does.
        No term is zero and no two share a monomial, so the map is stored as it is.
        """
        # 2 (n + 1) <= 8194 products of terms, by the general loop's count: under MAX_TERM_PRODUCTS
        ((a, b), c), ((ra, rb), r) = self._terms.items()
        sums: dict[Monomial, int] = {}
        t = c**n
        for k in range(n + 1):
            j = n - k
            sums[a * j + ra * k, b * j + rb * k] = t
            t = t * j * r // ((k + 1) * c)
        return _from_lowest(sums, self._den**n)

    def _weights(self) -> tuple[int, int, int, list[tuple[int, int]], list[int]]:
        """(truncation, scale num, scale den, [(shift b, integer weight)], dense row).

        The weights come with a +1 weight first.  The dense row holds the weight
        of each shift 0..top, top being the largest shift with a nonzero weight;
        it is empty unless there are more than two weights and at most one zero
        per two of them, the stencils whose dot products beat the passes.
        The scale g / den is in lowest terms, g being the gcd of the summed weights.
        """
        merged: dict[int, int] = {}
        for (_, b), c in self._terms.items():
            merged[b] = merged.get(b, 0) + c
        nonzero = [(b, w) for b, w in merged.items() if w]
        g = gcd(*(w for _, w in nonzero))
        weights = sorted(((b, w // g) for b, w in nonzero), key=lambda bw: bw[1] != 1)
        row = []
        top = max((b for b, _ in weights), default=-1)
        # 2 (top + 1) <= 3 len(weights) also bounds the row by the terms, whatever the degree
        if len(weights) > 2 and 2 * (top + 1) <= 3 * len(weights):
            row = [0] * (top + 1)
            for b, w in weights:
                row[b] = w
        h = gcd(g, self._den)
        return max(self.max_degree(), 0), g // h, self._den // h, weights, row

    def apply(self, seq: FiniteSeq) -> FiniteSeq:
        """Act on a finite sequence with the truncation convention.

        Each shift adds its window of items to the sums in one C-level ``map``;
        where shifts outnumber outputs and the stencil has a dense row, each
        output is one dot product instead.
        """
        if self._stencil is None:
            self._stencil = self._weights()
        depth, scale_num, scale_den, weights, row = self._stencil
        items, den = seq.scaled()
        out_len = max(len(items) - depth, 0)
        if not weights:
            return FiniteSeq.from_scaled([0] * out_len, 1)
        if row and len(weights) > out_len:
            # the row ends at a nonzero weight and Fraction items form a trailing run,
            # so each sum is a Fraction exactly where the passes' sum would be
            span = len(row)
            acc = [sum(map(mul, row, items[i : i + span])) for i in range(out_len)]
        else:
            (b, w), *rest = weights
            acc = items[b : b + out_len]
            if w != 1:
                acc = list(map(mul, acc, repeat(w)))
            for b, w in rest:
                window = items[b : b + out_len]
                if w == 1:
                    acc = list(map(add, acc, window))
                elif w == -1:
                    acc = list(map(sub, acc, window))
                else:
                    acc = list(map(add, acc, map(mul, window, repeat(w))))
        if scale_num != 1:
            acc = list(map(mul, acc, repeat(scale_num)))
        return FiniteSeq.from_scaled(acc, den * scale_den)

    def ordered_terms(self) -> list[tuple[int, int, str]]:
        """(top power, bottom power, coefficient as text) per term.

        The terms come by total degree, then bottom exponent: the order that
        ``render`` writes.  Each coefficient becomes text here, once.
        """
        ordered = sorted(self._terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1]))
        texts = format_items([c for _, c in ordered], self._den)
        return [(a, b, text) for ((a, b), _), text in zip(ordered, texts)]

    def render(self) -> str:
        """Canonical text: terms by total degree then bottom exponent.

        Examples: "1/2*I + 1/2*E", "-I + E", "I^2 - 2*I*E + E^2", "0".
        Re-parseable by the expression parser.
        """
        return render_terms(self.ordered_terms())

    def __repr__(self) -> str:
        return f"<OperatorPoly {self.render()}>"


def _from_ints(terms: dict[Monomial, int], den: int) -> OperatorPoly:
    """A ring result from its int term map over den > 0, without ``__init__``'s parse."""
    return object.__new__(OperatorPoly)._reduce(terms, den)


def _from_lowest(terms: dict[Monomial, int], den: int) -> OperatorPoly:
    """A power from its nonzero int terms over den > 0, already in lowest terms."""
    poly = object.__new__(OperatorPoly)
    poly._terms, poly._den, poly._stencil = terms, den, None
    return poly


def _convolve(left: dict[Monomial, int], right: dict[Monomial, int]) -> dict[Monomial, int]:
    """The integer coefficients of the product of two integer term maps."""
    sums: dict[Monomial, int] = {}
    for (a1, b1), n1 in left.items():
        for (a2, b2), n2 in right.items():
            key = (a1 + a2, b1 + b2)
            sums[key] = sums.get(key, 0) + n1 * n2
    return sums


def _check_work(products: int, kind: str) -> None:
    if products > MAX_TERM_PRODUCTS:
        raise BadParameter(f"an operator {kind} may form at most {MAX_TERM_PRODUCTS} products of terms")


def _coerce(value: Union[OperatorPoly, RationalLike]) -> OperatorPoly:
    if isinstance(value, OperatorPoly):
        return value
    if isinstance(value, (int, str, Fraction)):
        return OperatorPoly.scalar(value)
    return NotImplemented


def render_terms(ordered: list[tuple[int, int, str]]) -> str:
    """The canonical text of an operator from its ``ordered_terms()``.

    An exponent past Python's int/str digit limit raises ``format_items``' FormatError.
    """
    try:
        return format_terms((text, _monomial(a, b)) for a, b, text in ordered)
    except ValueError:
        raise FormatError(TOO_MANY_DIGITS) from None


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

GENERATORS = {"I": TOP, "E": BOTTOM, "M": MIDDLE, "D": DIFFERENCE}


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

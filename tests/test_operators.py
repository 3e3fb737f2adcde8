"""Operator ring canonical forms, application semantics and ring laws."""

import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcalc import (
    BOTTOM,
    DIFFERENCE,
    EMPTY,
    IDENTITY,
    MIDDLE,
    TOP,
    FiniteSeq,
    OperatorPoly,
    bottom,
    middle,
    top,
)
from seqcalc.calculus import antiderivative
from seqcalc.errors import BadParameter, NegativePower
from seqcalc.operators import MAX_EXPONENT, MAX_TERM_PRODUCTS
from seqcalc.parser import parse_operator_poly

from strategies import (
    finite_seqs,
    homogeneous_polys,
    monomials,
    nonzero_rationals,
    operator_polys,
    rationals,
    same_length_pairs,
)


def test_canonical_generators():
    assert DIFFERENCE.terms == {(1, 0): Fraction(-1), (0, 1): Fraction(1)}
    assert MIDDLE.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    assert IDENTITY.terms == {(0, 0): Fraction(1)}


def test_squared_difference_terms():
    assert (DIFFERENCE**2).terms == {
        (0, 2): Fraction(1),
        (1, 1): Fraction(-2),
        (2, 0): Fraction(1),
    }


def test_symbolic_equality():
    assert MIDDLE == (TOP + BOTTOM) / 2
    assert DIFFERENCE == BOTTOM - TOP
    # identity and top agree after truncation but are distinct symbols
    assert IDENTITY != TOP


def test_apply_examples():
    assert (TOP * BOTTOM).apply(FiniteSeq([10, 20, 30])) == FiniteSeq([20])
    s = FiniteSeq([1, "3/2", -4])
    assert IDENTITY.apply(s) == s
    # oracle: evaluate each monomial on the common range 1..n-1 and add
    assert (IDENTITY + BOTTOM).apply(FiniteSeq([1, 2, 3])) == FiniteSeq([3, 5])


def test_apply_degenerate_cases():
    assert DIFFERENCE.apply(EMPTY) == EMPTY
    assert (DIFFERENCE**3).apply(FiniteSeq([1, 2])) == EMPTY
    # the canonical zero operator acts as the scalar 0
    assert OperatorPoly.zero().apply(FiniteSeq([1, 2])) == FiniteSeq([0, 0])
    assert OperatorPoly.zero().apply(EMPTY) == EMPTY


def test_max_degree_and_homogeneous():
    assert OperatorPoly.zero().max_degree() == -1
    assert IDENTITY.max_degree() == 0
    assert (TOP * BOTTOM).max_degree() == 2
    assert DIFFERENCE.is_homogeneous()
    assert not (IDENTITY + BOTTOM).is_homogeneous()


def test_negative_power_rejected():
    with pytest.raises(NegativePower):
        DIFFERENCE ** (-1)
    with pytest.raises(NegativePower):
        OperatorPoly({(-1, 0): 1})


def test_exponent_bound():
    assert OperatorPoly.scalar(2) ** MAX_EXPONENT == OperatorPoly.scalar(2**MAX_EXPONENT)
    message = f"must be <= {MAX_EXPONENT}, got {MAX_EXPONENT + 1}"
    for base in (TOP, OperatorPoly.zero(), OperatorPoly.scalar(2)):
        with pytest.raises(BadParameter, match=message):
            base ** (MAX_EXPONENT + 1)


def test_term_product_bound():
    three, wide = IDENTITY + TOP + BOTTOM, (TOP + BOTTOM) ** 400
    # (1+I+E)^N forms about 1.5 N^2 products, so ^250 is within the bound and ^400 is not
    assert len((three**250).terms) == 251 * 252 // 2
    assert ((TOP + BOTTOM) ** 3) ** 3 == (TOP + BOTTOM) ** 9
    bound = f"at most {MAX_TERM_PRODUCTS} products of terms"
    with pytest.raises(BadParameter, match=f"an operator power may form {bound}"):
        three**400
    with pytest.raises(BadParameter, match=f"an operator power may form {bound}"):
        wide**2  # the 400-term rest times itself
    with pytest.raises(BadParameter, match=f"an operator product may form {bound}"):
        wide * wide  # 401 * 401 terms


@st.composite
def operator_routes(draw):
    """Two operators, each built by one route; often the same operator."""
    terms = draw(st.dictionaries(monomials, rationals, max_size=4))
    base, other = OperatorPoly(terms), draw(operator_polys)
    k, n = draw(st.integers(2, 9)), draw(st.integers(0, 3))
    routes = [
        base,
        other,
        # unreduced "p/q" text
        OperatorPoly({key: f"{c.numerator * k}/{c.denominator * k}" for key, c in terms.items()}),
        # repeated keys
        OperatorPoly([(key, c / k) for key, c in terms.items()] * k),
        # sums that cancel, products and powers
        base + other - other,
        base * other - other * base + base,
        base * base**n - base ** (n + 1) + base,
        # a product with a scalar, then division by it
        base * k / k,
        (base / -k) * OperatorPoly.scalar(Fraction(-k)),
    ]
    return draw(st.sampled_from(routes)), draw(st.sampled_from(routes))


@given(operator_routes())
def test_equal_operators_have_equal_forms(pair):
    a, b = pair
    assert (a == b) == (a.terms == b.terms)
    if a == b:
        assert hash(a) == hash(b)
        assert a.render() == b.render()
    assert a - a == OperatorPoly() == a * 0
    assert hash(a - a) == hash(OperatorPoly())
    assert OperatorPoly(a.terms) == a


@pytest.mark.parametrize("m", range(9))
def test_binomial_expansion(m):
    expected = OperatorPoly({(k, m - k): (-1) ** k * comb(m, k) for k in range(m + 1)})
    assert DIFFERENCE**m == expected


@pytest.mark.parametrize(
    "poly,text",
    [
        (OperatorPoly.zero(), "0"),
        (IDENTITY, "1"),
        (DIFFERENCE, "-I + E"),
        (MIDDLE, "1/2*I + 1/2*E"),
        (DIFFERENCE**2, "I^2 - 2*I*E + E^2"),
        (OperatorPoly.scalar("5/2") + 3 * TOP * BOTTOM**2, "5/2 + 3*I*E^2"),
    ],
)
def test_render_golden(poly, text):
    assert poly.render() == text


@given(operator_polys, operator_polys, operator_polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p + (q + r) == (p + q) + r
    assert p * (q * r) == (p * q) * r
    assert p * (q + r) == p * q + p * r


@given(operator_polys, same_length_pairs(max_size=8), rationals)
def test_application_linearity(p, pair, lam):
    s, g = pair
    assert p.apply(s * lam + g) == p.apply(s) * lam + p.apply(g)


@given(homogeneous_polys(), homogeneous_polys(), finite_seqs(max_size=10))
def test_homogeneous_composition(p, q, s):
    assert (p * q).apply(s) == p.apply(q.apply(s))


@given(operator_polys)
def test_empty_sequence_convention(p):
    assert p.apply(EMPTY) == EMPTY


@given(finite_seqs())
def test_slicing_helpers_match_operator_application(s):
    assert top(s) == TOP.apply(s)
    assert bottom(s) == BOTTOM.apply(s)
    assert middle(s) == MIDDLE.apply(s)


@given(finite_seqs())
def test_middle_is_mean_of_top_and_bottom(s):
    if len(s) == 0:
        assert middle(s) == EMPTY
    else:
        assert middle(s) == (top(s) + bottom(s)) * Fraction(1, 2)


power_bases = st.one_of(
    operator_polys,
    rationals.map(OperatorPoly.scalar),
    st.just(OperatorPoly.zero()),
)


@given(power_bases, st.integers(min_value=0, max_value=12))
def test_power_is_repeated_product(p, n):
    expected = OperatorPoly.scalar(1)
    terms = {(0, 0): Fraction(1)}
    for _ in range(n):
        expected = expected * p
        terms = convolution_oracle(OperatorPoly(terms), p)
    power = p**n
    assert power == expected
    assert power.terms == terms
    assert all(type(c) is Fraction and c != 0 for c in power.terms.values())


@settings(deadline=None)
@given(
    nonzero_rationals,
    nonzero_rationals,
    st.lists(monomials, min_size=2, max_size=2, unique=True),
    st.integers(min_value=0, max_value=300),
)
# equal degree with one negative term; both negative, E first; mixed degree; past 2**64
@example(Fraction(7, 3), Fraction(-5, 8), [(1, 0), (0, 1)], 40)
@example(Fraction(-1), Fraction(-1, 2), [(0, 1), (1, 0)], 40)
@example(Fraction(-3), Fraction(5, 2), [(2, 1), (0, 4)], 40)
@example(Fraction(2**70 + 1, 3), Fraction(-(3**45), 2**66 + 1), [(0, 0), (1, 1)], 40)
@example(Fraction(-(2**65)), Fraction(-7, 2**80), [(3, 0), (0, 0)], 40)
def test_two_term_power_matches_binomial_oracle(a, b, pair, n):
    (p, q), (r, s) = pair
    power = OperatorPoly({(p, q): a, (r, s): b}) ** n
    # distinct monomials: the k-th binomial term has its own monomial
    expected = {
        (p * (n - k) + r * k, q * (n - k) + s * k): comb(n, k) * a ** (n - k) * b**k
        for k in range(n + 1)
    }
    # ... inserted by ascending k
    assert list(power.terms.items()) == list(expected.items())
    # stored in lowest terms without a gcd pass: the content of a power is the base's to the n
    assert gcd(power._den, *power._terms.values()) == 1


def test_two_term_power_at_the_exponent_bound_is_the_binomial_row():
    n = MAX_EXPONENT
    # a two-term power forms 2 (n + 1) products of terms, so it never meets the bound
    assert 2 * (n + 1) <= MAX_TERM_PRODUCTS
    power = (TOP + BOTTOM) ** n
    assert list(power.terms.items()) == [((n - k, k), comb(n, k)) for k in range(n + 1)]


def raw_apply_oracle(p, s):
    """Sum of c * S(i + b) over the terms, on the range 1..n-d; n zeros for 0."""
    vals = s.values
    if p.is_zero():
        return [Fraction(0)] * len(vals)
    out_len = max(len(vals) - p.max_degree(), 0)
    return [
        sum((c * vals[i + b] for (_, b), c in p.terms.items()), Fraction(0))
        for i in range(out_len)
    ]


@given(operator_polys, st.integers(min_value=0, max_value=6), finite_seqs(max_size=40))
def test_apply_matches_raw_index_oracle(p, n, s):
    # p**n: large, cancelling coefficients for the integer weights
    for q in (p, p**n):
        assert list(q.apply(s).values) == raw_apply_oracle(q, s)


@pytest.mark.parametrize("n", [5001, 6003])
def test_minus_one_weights_over_long_outputs_match_raw_index_oracle(n):
    # the -1 weights take apply's subtracting map; the outputs pass 5000 entries
    rng = random.Random(n)
    xs = [rng.randint(-(10**20), 10**20) for _ in range(n)]
    s = FiniteSeq(xs)
    assert DIFFERENCE.apply(s) == FiniteSeq([xs[i + 1] - xs[i] for i in range(n - 1)])
    assert (BOTTOM**3 - TOP).apply(s) == FiniteSeq([xs[i + 3] - xs[i] for i in range(n - 3)])


# stencils with more than two shifts: a gapped one, one whose top shift is below its degree
DOT_STENCILS = ["I + 2*E^2 - E^3", "I^4 + E - 2*E^2", "(7/3*I - 5/8*E)^20", "(I+E)^12"]


def dot_inputs(n):
    """Sequences of length n: ints past 2**64, p/q, and Fraction items past DEN_BITS after
    a leading run of ints, as four antiderivatives leave them."""
    rng = random.Random(n)
    wide = FiniteSeq([Fraction(rng.randint(-9, 9), q**30) for q in (3, 5, 7, 11, 13, 17, 19, 23) * 8])
    for constant in ("1/3", "2/7", -1, 5):
        wide = antiderivative(wide, constant)
    return [
        FiniteSeq([rng.randint(-(10**30), 10**30) for _ in range(n)]),
        FiniteSeq([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]),
        wide.prefix(n),
        bottom(wide).prefix(n),
    ]


@pytest.mark.parametrize("text", DOT_STENCILS)
def test_dot_products_match_raw_index_oracle_and_keep_the_item_types(text):
    p = parse_operator_poly(text)
    shifts = {}
    for (_, b), c in p.terms.items():
        shifts[b] = shifts.get(b, 0) + c
    # integer weights of the same signs and zeros: a sum of their products has the passes' type
    scale = lcm(*(c.denominator for c in shifts.values()))
    weights = {b: int(c * scale) for b, c in shifts.items() if c}
    for out_len in sorted({0, 1, 2, len(weights) - 1}):
        assert len(weights) > max(out_len, 2)  # shifts outnumber outputs
        for s in dot_inputs(p.max_degree() + out_len):
            result = p.apply(s)
            assert list(result.values) == raw_apply_oracle(p, s)
            items = s.scaled()[0]
            passes = [type(sum(w * items[i + b] for b, w in weights.items())) for i in range(out_len)]
            assert list(map(type, result.scaled()[0])) == passes


def test_degrees_past_any_sequence_apply_without_a_row_of_their_shifts():
    # one term of degree 2**36, 4097 terms of degree up to 2**24, a gapped row 4001 shifts long
    s = FiniteSeq([1, "3/2", -4])
    for text in ("((E^4096)^4096)^4096", "(I + E^4096)^4096", "I^4000 + E^3999 - E^4000"):
        assert parse_operator_poly(text).apply(s) == EMPTY
    gapped = parse_operator_poly("I + 2*E - E^4000")
    for n in (4001, 4002):
        s = FiniteSeq([Fraction(k, 7) for k in range(n)])
        assert list(gapped.apply(s).values) == raw_apply_oracle(gapped, s)


def test_apply_shared_and_cancelling_shifts():
    s = FiniteSeq([1, "3/2", -4, 7])
    # I and 1 share shift 0: the weights add
    assert (TOP + 1).apply(s) == FiniteSeq([2, 3, -8])
    # ... or cancel, leaving n-1 zeros
    assert (TOP - 1).apply(s) == FiniteSeq([0, 0, 0])
    assert (TOP * BOTTOM - BOTTOM).apply(s) == FiniteSeq([0, 0])
    # the zero operator keeps the length
    assert OperatorPoly.zero().apply(s) == FiniteSeq([0, 0, 0, 0])
    assert OperatorPoly.scalar(0).apply(EMPTY) == EMPTY
    for p in (TOP + 1, TOP - 1, MIDDLE, DIFFERENCE**2, OperatorPoly.scalar("-2/3")):
        assert p.apply(EMPTY) == EMPTY


def test_apply_rational_and_negative_weights():
    s = FiniteSeq([1, 2, 4, 8, 16])
    assert (-DIFFERENCE).apply(s) == FiniteSeq([-1, -2, -4, -8])
    assert (-TOP).apply(s) == FiniteSeq([-1, -2, -4, -8])
    assert (-IDENTITY).apply(s) == FiniteSeq([-1, -2, -4, -8, -16])
    mixed = TOP * Fraction(3, 4) - BOTTOM * Fraction(5, 7)
    assert mixed.apply(s) == FiniteSeq(["-19/28", "-19/14", "-19/7", "-38/7"])
    assert (MIDDLE**2).apply(s) == FiniteSeq(["9/4", "9/2", 9])


def test_division_by_scalar_zero_is_bad_parameter():
    assert DIFFERENCE / 2 == OperatorPoly({(0, 1): "1/2", (1, 0): "-1/2"})
    for zero in (0, "0", Fraction(0)):
        with pytest.raises(BadParameter):
            DIFFERENCE / zero


def convolution_oracle(p, q):
    """Term map of p * q, summed monomial by monomial in Fraction arithmetic."""
    product = {}
    for (a1, b1), c1 in p.terms.items():
        for (a2, b2), c2 in q.terms.items():
            key = (a1 + a2, b1 + b2)
            product[key] = product.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in product.items() if c != 0}


def coprime_poly(rng, size):
    denominators = (1, 2, 3, 5, 7, 11, 13, 49, 1024)
    return OperatorPoly(
        {
            (rng.randint(0, 6), rng.randint(0, 6)): Fraction(
                rng.randint(-99, 99), rng.choice(denominators)
            )
            for _ in range(size)
        }
    )


@given(operator_polys, operator_polys)
def test_product_matches_convolution_oracle(p, q):
    assert (p * q).terms == convolution_oracle(p, q)


@pytest.mark.parametrize("seed", range(8))
def test_product_with_mixed_coprime_denominators(seed):
    rng = random.Random(seed)
    p, q = coprime_poly(rng, 6), coprime_poly(rng, 9)
    product, expected = p * q, convolution_oracle(p, q)
    assert product.terms == expected
    assert all(type(c) is Fraction for c in product.terms.values())
    s = FiniteSeq(range(20))
    assert product.apply(s) == OperatorPoly(expected).apply(s)


def test_cancelling_product_keeps_no_zero_coefficient():
    product = (TOP + BOTTOM) * (TOP - BOTTOM)
    assert set(product.terms) == {(2, 0), (0, 2)}
    assert product.terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert (MIDDLE * (TOP - BOTTOM) * 2).terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert (DIFFERENCE * OperatorPoly.zero()).is_zero()

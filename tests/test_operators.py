"""Operator ring canonical forms, application semantics and ring laws."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
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
from seqcalc.errors import BadParameter, NegativePower
from seqcalc.operators import MAX_EXPONENT, MAX_TERM_PRODUCTS

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
def test_two_term_power_matches_binomial_oracle(a, b, pair, n):
    (p, q), (r, s) = pair
    power = OperatorPoly({(p, q): a, (r, s): b}) ** n
    # distinct monomials: the k-th binomial term has its own monomial
    expected = {
        (p * (n - k) + r * k, q * (n - k) + s * k): comb(n, k) * a ** (n - k) * b**k
        for k in range(n + 1)
    }
    assert power.terms == expected


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

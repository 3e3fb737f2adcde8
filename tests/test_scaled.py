"""The working form of a sequence: integers over one common denominator.

Every command that reads a sequence runs on ``FiniteSeq.scaled()``, and so
does elementwise arithmetic.  These tests drive the CLI on inline text and the
arithmetic operators against raw-index Fraction oracles written here, with
tokens that keep the items plain ints and tokens whose denominators push the
lcm past ``DEN_BITS``, so the items stay Fractions.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcalc import DIFFERENCE, MIDDLE, FiniteSeq, calculus, derivative
from seqcalc.grid import GridFunction, derivative_error, displacement
from seqcalc.lagrange import lagrange_poly
from seqcalc.operators import bottom, top
from seqcalc.analysis import collinearity_determinant
from seqcalc.cli import main
from seqcalc.errors import BadParameter, LengthMismatch, ZeroEntry
from seqcalc.seqio import parse_csv, parse_inline
from seqcalc.sequences import DEN_BITS, format_sequence

BIG_PRIMES = (2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1, 2**89 - 1)

small = st.builds(
    lambda p, q: (f"{p}/{q}", Fraction(p, q)), st.integers(-9, 9), st.integers(1, 9)
)
unreduced = st.sampled_from([("4/6", Fraction(2, 3)), ("-0/5", Fraction(0)), ("+3/1", Fraction(3))])
huge = st.builds(
    lambda sign, digits, r: (str(sign * (10 ** (digits - 1) + r)), Fraction(sign * (10 ** (digits - 1) + r))),
    st.sampled_from([-1, 1]),
    st.integers(20, 300),
    st.integers(0, 10**19),
)
past_bound = st.builds(
    lambda p, q: (f"{p}/{q}", Fraction(p, q)), st.integers(-99, 99), st.sampled_from(BIG_PRIMES)
)
tokens = st.one_of(small, unreduced, huge, past_bound)

OPERATORS = {
    "D": [-1, 1],
    "M": [Fraction(1, 2), Fraction(1, 2)],
    "D^2": [1, -2, 1],
    "1/16*(I+E)^4": [Fraction(c, 16) for c in (1, 4, 6, 4, 1)],
    "3/4*I - 5/7*E": [Fraction(3, 4), Fraction(-5, 7)],
}


def o_diff(vals, order):
    for _ in range(order):
        vals = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    return vals


def o_stencil(vals, weights):
    width = len(weights)
    return [sum(w * vals[i + b] for b, w in enumerate(weights)) for i in range(len(vals) - width + 1)]


def o_running_sums(vals, constant):
    out = [constant]
    for v in vals:
        out.append(out[-1] + v)
    return out


def o_flags(d):
    return {
        "strictly_increasing": all(x > 0 for x in d),
        "strictly_decreasing": all(x < 0 for x in d),
        "increasing": all(x >= 0 for x in d),
        "decreasing": all(x <= 0 for x in d),
        "constant": all(x == 0 for x in d),
    }


def texts(vals):
    return [str(v) for v in vals]


def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(tokens, min_size=3, max_size=24),
    order=st.integers(1, 3),
    op=st.sampled_from(sorted(OPERATORS)),
    constant=small,
    data=st.data(),
)
def test_commands_match_raw_index_oracles(pairs, order, op, constant, data):
    seq = "inline:" + ",".join(text for text, _ in pairs)
    vals = [v for _, v in pairs]
    n = len(vals)

    assert run("diff", "--seq", seq, "--order", str(order))["values"] == texts(o_diff(vals, order))
    assert run("apply", "--op", op, "--seq", seq)["values"] == texts(o_stencil(vals, OPERATORS[op]))

    c_text, c = constant
    got = run("integrate", "--seq", seq, f"--constant={c_text}")["values"]
    assert got == texts(o_running_sums(vals, c))

    a = data.draw(st.integers(1, n))
    b = data.draw(st.integers(a, n))
    got = run("defint", "--seq", seq, "--from", str(a), "--to", str(b))["value"]
    assert got == str(sum(vals[a - 1 : b], Fraction(0)))

    report = run("classify", "--seq", seq)
    d1, d2 = o_diff(vals, 1), o_diff(vals, 2)
    assert report["monotonicity"] == o_flags(d1)
    convexity = report["convexity"]
    assert convexity["second_derivative"] == texts(d2)
    assert convexity["convex"] == all(x >= 0 for x in d2)
    assert convexity["strictly_concave"] == all(x < 0 for x in d2)
    nonzero_slope = all(x != 0 for x in d1)
    assert convexity["continuously_convex"] == (all(x > 0 for x in d2) and nonzero_slope)


def _odd_primes(count):
    primes, k = [], 3
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 2
    return primes


def test_many_distinct_denominators_stay_within_the_bound(tmp_path):
    primes = _odd_primes(2000)
    vals = [Fraction(1, p) for p in primes]
    path = tmp_path / "primes.csv"
    path.write_text("".join(f"1/{p}\n" for p in primes))

    seq = parse_csv(path.read_text())
    results = [seq, derivative(seq), derivative(seq, 3), MIDDLE.apply(seq), DIFFERENCE.apply(seq)]
    for result in results:
        assert result.scaled()[1].bit_length() <= DEN_BITS
    assert seq.values == tuple(vals)

    got = run("diff", "--seq", f"csv:{path}")["values"]
    assert got == texts(o_diff(vals, 1))
    got = run("apply", "--op", "M", "--seq", f"csv:{path}")["values"]
    assert got == texts(o_stencil(vals, OPERATORS["M"]))


def test_unreduced_tokens_are_stored_as_written_and_read_reduced():
    seq = parse_inline("4/6,-0/5,+3/1,1/2")
    items, den = seq.scaled()
    assert [Fraction(x, den) for x in items] == [Fraction(2, 3), 0, 3, Fraction(1, 2)]
    assert seq == FiniteSeq(["2/3", 0, 3, "1/2"])
    assert hash(seq) == hash(FiniteSeq(["2/3", 0, 3, "1/2"]))
    assert format_sequence(seq) == ["2/3", "0", "3", "1/2"]

    unreduced = FiniteSeq.from_scaled([2, 4], 4)
    assert unreduced == FiniteSeq.of(Fraction(1, 2), 1) == unreduced
    assert unreduced == FiniteSeq.from_ratios([(3, 6), (5, 5)])
    assert unreduced != FiniteSeq.from_scaled([2, 5], 4)
    assert hash(unreduced) == hash(FiniteSeq.of(Fraction(1, 2), 1))


def test_length_access_and_prefix_leave_the_fraction_tuple_unbuilt():
    seq = DIFFERENCE.apply(parse_inline("1,1/2,1/3,1/4,1/5"))
    assert len(seq) == 4 and bool(seq)
    assert seq.at(2) == Fraction(1, 3) - Fraction(1, 2)
    assert seq.prefix(2) == FiniteSeq([Fraction(-1, 2), Fraction(-1, 6)])
    assert seq.values[3] == Fraction(1, 5) - Fraction(1, 4)

    vals = [Fraction(k % 19 - 9, k % 8 + 1) for k in range(5000)]
    loaded = parse_csv("".join(f"{v}\n" for v in vals))
    poly = lagrange_poly(loaded, 4000, 4)
    assert [poly.evaluate(j) for j in range(4000, 4005)] == vals[3999:4004]
    shorter = [top(loaded), bottom(loaded)]
    grid = GridFunction(0, 1, loaded)
    shorter += [displacement(grid, 3).samples, displacement(grid, -3).samples]
    assert [s.at(1) for s in shorter] == [vals[0], vals[1], vals[3], vals[0]]
    assert [s.at(len(s)) for s in shorter] == [vals[-2], vals[-1], vals[-1], vals[-4]]


def test_constructors_build_the_working_form():
    ints = FiniteSeq(range(5))
    items, den = ints.scaled()
    assert den == 1 and [type(x) for x in items] == [int] * 5
    assert ints.values == tuple(map(Fraction, range(5)))

    def form(seq):
        items, den = seq.scaled()
        return list(items), den

    # the pair rule (FiniteSeq, from_ratios) and the column rule (parsers) agree
    vals = [Fraction(1, 2), Fraction(-3), Fraction(5, 6)]
    builds = [FiniteSeq(vals), FiniteSeq(["1/2", "-3", "5/6"]), FiniteSeq.from_ratios([(1, 2), (-3, 1), (5, 6)])]
    builds.append(parse_inline("1/2, -3, 5/6"))
    assert [form(seq) for seq in builds] == [([3, -18, 5], 6)] * 4
    # neither reduces a ratio before scaling it
    unreduced = [FiniteSeq.from_ratios([(2, 4), (-3, 1), (10, 12)]), parse_inline("2/4, -3, 10/12")]
    assert [form(seq) for seq in unreduced] == [([6, -36, 10], 12)] * 2
    past = [Fraction(1, p) for p in BIG_PRIMES]
    builds = [FiniteSeq([1, *past]), FiniteSeq.from_ratios([(1, 1), *((1, p) for p in BIG_PRIMES)])]
    builds.append(parse_inline(",".join(["1", *map(str, past)])))
    assert [form(seq) for seq in builds] == [([1, *past], 1)] * 3
    assert all(type(x) is Fraction for seq in builds for x in seq.scaled()[0])
    assert form(FiniteSeq(past)) == (past, 1)


PRIMES_PAST_BOUND = (1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097, 1103)


def _no_fraction_tuple(self):
    raise AssertionError("FiniteSeq.values read on a library path")


def verify_with_a_dropped_constant(monkeypatch):
    """(exit code, stdout) of a verify check that fails: the antiderivative drops its constant."""
    original = calculus.antiderivative
    out = io.StringIO()
    with monkeypatch.context() as patch, redirect_stdout(out):
        patch.setattr(calculus, "antiderivative", lambda seq, constant=0: original(seq))
        code = main(["verify", "--check", "partial_sums", "--trials", "20"])
    return code, out.getvalue()


@pytest.mark.parametrize("past_bound", [False, True], ids=["p/q", "13 primes"])
def test_no_library_path_reads_the_fraction_tuple(monkeypatch, past_bound):
    if past_bound:
        vals = [Fraction(k if k % 3 else -k, p) for k, p in enumerate(PRIMES_PAST_BOUND, start=1)]
    else:
        vals = [Fraction(k % 19 - 9, k % 8 + 1) for k in range(16)]
    seq = "inline:" + ",".join(map(str, vals))
    grid = GridFunction(0, Fraction(1, 3), FiniteSeq(vals))
    reference = FiniteSeq([Fraction(k, 7) for k in range(len(vals) - 1)])
    slopes = [(b - a) * 3 for a, b in zip(vals, vals[1:])]
    failing = verify_with_a_dropped_constant(monkeypatch)
    monkeypatch.setattr(FiniteSeq, "values", property(_no_fraction_tuple))

    for op in ("(3/4*I - 5/7*E)^20", "M^70"):
        run("apply", "--op", op, "--seq", seq)
    run("diff", "--seq", seq, "--order", "3")
    run("integrate", "--seq", seq, "--constant=2/3")
    run("defint", "--seq", seq, "--from", "2", "--to", "9")
    run("classify", "--seq", seq)
    for mode in ("--coeffs", "--eval=-7/3", "--det"):
        run("lagrange", "--seq", seq, "--n0", "2", "--m", "11", mode)
    run("verify", "--check", "all", "--trials", "20")
    gap = max(abs(a - b) for a, b in zip(slopes, [Fraction(k, 7) for k in range(len(slopes))]))
    assert derivative_error(grid, reference) == gap
    # a failing check writes its counterexamples, and repr writes entries, from the working form
    assert verify_with_a_dropped_constant(monkeypatch) == failing
    code, out = failing
    assert code == 1 and all(": S=" in text for text in json.loads(out)["reports"][0]["failures"])
    samples = f"FiniteSeq(({', '.join(map(str, vals))}))"
    assert repr(FiniteSeq(vals)) == samples
    assert repr(grid) == f"GridFunction(origin=Fraction(0, 1), step=Fraction(1, 3), samples={samples})"


entries = tokens.map(lambda pair: pair[1])


def stored(vals, form):
    """A sequence of vals built from Fractions, ints where they can be, strings, or ratios."""
    if form == "fractions":
        return FiniteSeq(vals)
    if form == "ints":
        return FiniteSeq([v.numerator if v.denominator == 1 else v for v in vals])
    if form == "strings":
        return FiniteSeq([str(v) for v in vals])
    k = 1 if form == "ratios" else 6
    return FiniteSeq.from_ratios([(v.numerator * k, v.denominator * k) for v in vals])


def assert_entries(seq, vals):
    expected = FiniteSeq(vals)
    assert seq == expected and expected == seq
    items, den = seq.scaled()
    assert [Fraction(x, den) for x in items] == vals
    assert seq.values == tuple(vals)
    assert hash(seq) == hash(expected)


def first_zero(vals):
    return next((i for i, v in enumerate(vals, start=1) if v == 0), None)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 8),
    forms=st.tuples(*[st.sampled_from(["fractions", "ints", "strings", "ratios", "unreduced"])] * 3),
    scalar=st.one_of(entries, st.integers(-5, 5)),
    chain=st.integers(1, 4),
    data=st.data(),
)
def test_elementwise_arithmetic_matches_fraction_oracles(n, forms, scalar, chain, data):
    svals = data.draw(st.lists(entries, min_size=n, max_size=n))
    gvals = data.draw(st.lists(entries, min_size=n, max_size=n))
    s, g, s_again = stored(svals, forms[0]), stored(gvals, forms[1]), stored(svals, forms[2])

    # equality first, while the operands may still lack their Fraction tuples
    assert s == s_again and hash(s) == hash(s_again)
    assert (s == g) == (svals == gvals)
    assert (s == stored(svals + [Fraction(1)], forms[2])) is False

    assert_entries(s + g, [a + b for a, b in zip(svals, gvals)])
    assert_entries(s - g, [a - b for a, b in zip(svals, gvals)])
    assert_entries(-s, [-a for a in svals])
    assert_entries(s * g, [a * b for a, b in zip(svals, gvals)])
    assert_entries(s * scalar, [a * scalar for a in svals])
    assert_entries(scalar * s, [scalar * a for a in svals])
    assert_entries(s * "-3/4", [a * Fraction(-3, 4) for a in svals])

    if scalar == 0:
        with pytest.raises(BadParameter):
            s / scalar
    else:
        assert_entries(s / scalar, [a / Fraction(scalar) for a in svals])

    zero = first_zero(gvals)
    if zero is None:
        assert_entries(g.inverse(), [1 / b for b in gvals])
        assert_entries(s / g, [a / b for a, b in zip(svals, gvals)])
    else:
        for call in (g.inverse, lambda: s / g):
            with pytest.raises(ZeroEntry) as caught:
                call()
            assert caught.value.index == zero

    product, expected = s, list(svals)
    for k in range(chain):
        factor, fvals = (g, gvals) if k % 2 else (s, svals)
        product, expected = product * factor, [a * b for a, b in zip(expected, fvals)]
        assert_entries(product, expected)

    if n:
        with pytest.raises(LengthMismatch):
            s + stored(gvals[1:], forms[1])


def test_a_chain_of_products_passes_the_bound_and_stays_exact():
    p = BIG_PRIMES[0]  # 31 bits: the product of two such denominators fits in DEN_BITS, of three not
    vals = [Fraction(1, p), Fraction(-2), Fraction(5, p)]
    factor = FiniteSeq.from_ratios([(1, p), (-2, 1), (5, p)])
    square = factor * factor
    items, den = square.scaled()
    assert all(isinstance(x, int) for x in items) and den == p * p
    cube = square * factor
    items, den = cube.scaled()
    assert (p**3).bit_length() > DEN_BITS and den == p**3 and all(isinstance(x, int) for x in items)
    assert_entries(cube, [a * a * a for a in vals])
    assert_entries(cube * factor - square * square, [0, 0, 0])


def test_collinearity_determinant_past_the_bound_matches_the_written_out_formula():
    vals = [Fraction(k - 7, p) for k, p in enumerate(BIG_PRIMES)] + [Fraction(3), Fraction(-5, 4)]
    loaded = parse_inline(",".join(str(v) for v in vals))
    assert not isinstance(loaded.scaled()[0][-1], int)
    within = parse_inline("1/2,-3,7/9,0,5/6,4,-1/7")
    for seq in (loaded, within, FiniteSeq(vals)):
        ys = list(seq.values)
        for i in range(1, len(ys) - 1):
            (x0, y0), (x1, y1), (x2, y2) = [(i + r, ys[i - 1 + r]) for r in range(3)]
            # det of rows (x_r, y_r, 1), expanded along the last column
            det = (x1 * y2 - x2 * y1) - (x0 * y2 - x2 * y0) + (x0 * y1 - x1 * y0)
            assert collinearity_determinant(seq, i) == det


def test_repeated_means_pass_den_bits_and_stay_exact():
    # each M folds 1/2 into den, which apply does not check against DEN_BITS
    entries = [Fraction((-1) ** i * (i * i + 3), 1 + i % 7) for i in range(90)]
    seq, raw = FiniteSeq(entries), list(entries)
    for _ in range(70):
        seq = MIDDLE.apply(seq)
        raw = [(a + b) / 2 for a, b in zip(raw, raw[1:])]
    items, den = seq.scaled()
    assert den.bit_length() > DEN_BITS and isinstance(items[0], int)
    other = FiniteSeq([Fraction(k, 3) for k in range(len(raw))])
    assert list((seq + other).values) == [a + Fraction(k, 3) for k, a in enumerate(raw)]
    assert list((seq - seq).values) == [0] * len(raw)
    assert list((seq * other).values) == [a * Fraction(k, 3) for k, a in enumerate(raw)]


def test_antiderivative_past_den_bits_sums_from_the_constant():
    vals = [Fraction(k % 19 - 9, p) for k, p in enumerate(_odd_primes(300)[200:] * 3)]
    seq = FiniteSeq(vals)
    assert seq.scaled()[1] == 1 and type(seq.scaled()[0][0]) is Fraction
    base = calculus.antiderivative(seq, 0)
    assert base.values == tuple(o_running_sums(vals, Fraction(0)))
    for c in (Fraction(0), Fraction(1, 3), Fraction(-5, 7), Fraction(4)):
        anti = calculus.antiderivative(seq, c)
        assert anti == base + FiniteSeq.constant(c, len(vals) + 1)
        assert anti.scaled()[1] == 1  # the entries' own Fractions, never put over c's denominator


HASH_MODULUS = sys.hash_info.modulus


@pytest.mark.parametrize(
    "seq",
    [
        FiniteSeq(),
        FiniteSeq.from_scaled([], 6),
        FiniteSeq([3, -1, 0, 2**70]),
        FiniteSeq.from_scaled([-6, 3, 4, -12], 6),  # unreduced, with an entry -1 whose hash is -2
        FiniteSeq([Fraction(1, p) for p in BIG_PRIMES] + [Fraction(-1), Fraction(-7, 3)]),
        FiniteSeq.from_ratios([(1, HASH_MODULUS), (-2, 3), (5, 1)]),  # ints over 3 * P
        FiniteSeq.from_scaled([-1, 2, HASH_MODULUS], 2 * HASH_MODULUS),
        FiniteSeq([Fraction(1, 3)]) * Fraction(-2, 5),
    ],
    ids=["empty", "empty over 6", "ints", "unreduced", "fractions", "den 3P", "den 2P", "scaled"],
)
def test_hash_from_the_working_form_equals_the_hash_of_the_fraction_tuple(seq):
    assert hash(seq) == hash(seq.values)
    assert tuple(iter(seq)) == seq.values


@settings(max_examples=150, deadline=None)
@given(
    vals=st.lists(entries, max_size=8),
    past_bound=st.booleans(),
    form=st.sampled_from(["fractions", "ints", "strings", "ratios", "unreduced"]),
    scalar=st.one_of(entries, st.integers(-5, 5)),
)
def test_scalar_products_and_negation_in_both_stored_forms(vals, past_bound, form, scalar):
    if past_bound:
        vals = vals + [Fraction(1, 2**89 - 1)]
    s = stored(vals, form)
    if past_bound:
        items, den = s.scaled()
        assert den == 1 and all(type(x) is Fraction for x in items)
    assert (s * scalar).values == tuple(v * scalar for v in s.values)
    assert -s == s * -1
    assert (-s).values == tuple(-v for v in s.values)
    for seq in (s, -s, s * scalar):
        assert hash(seq) == hash(seq.values)

"""The working form of a sequence: integers over one common denominator.

Every command that reads a sequence runs on ``FiniteSeq.scaled()``.  These
tests drive the CLI on inline text against raw-index Fraction oracles written
here, with tokens that keep the items plain ints and tokens whose
denominators push the lcm past ``DEN_BITS``, so the items stay Fractions.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from seqcalc import DIFFERENCE, MIDDLE, FiniteSeq, derivative
from seqcalc.cli import main
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


def test_length_access_and_prefix_leave_the_fraction_tuple_unbuilt():
    seq = DIFFERENCE.apply(parse_inline("1,1/2,1/3,1/4,1/5"))
    assert len(seq) == 4 and bool(seq)
    assert seq.at(2) == Fraction(1, 3) - Fraction(1, 2)
    assert seq.prefix(2) == FiniteSeq([Fraction(-1, 2), Fraction(-1, 6)])
    assert seq._values is None
    assert seq.values[3] == Fraction(1, 5) - Fraction(1, 4)

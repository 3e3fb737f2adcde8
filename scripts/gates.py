#!/usr/bin/env python3
"""CI's checks at scale and every pinned digest script, as named cases.

Usage: python scripts/gates.py

The script writes its seeded inputs once to a temporary directory, then runs
every case, even after one fails.  A case runs one or more fresh child
processes of this interpreter, with ``src`` first on PYTHONPATH, each under
the case's timeout, and checks their exit codes and stdout.  The digest
scripts under ``tests/`` run without pytest, at string-hash seeds 1 and 2.

It prints one line per case, ok or FAIL with the case's name and wall time,
and exits 1 if any case failed.  It needs only the standard library.
"""

import json
import operator
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import partial
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
DIGEST_SCRIPTS = ("golden_digests", "parser_digests", "test_cli_outcomes", "test_library_outcomes", "verifier_digests")

# 100000 nested parentheses, passed in-process: one argv string holds at most 128 KiB
NESTED = """import sys; from seqcalc.cli import main
sys.exit(main(["simplify", "--op", "(" * 100000 + "I" + ")" * 100000]))"""

# Fraction items stay over the den a kernel reached, and each entry leaves it with two gcds against den
WORKING_FORM = """import sys
from fractions import Fraction
from seqcalc.calculus import antiderivative
from seqcalc.seqio import load_sequence
j = antiderivative(load_sequence(f"csv:{sys.argv[1]}/cycled.csv"), Fraction(1, 3))
assert len(j.values) == len(list(j)) == 20001
hash(j)
for i in range(1, len(j) + 1, 97):
    j.at(i)"""

# Fraction("1e100000000") would build a 10^8-digit integer
STRING_SCALAR = """from seqcalc import FiniteSeq, OperatorPoly, as_rational
from seqcalc.errors import FormatError
calls = {"as_rational": as_rational, "S * t": lambda t: FiniteSeq.of(1) * t, "scalar": OperatorPoly.scalar}
for name, call in calls.items():
    try:
        call("1e100000000")
    except FormatError:
        continue
    raise SystemExit(f"{name} read '1e100000000'")"""

# after "=", the option table reads a value that starts with "-" as argparse
# does, type for type; after a space it leaves the line to argparse
DASH_VALUES = """from seqcalc import cli
seq = ["--seq", "inline:1,4,9"]
lines = [["lagrange", *seq, "--n0", "1", "--m", "2", "--eval=-7/3"], ["integrate", *seq, "--constant=-3/4"],
         ["diff", *seq, "--order=-1"], ["lagrange", *seq, "--n0=-2", "--m=1", "--det"], ["apply", "--op=-D", *seq]]
def fields(namespace):
    return {key: (type(value), value) for key, value in vars(namespace).items()}
for argv in lines:
    read, full = cli._read(argv), cli._build_parser().parse_args(argv)
    if read is None or fields(read) != fields(full):
        raise SystemExit(f"{argv}: the table read {read}, argparse {full}")
if cli._read(["lagrange", *seq, "--n0", "1", "--m", "2", "--eval", "-7/3"]) is not None:
    raise SystemExit("the table read --eval -7/3")"""


def write_inputs(d: Path) -> tuple[list, list[int]]:
    """CI's seeded inputs: a 100000-entry mix in six shapes, then 2000 entries of two kinds, then
    4100 one-digit entries.  Returns the mix's values and the 4100 entries, for reference values."""
    rng = random.Random(100000)
    # 10 % are 400-digit integers
    vals = [rng.choice((-1, 1)) * rng.randrange(10**399, 10**400) if rng.random() < 0.1
            else Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(100000)]
    (d / "mix.csv").write_text("".join(f"{v}\n" for v in vals))
    (d / "mix.bfile").write_text("# b-file\n" + "".join(f"{i} {v}\n" for i, v in enumerate(vals, start=1)))
    (d / "mix.json").write_text(json.dumps([v if isinstance(v, int) else str(v) for v in vals]))
    (d / "row.csv").write_text(",".join(map(str, vals)) + "\n")
    # shapes the readers may hand to their per-token walk: CRLF lines, and
    # tab-separated bfile lines with a comment in the middle
    (d / "crlf.csv").write_text("".join(f"{v}\r\n" for v in vals), newline="")
    lines = [f"{i}\t{v}\n" for i, v in enumerate(vals, start=1)]
    (d / "tab.bfile").write_text("".join(lines[:50000]) + "# middle\n" + "".join(lines[50000:]))

    rng = random.Random(2000)
    (d / "digits.csv").write_text("".join(f"{rng.randint(-9, 9)}\n" for _ in range(2000)))
    primes = [k for k in range(1009, 20000, 2) if all(k % p for p in range(2, int(k**0.5) + 1))][:2000]
    # the primes' lcm passes DEN_BITS, so every reader's items for them are Fractions over 1
    entries = [f"{rng.randint(-9, 9)}/{p}" for p in primes]
    (d / "p.csv").write_text("".join(f"{e}\n" for e in entries))
    (d / "p.bfile").write_text("".join(f"{i} {e}\n" for i, e in enumerate(entries, start=1)))
    (d / "p.json").write_text(json.dumps(entries))
    (d / "cycled.csv").write_text("".join(f"{rng.randint(-9, 9)}/{primes[i % 2000]}\n" for i in range(20000)))

    rng = random.Random(4100)
    digits = [rng.randint(-9, 9) for _ in range(4100)]
    (d / "digits4100.csv").write_text("".join(f"{x}\n" for x in digits))
    return vals, digits


def check(ok: bool, message: str) -> None:
    """Raise AssertionError with message unless ok; unlike assert, this holds under -O too."""
    if not ok:
        raise AssertionError(message)


def python(*argv: str, timeout: float | None = None, code: int = 0, env: dict = ENV):
    """The finished child `python argv`, which must exit with code within timeout seconds."""
    try:
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise AssertionError(f"no exit within {timeout} s") from None
    last = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
    check(done.returncode == code, f"exit {done.returncode}, expected {code}: {' '.join(last)}")
    return done


def seqcalc(*argv: str, **kw):
    return python("-m", "seqcalc", *argv, **kw)


def same_stdout(timeout: float, *argvs: tuple[str, ...], values: list[str] | None = None) -> None:
    """Each seqcalc argv exits 0 within timeout seconds, and all write the same stdout.

    With values, the first run's values must also be those texts, entry by entry.
    """
    first = seqcalc(*argvs[0], timeout=timeout).stdout
    if values is not None:
        got = json.loads(first)["values"]
        check(len(got) == len(values), f"{len(got)} values, expected {len(values)}")
        wrong = next((i for i, (a, b) in enumerate(zip(got, values), start=1) if a != b), None)
        check(wrong is None, f"value {wrong} differs from its reference")
    for argv in argvs[1:]:
        check(seqcalc(*argv, timeout=timeout).stdout == first, f"{' '.join(argv)} differs from the first run")


def binomial_sums(seq: str, n: int, digits: list[int]) -> None:
    """apply (I+E)^n to digits within 10 s writes each window's binomial sum, computed here."""
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    expected = [str(sum(map(operator.mul, row, digits[i : i + n + 1]))) for i in range(len(digits) - n)]
    values = json.loads(seqcalc("apply", "--op", f"(I+E)^{n}", "--seq", seq, timeout=10).stdout)["values"]
    check(values == expected, f"(I+E)^{n} differs from the binomial sums")


def no_values(op: str) -> None:
    """apply op to one entry writes no values within 5 s: past the sequence's length, a degree costs nothing."""
    values = json.loads(seqcalc("apply", "--op", op, "--seq", "inline:1", timeout=5).stdout)["values"]
    check(values == [], f"{op} wrote {len(values)} values")


def determinant_route(seq: str, m: str, timeout: float = 10) -> None:
    """lagrange --det at n0 = 1 within timeout seconds equals the first difference of order m."""
    det = json.loads(seqcalc("lagrange", "--det", "--n0", "1", "--m", m, "--seq", seq, timeout=timeout).stdout)["value"]
    first = json.loads(seqcalc("diff", "--order", m, "--seq", seq).stdout)["values"][0]
    check(det == first, f"determinant route {det} != difference of order {m} {first}")


def digit_limit(seq: str) -> None:
    stderr = seqcalc("integrate", "--constant=1/3", "--seq", seq, timeout=10, code=2).stderr
    check(b"too many digits" in stderr, stderr.decode(errors="replace").strip())


def cases(d: Path, vals: list, digits: list[int]):
    """(name, thunk) for every case; a thunk raises AssertionError when its case fails.

    vals are the 100000-entry mix's values and digits the 4100 one-digit entries.
    """
    mix = [f"csv:{d}/mix.csv", f"bfile:{d}/mix.bfile", f"json:{d}/mix.json"]
    mix += [f"csv:{d}/row.csv", f"csv:{d}/crlf.csv", f"bfile:{d}/tab.bfile"]
    primes = [f"{fmt}:{d}/p.{fmt}" for fmt in ("csv", "bfile", "json")]
    yield "simplify (I+E)^4000 exits 0 within 10 s", partial(seqcalc, "simplify", "--op", "(I+E)^4000", timeout=10)
    yield "simplify ((I+E)^100)^100 exits 3 within 5 s", partial(
        seqcalc, "simplify", "--op", "((I+E)^100)^100", timeout=5, code=3)
    yield "apply ((E^4096)^4096)^4096, of degree 2**36, to one entry within 5 s", partial(
        no_values, "((E^4096)^4096)^4096")
    yield "100000 nested parentheses exit 2 within 5 s", partial(python, "-c", NESTED, timeout=5, code=2)
    # entry i is the constant plus the first i - 1 values, summed here in Fractions
    yield "integrate 100000 entries in six shapes: one stdout, each within 10 s", partial(
        same_stdout, 10, *[("integrate", "--seq", seq, "--constant=1/3") for seq in mix],
        values=list(map(str, accumulate(vals, initial=Fraction(1, 3)))))
    # 4001 shifts against 100 outputs: a dot product per output
    yield "apply (I+E)^4000 on 4100 one-digit entries is the binomial sums within 10 s", partial(
        binomial_sums, f"csv:{d}/digits4100.csv", 4000, digits)
    yield "determinant route m = 80 on one-digit entries", partial(determinant_route, f"csv:{d}/digits.csv", "80")
    yield "determinant route m = 40 on the primes", partial(determinant_route, f"csv:{d}/p.csv", "40")
    yield "determinant route m = 200 on one-digit entries within 5 s", partial(
        determinant_route, f"csv:{d}/digits.csv", "200", timeout=5)
    for argv in (("diff", "--order", "40"), ("apply", "--op", "M^8"), ("apply", "--op", "(3/4*I - 5/7*E)^20")):
        yield f"{' '.join(argv)} on the primes in three formats", partial(
            same_stdout, 10, *[(*argv, "--seq", seq) for seq in primes])
    for name in ("p", "cycled"):
        yield f"integrate {name}.csv stops at the digit limit", partial(digit_limit, f"csv:{d}/{name}.csv")
    yield "antiderivative of cycled.csv leaves the working form", partial(python, "-c", WORKING_FORM, str(d), timeout=10)
    yield "string scalar 1e100000000 raises FormatError", partial(python, "-c", STRING_SCALAR, timeout=5)
    yield "a dash value after = reads as argparse reads it", partial(python, "-c", DASH_VALUES, timeout=5)
    yield "verify --trials 10001 exits 3 within 5 s", partial(
        seqcalc, "verify", "--check", "ftc", "--trials", "10001", timeout=5, code=3)
    yield "verify, whole catalog at the length bound", partial(
        seqcalc, "verify", "--check", "all", "--trials", "3", "--min-len", "100", "--max-len", "100")
    yield "scripts/grid_convergence.py", partial(python, "scripts/grid_convergence.py")
    for script in DIGEST_SCRIPTS:
        for seed in ("1", "2"):
            yield f"tests/{script}.py at PYTHONHASHSEED={seed}", partial(
                python, f"tests/{script}.py", env=dict(ENV, PYTHONHASHSEED=seed))


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as temp:
        for name, run in cases(Path(temp), *write_inputs(Path(temp))):
            start, verdict, why = time.perf_counter(), "ok  ", ""
            try:
                run()
            except Exception as exc:
                failed += 1
                verdict, why = "FAIL", f"  ({type(exc).__name__}: {exc})"
            print(f"{verdict}  {name}  {time.perf_counter() - start:.1f} s{why}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

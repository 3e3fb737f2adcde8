"""The outcome of every command line in a seeded corpus, pinned by one digest.

Each command line goes through ``cli.main`` in-process and gives one line:
its exit code, the sha256 of its stdout and its stderr.  The corpus covers
all eight commands, all four sequence formats (files are written in the
working directory, so stderr quotes relative paths), valid and faulty
inputs, and sizes at each bound in force: the int/str digit limit,
``MAX_EXPONENT``, ``MAX_TERM_PRODUCTS``, ``parser.MAX_DEPTH``,
``verify.MAX_LENGTH`` and ``verify.MAX_TRIALS``.  Work sizes stay small:
multi-term operator powers N <= 90, diff orders <= 3, lagrange m <= 32 and
determinant m <= 20.

Where stderr carries a text of the standard library (argparse's usage
errors, a ``JSONDecodeError`` message, an ``OSError.strerror``), the line
holds the exit code only: those texts differ between Python versions.

Run it with pytest, or as a script: ``PYTHONPATH=src python
tests/test_cli_outcomes.py``.
"""

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout

from seqcalc.cli import main
from seqcalc.operators import MAX_EXPONENT
from seqcalc.parser import MAX_DEPTH
from seqcalc.verify import MAX_LENGTH, MAX_TRIALS, check_names

LIMIT = 4300  # Python's default int/str digit limit
FORMATS = ("inline", "csv", "json", "bfile")
CHECKS = check_names()
# checks whose fixed instances take tens of milliseconds, run only a few times
SLOW_CHECKS = ("ftc", "convexity_equivalence", "det_equals_d2")


# ---------------------------------------------------------------------------
# sequence text in each format


def _entry(rng):
    """One entry's text: mostly a small rational, sometimes a wide one."""
    roll = rng.random()
    if roll < 0.02:
        return rng.choice("-+") + "7" * rng.choice((40, 400, LIMIT))
    if roll < 0.03:
        return f"{rng.randint(-9, 9)}/{'3' * rng.choice((30, LIMIT))}"
    p = rng.randint(-99, 99)
    return str(p) if rng.random() < 0.4 else f"{p}/{rng.randint(1, 20)}"


# one token that spoils an entry, or a piece of text put in between entries
_BAD_TOKENS = ["x", "1/0", "٣", "1_0", "2/", "/3", "1.5", "--1", "1 2", "", "9" * (LIMIT + 1), "1/" + "7" * (LIMIT + 1)]


def _write(fmt, entries, rng):
    """The entries in fmt, in one of the layouts the format allows."""
    if fmt == "inline":
        return ",".join(entries)
    if fmt == "csv":
        if len(entries) > 1 and rng.random() < 0.2:
            return ", ".join(entries) + "\n"  # a one-row csv
        end = rng.choice(["\n", "\r\n", "\n\n"])
        return "".join(f"{pad}{e}{end}" for e in entries for pad in [rng.choice(["", " ", "\t"])])
    if fmt == "json":
        items = [e if rng.random() < 0.5 and _is_int(e) else f'"{e}"' for e in entries]
        return "[" + rng.choice([",", ", ", ",\n"]).join(items) + "]"
    first = rng.choice([1, 1, 0, 5, -3])
    head = rng.choice(["", "# b-file\n", "#\n\n"])
    sep = rng.choice([" ", "\t", "  "])
    return head + "".join(f"{i}{sep}{e}\n" for i, e in enumerate(entries, start=first))


def _is_int(text):
    return text.lstrip("+-").isdigit() and len(text) < LIMIT


def _spoil(fmt, text, rng):
    """text with one fault of the format's kind."""
    roll = rng.random()
    if roll < 0.5 or not text:
        at = rng.randint(0, len(text))
        return text[:at] + rng.choice(_BAD_TOKENS + [",", "\n", "#", " x", "[", "]", '"', "\xa0"]) + text[at:]
    if fmt == "json":
        return rng.choice(
            ["[1, 2,]", "[1, true]", '{"a": 1}', "[1.5, 2]", "[[1]]", "[null]", "1", "[1e400]", '["1/0"]', "["]
        )
    if fmt == "bfile":
        return rng.choice(["1 1\n3 2\n", "1 1\n1 2\n", "x 1\n", "1\n", "1 2 3\n", "1 1\n# late\n2 2\n", "2_0 1\n"])
    if fmt == "csv":
        return rng.choice(["1\n2,3\n", "1,2\n3,4\n", ",\n", "1,\n", "1\n\n2\n", " , "])
    return rng.choice([",", "1,,2", "1, ,2", " ", "1,2,", ",1"])


def _sequence(rng, n=None):
    """(spec text, files) for one --seq argument: files maps a name to its content."""
    fmt = rng.choice(FORMATS)
    n = rng.choice([0, 1, 2, 3, 4, 5, 6, 8, 12]) if n is None else n
    text = _write(fmt, [_entry(rng) for _ in range(n)], rng)
    if rng.random() < 0.2:
        text = _spoil(fmt, text, rng)
    if fmt == "inline":
        return f"inline:{text}", {}
    roll = rng.random()
    if roll < 0.03:
        return f"{fmt}:{rng.choice(['missing.csv', 'folder', '', 'folder/none'])}", {}
    if roll < 0.05:
        return f"{fmt}:latin1.{fmt}", {f"latin1.{fmt}": "1\n\xe9\n".encode("latin-1")}
    name = f"s.{fmt}"
    return f"{fmt}:{name}", {name: text.encode()}


# ---------------------------------------------------------------------------
# operator text


def _operator(rng, depth=0):
    """Operator text: sums and products of generators and numbers, powers up to 12."""
    roll = rng.random()
    if depth > 2 or roll < 0.35:
        return rng.choice(["I", "E", "D", "M", "1", "2", "1/2", "3/4", "0", "7"])
    if roll < 0.6:
        sep = rng.choice([" + ", " - ", "+", "-"])
        return f"({_operator(rng, depth + 1)}{sep}{_operator(rng, depth + 1)})"
    if roll < 0.85:
        glue = rng.choice(["*", " * ", " "])
        return f"{_operator(rng, depth + 1)}{glue}{_operator(rng, depth + 1)}"
    return f"({_operator(rng, depth + 1)})^{rng.randint(0, 12)}"


def _op_text(rng):
    text = _operator(rng)
    if rng.random() < 0.2:
        at = rng.randint(0, len(text))
        junk = rng.choice(["(", ")", "^", "^-1", "x", "٣", "/0", "+", "**", "E^", "\xa0", "2/", "^" + "9" * 12])
        text = text[:at] + junk + text[at:]
    return text


# ---------------------------------------------------------------------------
# command lines, one generator per command


def _rational(rng):
    if rng.random() < 0.85:
        return f"{rng.randint(-20, 20)}/{rng.randint(1, 9)}"
    return rng.choice(["x", "1/0", "", "٣", "1.5", "9" * (LIMIT + 1), "1/" + "3" * LIMIT])


def _cmd_apply(rng):
    seq, files = _sequence(rng)
    return ["apply", f"--op={_op_text(rng)}", "--seq", seq], files


def _cmd_simplify(rng):
    return ["simplify", f"--op={_op_text(rng)}"], {}


def _cmd_diff(rng):
    seq, files = _sequence(rng)
    order = rng.choice([None, "0", "1", "2", "3", "-1", "x", "1_0", "-" + "9" * 50])
    return ["diff", "--seq", seq, *(() if order is None else (f"--order={order}",))], files


def _cmd_integrate(rng):
    seq, files = _sequence(rng)
    return ["integrate", "--seq", seq, f"--constant={_rational(rng)}"], files


def _cmd_defint(rng):
    seq, files = _sequence(rng)
    lo, hi = rng.randint(-1, 7), rng.randint(-1, 9)
    return ["defint", "--seq", seq, f"--from={lo}", f"--to={hi}"], files


def _cmd_classify(rng):
    seq, files = _sequence(rng)
    return ["classify", "--seq", seq], files


def _cmd_lagrange(rng):
    mode = rng.choice(["", "--coeffs", "--det", "--eval"])
    m = rng.randint(0, 20 if mode == "--det" else 32) if rng.random() < 0.3 else rng.randint(-1, 6)
    n0 = rng.randint(0, 4)
    seq, files = _sequence(rng, n=max(m + n0 + rng.randint(-1, 3), 0) if rng.random() < 0.7 else None)
    argv = ["lagrange", "--seq", seq, f"--n0={n0}", f"--m={m}"]
    if mode == "--eval":
        argv.append(f"--eval={_rational(rng)}")
    elif mode:
        argv.append(mode)
    return argv, files


def _cmd_verify(rng):
    check = rng.choice([*CHECKS, "all", "bogus", "FTC", ""])
    if check in SLOW_CHECKS + ("all",) and rng.random() < 0.9:
        check = "product_rule"
    argv = ["verify", "--check", check, f"--trials={rng.randint(1, 3)}", f"--seed={rng.randint(-5, 99)}"]
    if rng.random() < 0.4:
        lo = rng.choice([1, 2, 3, 12])
        argv += [f"--min-len={lo}", f"--max-len={rng.choice([lo, 2, 12, MAX_LENGTH - 1, MAX_LENGTH, MAX_LENGTH + 1])}"]
    return argv, {}


_COMMANDS = [
    _cmd_apply, _cmd_simplify, _cmd_diff, _cmd_integrate,
    _cmd_defint, _cmd_classify, _cmd_lagrange, _cmd_verify,
]  # fmt: skip


def _fixed_cases():
    """Command lines at each bound and at each usage fault, with no files."""
    nest = MAX_DEPTH - 1
    cases = [
        [], ["bogus"], ["diff"], ["diff", "--seq"], ["simplify"], ["apply", "--seq", "inline:1"],
        ["integrate", "--seq", "inline:1"], ["defint", "--seq", "inline:1", "--from=1"],
        ["lagrange", "--seq", "inline:1,2", "--n0=1"], ["lagrange", "--seq", "inline:1,2", "--n0=1", "--m=1", "--det", "--eval=1"],
        ["verify"], ["diff", "--seq", "inline:1", "--bogus"], ["diff", "--seq", "inline:1", "--order", "-1"],
        ["diff", "--seq", "bogus:1,2"], ["diff", "--seq", "1,2"], ["diff", "--seq", ""], ["diff", "--seq", "csv:a\x00b"],
        ["diff", "--seq", "inline:" + ",".join(["1/3"] * 2000), "--order=3"],
        ["integrate", "--seq", "inline:" + "9" * LIMIT, "--constant=1"],
        ["integrate", "--seq", "inline:" + "9" * LIMIT + ",1", "--constant=1/7"],
        ["integrate", "--seq", "inline:" + "9" * (LIMIT + 1), "--constant=1"],
        ["defint", "--seq", "inline:1,2", "--from=1", "--to=" + "9" * LIMIT],
        ["defint", "--seq", "inline:1,2", "--from=1", "--to=" + "9" * (LIMIT + 1)],
        ["lagrange", "--seq", "inline:1,2,3", "--n0=" + "9" * LIMIT, "--m=1"],
        ["lagrange", "--seq", "inline:" + ",".join(str(k**3) for k in range(40)), "--n0=1", "--m=32"],
        ["lagrange", "--seq", "inline:" + ",".join(str(k**3) for k in range(40)), "--n0=1", "--m=20", "--det"],
        ["lagrange", "--seq", "inline:" + ",".join(f"{k}/{k + 1}" for k in range(34)), "--n0=2", "--m=32", "--eval=-7/3"],
        ["simplify", f"--op=I^{MAX_EXPONENT}"], ["simplify", f"--op=E^{MAX_EXPONENT + 1}"],
        ["simplify", f"--op=(I*E)^{MAX_EXPONENT}"], ["simplify", f"--op=(2*E)^{MAX_EXPONENT + 1}"],
        ["simplify", "--op=I^" + "9" * LIMIT], ["simplify", "--op=I^" + "9" * (LIMIT + 1)],
        ["simplify", "--op=" + "1" * LIMIT + "*I"], ["simplify", "--op=2/" + "3" * (LIMIT + 1)],
        ["simplify", "--op=(I+E)^90"], ["simplify", "--op=(3/4*I - 5/7*E)^90"],
        ["simplify", "--op=(1+I+E)^90 * (I+E)^30"], ["simplify", "--op=(1+I+E)^90 * (I+E)^31"],
        ["simplify", "--op=((I+E)^90)^2"], ["simplify", "--op=((I+E)^2)^90"],
        ["apply", "--op=(I+E)^90", "--seq", "inline:" + ",".join(["1", "-1/2"] * 60)],
        ["apply", f"--op=E^{MAX_EXPONENT}", "--seq", "inline:1,2,3"],
        ["verify", "--check=all", "--trials=1"], ["verify", "--check=ftc", "--trials=2", "--seed=5"],
        ["verify", "--check=convexity_equivalence", "--trials=1"], ["verify", "--check=det_equals_d2", "--trials=1"],
        ["verify", "--check=int_by_parts", "--trials=2", f"--min-len={MAX_LENGTH}", f"--max-len={MAX_LENGTH}"],
        ["verify", "--check=product_rule", f"--trials={MAX_TRIALS + 1}"], ["verify", "--check=product_rule", "--trials=0"],
        ["verify", "--check=product_rule", f"--max-len={MAX_LENGTH + 1}"], ["verify", "--check=product_rule", "--min-len=1"],
        ["verify", "--check=product_rule", "--min-len=5", "--max-len=4"], ["verify", "--check", "c" * 3000],
        ["verify", "--check=product_rule", "--trials=-" + "9" * LIMIT], ["verify", "--check=product_rule", "--seed=" + "9" * LIMIT],
    ]  # fmt: skip
    for depth in (nest, nest + 1, nest + 2):
        for op in ("(" * depth + "I" + ")" * depth, "-" * depth + "E", "I*(" * depth + "I" + ")" * depth):
            cases += [["simplify", f"--op={op}"], ["apply", f"--op={op}", "--seq", "inline:1,2,3"]]
    return [(argv, {}) for argv in cases]


def cli_corpus():
    """The fixed command lines, then drawn ones up to 4000, each with the files it reads."""
    rng = random.Random("cli-outcomes")
    corpus = _fixed_cases()
    while len(corpus) < 4000:
        corpus.append(rng.choice(_COMMANDS)(rng))
    return corpus


def _from_stdlib(err):
    """Whether stderr holds a text of the standard library, which differs between versions."""
    return not err.startswith("seqcalc: ") or "invalid json: " in err or "cannot read " in err


def cli_outcome(argv, files, cwd):
    """One line: the exit code, stdout's sha256 and stderr, or the exit code alone."""
    for name, content in files.items():
        (cwd / name).write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if err.getvalue() and _from_stdlib(err.getvalue()):
        return f"{code}"
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()} {err.getvalue()!r}"


CLI_OUTCOMES_SHA256 = "6b76cb350c5aca8cdc66585a65464c814659ac5c95a4546b13925ec1220130b8"


def check_cli_outcomes(cwd):
    """Run the corpus in cwd, the working directory, and compare its lines with the digest."""
    (cwd / "folder").mkdir()
    lines = [cli_outcome(argv, files, cwd) for argv, files in cli_corpus()]
    assert not [line for line in lines if line.startswith("4")]
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == CLI_OUTCOMES_SHA256


def test_cli_outcomes_match_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_cli_outcomes(tmp_path)


if __name__ == "__main__":
    import os
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        check_cli_outcomes(Path(tmp))
    print("CLI outcomes match the pinned digest")

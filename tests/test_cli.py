"""CLI surface: subcommands, JSON output, exit codes, determinism."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcalc import cli
from seqcalc.cli import main
from seqcalc.operators import MAX_EXPONENT, MAX_TERM_PRODUCTS
from seqcalc.parser import MAX_DEPTH
from seqcalc.seqio import FORMATS, render_sequence

from strategies import finite_seqs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_apply(capsys):
    code, out = run_cli(capsys, "apply", "--op", "D", "--seq", "inline:1,2,4,8")
    assert code == 0
    assert json.loads(out) == {
        "schema": "seqcalc/1",
        "kind": "sequence",
        "values": ["1", "2", "4"],
    }


def test_apply_squared_difference(capsys):
    code, out = run_cli(capsys, "apply", "--op", "(E - I)^2", "--seq", "inline:1,4,9,16")
    assert code == 0
    assert json.loads(out)["values"] == ["2", "2"]


def test_simplify_text_and_json(capsys):
    code, out = run_cli(capsys, "simplify", "--op", "1/2*I + 1/2*E")
    assert code == 0
    text_line, json_line = out.splitlines()
    assert text_line == "1/2*I + 1/2*E"
    payload = json.loads(json_line)
    assert payload["kind"] == "operator"
    assert payload["text"] == "1/2*I + 1/2*E"
    assert json.loads(run_cli(capsys, "simplify", "--op", "M")[1].splitlines()[1]) == payload


def test_diff_orders(capsys):
    assert json.loads(run_cli(capsys, "diff", "--seq", "inline:1,3,5,7")[1])["values"] == ["2", "2", "2"]
    code, out = run_cli(capsys, "diff", "--seq", "inline:1,4,9,16", "--order", "2")
    assert json.loads(out)["values"] == ["2", "2"]


def test_integrate(capsys):
    code, out = run_cli(capsys, "integrate", "--seq", "inline:3,5,7", "--constant", "1")
    assert code == 0
    assert json.loads(out)["values"] == ["1", "4", "9", "16"]


def test_negative_rational_arguments_use_equals_form(capsys):
    code, out = run_cli(capsys, "integrate", "--seq", "inline:0,0", "--constant=-7/3")
    assert code == 0
    assert json.loads(out)["values"] == ["-7/3", "-7/3", "-7/3"]
    code, out = run_cli(capsys, "lagrange", "--seq", "inline:1,4,9", "--n0", "1", "--m", "2", "--eval=-2")
    assert code == 0
    assert json.loads(out)["value"] == "4"


def test_defint(capsys):
    code, out = run_cli(capsys, "defint", "--seq", "inline:1,2,4,8,16", "--from", "1", "--to", "4")
    assert code == 0
    assert json.loads(out) == {"schema": "seqcalc/1", "kind": "rational", "value": "15"}


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "--seq", "inline:1,4,9,16")
    payload = json.loads(out)
    assert payload["convexity"]["continuously_convex"] is True
    assert payload["monotonicity"]["strictly_increasing"] is True

    # too short for convexity: field is null, monotonicity still present
    code, out = run_cli(capsys, "classify", "--seq", "inline:1,2")
    payload = json.loads(out)
    assert payload["convexity"] is None
    assert payload["monotonicity"]["strictly_increasing"] is True


def test_lagrange_modes(capsys):
    base = ("lagrange", "--seq", "inline:1,4,9,16", "--n0", "1", "--m", "2")
    code, out = run_cli(capsys, *base)
    payload = json.loads(out)
    assert payload["kind"] == "polynomial"
    assert payload["coefficients"] == ["0", "0", "1"]

    code, out = run_cli(capsys, *base, "--coeffs")
    assert json.loads(out) == payload

    code, out = run_cli(capsys, *base, "--eval", "5/2")
    assert json.loads(out)["value"] == "25/4"

    code, out = run_cli(capsys, *base, "--det")
    assert json.loads(out)["value"] == "2"


def test_verify_single_check(capsys):
    code, out = run_cli(capsys, "verify", "--check", "product_rule", "--trials", "10", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["reports"][0]["name"] == "product_rule"
    assert payload["reports"][0]["failures"] == []


def test_bfile_ingestion(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("1 1\n2 4\n3 9\n4 16\n")
    code, out = run_cli(capsys, "diff", "--seq", f"bfile:{path}", "--order", "2")
    assert code == 0
    assert json.loads(out)["values"] == ["2", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "--op", "E^-1", "--seq", "inline:1,2"),
        ("simplify", "--op", "(I"),
        ("diff", "--seq", "inline:1,x,3"),
        ("diff", "--seq", "badtag:1,2"),
        ("verify", "--check", "bogus_name"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    assert main(list(argv)) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("defint", "--seq", "inline:1,2,3", "--from", "3", "--to", "1"),
        ("defint", "--seq", "inline:1,2,3", "--from", "0", "--to", "2"),
        ("classify", "--seq", "inline:5"),
        ("diff", "--seq", "inline:1,2", "--order", "-1"),
        ("lagrange", "--seq", "inline:1,2", "--n0", "1", "--m", "5"),
    ],
)
def test_domain_errors_exit_3(capsys, argv):
    assert main(list(argv)) == 3


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        # --op is read before --seq
        (
            ("apply", "--op", "(", "--seq", "inline:x"),
            2,
            "seqcalc: at offset 1: expected generator or number or '(', found end of input\n",
        ),
        # --seq is read before --constant
        (
            ("integrate", "--seq", "inline:x", "--constant=y"),
            2,
            "seqcalc: not a rational literal: 'x'\n",
        ),
        # the interpolant (and so its window) comes before the --eval point
        (
            ("lagrange", "--seq", "inline:1,2", "--n0", "1", "--m", "5", "--eval=z"),
            3,
            "seqcalc: window 1..6 outside sequence of length 2\n",
        ),
    ],
    ids=["apply", "integrate", "lagrange"],
)
def test_of_two_faults_the_first_input_read_is_reported(capsys, argv, code, stderr):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)


def test_argparse_usage_exit_2(capsys):
    assert main(["diff"]) == 2  # missing --seq
    assert main(["not-a-command"]) == 2


SEQ = ("--seq", "inline:1,4,9,16")
PARSE_CORPUS = {
    "apply": ("apply", "--op", "E - I", *SEQ),
    "simplify": ("simplify", "--op", "I"),
    "diff": ("diff", *SEQ, "--order", "2"),
    "integrate": ("integrate", *SEQ, "--constant=-1/2"),
    "defint": ("defint", *SEQ, "--from", "1", "--to", "2"),
    "classify": ("classify", *SEQ),
    "lagrange": ("lagrange", *SEQ, "--n0", "1", "--m", "2", "--eval", "7/3"),
    "lagrange --det": ("lagrange", *SEQ, "--n0", "1", "--m", "2", "--det"),
    "verify": ("verify", "--check", "ftc", "--trials", "1", "--min-len=3"),
    "help after a command": ("lagrange", *SEQ, "-h"),
    "abbreviations": ("diff", "--se", "inline:1,2", "--ord", "1"),
    "help abbreviated": ("diff", "--he"),
    "unknown option": ("diff", *SEQ, "--bogus"),
    "leftover word": ("diff", *SEQ, "extra"),
    "double dash then a word": ("diff", *SEQ, "--", "extra"),
    "double dash last": ("diff", *SEQ, "--"),
    "repeated option": ("diff", "--seq", "inline:1", *SEQ),
    "exclusive modes": ("lagrange", *SEQ, "--n0", "1", "--m", "2", "--det", "--coeffs"),
    "missing --seq": ("diff", "--order", "2"),
    "bad int": ("diff", *SEQ, "--order", "x"),
    "negative value": ("integrate", *SEQ, "--constant", "-1/2"),
    "first word -h": ("-h",),
    "first word dif": ("dif", *SEQ),
    "no words": (),
    "flag with a value": ("lagrange", *SEQ, "--n0", "1", "--m", "2", "--det=1"),
    "option word as a value": ("diff", "--seq", "--order", "2"),
    "repeated flag": ("lagrange", *SEQ, "--n0", "1", "--m", "2", "--det", "--det"),
    "empty value": ("integrate", *SEQ, "--constant", ""),
    "empty value after =": ("simplify", "--op="),
    "plus sign": ("diff", *SEQ, "--order", "+2"),
    "= in a value after =": ("simplify", "--op=E=I"),
    "negative value after =": ("lagrange", *SEQ, "--n0=-1", "--m", "2"),
    "negative --eval after =": ("lagrange", *SEQ, "--n0", "1", "--m", "2", "--eval=-7/3"),
    "negative --constant after =": ("integrate", *SEQ, "--constant=-3/4"),
    "negative --order after =": ("diff", *SEQ, "--order=-1"),
    "negative --n0 after =": ("lagrange", *SEQ, "--n0=-2", "--m=1", "--det"),
    "dash operator after =": ("apply", "--op=-D", *SEQ),
    "double dash after =": ("simplify", "--op=--"),
    "negative --eval, space form": ("lagrange", *SEQ, "--n0", "1", "--m", "2", "--eval", "-7/3"),
}

# lines of PARSE_CORPUS that the option table reads, with a value that starts with "-"
DASH_VALUE_LINES = (
    "negative value after =", "negative --eval after =", "negative --constant after =",
    "negative --order after =", "negative --n0 after =", "dash operator after =",
)  # fmt: skip


def _fields(namespace):
    """A namespace's fields, each value with its type: True and 1 differ."""
    return {key: (type(value), value) for key, value in vars(namespace).items()}


@pytest.fixture
def parsed(monkeypatch):
    """The namespaces that reach ``_run``, which does no work here."""
    namespaces = []
    monkeypatch.setattr(cli, "_run", lambda args: namespaces.append(args) or 0)
    return namespaces


def _routed_and_full(parsed, argv):
    """(exit code, stdout, stderr, fields of the namespace or None) of ``main``
    and of the full argparse parser, for one command line."""

    def full(argv):
        try:
            parsed.append(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            return int(exc.code or 0)
        return 0

    outcomes = []
    for parse in (main, full):
        before = len(parsed)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = parse(list(argv))
        fields = _fields(parsed[before]) if len(parsed) > before else None
        outcomes.append((code, out.getvalue(), err.getvalue(), fields))
    return outcomes


@pytest.mark.parametrize("argv", PARSE_CORPUS.values(), ids=PARSE_CORPUS)
def test_each_command_line_parses_as_the_full_parser_parses_it(monkeypatch, parsed, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    routed, full = _routed_and_full(parsed, argv)
    assert routed == full


def test_the_table_reads_a_dash_value_after_equals_but_not_after_a_space():
    for key in DASH_VALUE_LINES:
        assert cli._read(PARSE_CORPUS[key]) is not None, key
    for key in ("negative value", "negative --eval, space form", "double dash after ="):
        assert cli._read(PARSE_CORPUS[key]) is None, key


# Words to recombine into command lines: every flag of every command, bare and
# with "=", values of each kind the table read declines or converts, and help.
_FLAGS = sorted({flag for _, options in cli.COMMANDS.values() for flag in options})
_VALUES = [
    "inline:1,4,9,16", "1", "2", "0", "+2", " 3", "-1", "-1/2", "3/2", "x", "", "٣", "1_0",
    "E - I", "E=I", "ftc", "all", "--", "-", "-h", "--help", "--se", "extra", "diff",
]  # fmt: skip

# a well-formed value for each str dest; integer options take "2"
_GOOD = {"seq": "inline:1,2,4,8,16", "op": "(E - I)^2", "constant": "3/2", "eval_at": "7/3", "check": "ftc"}


def _recombined_line(rng, command):
    """A command line of command's own options, mostly well formed, then shuffled,
    cut and spliced with flags and values from every command."""
    options = cli.COMMANDS[command][1]
    pairs = []
    for flag, option in options.items():
        if option.required or rng.random() < 0.3:
            value = _GOOD.get(option.dest, "2") if rng.random() < 0.8 else rng.choice(_VALUES)
            pairs.append([flag] if option.convert is None else [flag, value])
    for _ in range(rng.choice([0, 0, 1, 2])):
        flag = rng.choice(_FLAGS)
        pairs.append([flag, rng.choice(_VALUES)] if rng.random() < 0.7 else [flag])
    rng.shuffle(pairs)
    words = [command]
    for pair in pairs:
        if len(pair) == 2 and rng.random() < 0.2:
            pair = [f"{pair[0]}={pair[1]}"]
        words += pair
    if rng.random() < 0.2:
        del words[rng.randrange(1, len(words) + 1) :]
    if rng.random() < 0.2:
        words.insert(rng.randrange(1, len(words) + 1), rng.choice(_VALUES + _FLAGS))
    return words


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_recombined_command_lines_parse_as_the_full_parser_parses_them(monkeypatch, parsed, command):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(f"recombined {command}")
    read = 0
    for _ in range(2000):
        argv = _recombined_line(rng, command)
        routed, full = _routed_and_full(parsed, argv)
        assert routed == full, argv
        read += cli._read(argv) is not None
    assert read >= 300  # the table read takes a share of the corpus, not none of it


def test_failed_check_exits_1(capsys, monkeypatch):
    from seqcalc import verify as verify_module

    def always_failing(spec, rng):
        yield "synthetic counterexample"

    monkeypatch.setitem(verify_module.CATALOG, "product_rule", always_failing)
    code, out = run_cli(capsys, "verify", "--check", "product_rule", "--trials", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["reports"][0]["failures"] == ["trial 0: synthetic counterexample"]


def test_empty_sequence_flows_through(capsys):
    code, out = run_cli(capsys, "diff", "--seq", "inline:")
    assert code == 0
    assert json.loads(out)["values"] == []


LONG = 3000

# Each case feeds one 3000-character token to a different error message.
LONG_INPUTS = {
    "rational literal": lambda tmp: ("diff", "--seq", "inline:" + "x" * LONG),
    "zero denominator": lambda tmp: ("diff", "--seq", "inline:1/" + "0" * (LONG - 2)),
    "json entry": lambda tmp: ("diff", "--seq", "json:" + _write(tmp, "[[" + ",".join("0" * LONG) + "]]")),
    "bfile line": lambda tmp: ("diff", "--seq", "bfile:" + _write(tmp, "1 2 " + "3" * LONG + "\n")),
    "bfile index": lambda tmp: ("diff", "--seq", "bfile:" + _write(tmp, "x" * LONG + " 1\n")),
    "bfile index order": lambda tmp: ("diff", "--seq", "bfile:" + _write(tmp, "1 1\n" + "3" * LONG + " 2\n")),
    "spec tag": lambda tmp: ("diff", "--seq", "t" * LONG),
    "spec path": lambda tmp: ("diff", "--seq", "csv:" + "p" * LONG),
    "check name": lambda tmp: ("verify", "--check", "c" * LONG),
    "operator zero denominator": lambda tmp: ("simplify", "--op", "1/" + "0" * LONG),
    "operator past the depth bound": lambda tmp: ("simplify", "--op", "(" * MAX_DEPTH + "7" * LONG),
}


def _write(tmp, text):
    path = tmp / "input"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", sorted(LONG_INPUTS))
def test_long_bad_input_is_quoted_in_short(capsys, tmp_path, case):
    assert main(list(LONG_INPUTS[case](tmp_path))) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 512
    assert "Traceback" not in err
    assert " characters)" in err  # the total length is quoted


# Numbers are ASCII digits: \d, str.isdecimal() and int() alone also take "٢" and "2_0".
NON_ASCII_NUMBERS = {
    "inline entry": (
        lambda tmp: ("diff", "--seq", "inline:١,٣/٢,7"),
        "not a rational literal: '١'",
    ),
    "operator number": (
        lambda tmp: ("simplify", "--op", "٣*I"),
        "at offset 0: expected operator or generator or number, found '٣'",
    ),
    "bfile index with an underscore": (
        lambda tmp: ("diff", "--seq", "bfile:" + _write(tmp, "2_0 1\n21 2\n")),
        "line 1: bad index '2_0'",
    ),
    "bfile index in Arabic-Indic digits": (
        lambda tmp: ("diff", "--seq", "bfile:" + _write(tmp, "٢ 1\n3 2\n")),
        "line 1: bad index '٢'",
    ),
}


@pytest.mark.parametrize("case", NON_ASCII_NUMBERS)
def test_numbers_are_ascii_digits_only(capsys, tmp_path, case):
    argv, message = NON_ASCII_NUMBERS[case]
    assert main(list(argv(tmp_path))) == 2
    assert capsys.readouterr().err == f"seqcalc: {message}\n"


@pytest.mark.parametrize("token", ["٢", "1_0"])
def test_integer_options_are_ascii_digits_only(capsys, token):
    assert main(["diff", "--seq", "inline:1,2,3", "--order", token]) == 2
    assert capsys.readouterr().err.endswith(f"argument --order: invalid int value: {token!r}\n")


def test_operator_exponent_over_the_bound_is_bad_parameter(capsys):
    assert main(["simplify", "--op", "(I+E)^99999999999"]) == 3
    err = capsys.readouterr().err
    assert err == f"seqcalc: operator exponents must be <= {MAX_EXPONENT}, got 99999999999\n"


def test_operator_work_over_the_bound_is_bad_parameter(capsys):
    # each case raises before its work grows: ((I+E)^100)^100 ran for minutes unbounded
    cases = [
        ("(1+I+E)^400", "power"),
        ("(I+E)^400 * (I+E)^400", "product"),
        ("((I+E)^100)^100", "power"),
        ("(1+I+E)^4096", "power"),
    ]
    for op, kind in cases:
        assert main(["simplify", "--op", op]) == 3
        err = capsys.readouterr().err
        assert err == f"seqcalc: an operator {kind} may form at most {MAX_TERM_PRODUCTS} products of terms\n"


def test_deeply_nested_json_is_a_format_error(capsys, tmp_path):
    depth = 100_000
    path = _write(tmp_path, "[" * depth + "]" * depth)
    assert main(["diff", "--seq", f"json:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "nested too deeply" in err


@pytest.mark.parametrize(
    "op",
    [
        "(" * (10 * MAX_DEPTH) + "I" + ")" * (10 * MAX_DEPTH),
        "-" * (10 * MAX_DEPTH) + "I",
        "I*(" * (10 * MAX_DEPTH) + "I" + ")" * (10 * MAX_DEPTH),
    ],
    ids=["parentheses", "minus", "products"],
)
@pytest.mark.parametrize("command", [["simplify"], ["apply", "--seq", "inline:1,2,3"]])
def test_nesting_past_the_depth_bound_is_a_parse_error(capsys, op, command):
    # without the bound, 248 nested parentheses ran out of Python's stack: exit 4
    assert main([command[0], f"--op={op}", *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert f"at most {MAX_DEPTH} nested factors" in err


# Every integer option, given one 3000-character token.
INTEGER_OPTIONS = [
    ("diff", "--seq", "inline:1,2", "--order"),
    ("defint", "--seq", "inline:1,2", "--to", "2", "--from"),
    ("defint", "--seq", "inline:1,2", "--from", "1", "--to"),
    ("lagrange", "--seq", "inline:1,2", "--m", "1", "--n0"),
    ("lagrange", "--seq", "inline:1,2", "--n0", "1", "--m"),
    ("verify", "--check", "all", "--trials"),
    ("verify", "--check", "all", "--seed"),
    ("verify", "--check", "all", "--min-len"),
    ("verify", "--check", "all", "--max-len"),
]


@pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: argv[-1])
@pytest.mark.parametrize("token", ["x" * LONG, "9" * 5000], ids=["letters", "digits"])
def test_long_integer_option_is_quoted_in_short(capsys, argv, token):
    assert main([*argv, token]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 512
    assert "Traceback" not in err
    assert f"{argv[-1]}: invalid int value: " in err
    assert " characters)" in err


# Every integer option with a domain bound, given a 4000-digit int past that bound:
# the domain error quotes the number in short, as the usage error does a long token.
HUGE = "9" * 4000
DOMAIN_BOUND_OPTIONS = [
    pytest.param(("diff", "--seq", "inline:1,2", "--order", f"-{HUGE}"), id="diff --order"),
    pytest.param(("defint", "--seq", "inline:1,2", "--to", "2", "--from", f"-{HUGE}"), id="defint --to 2 --from"),
    pytest.param(("defint", "--seq", "inline:1,2", "--from", "1", "--to", HUGE), id="defint --from 1 --to"),
    pytest.param(("lagrange", "--seq", "inline:1,2", "--m", "1", "--n0", HUGE), id="lagrange --m 1 --n0"),
    pytest.param(("lagrange", "--seq", "inline:1,2", "--n0", "1", "--m", HUGE), id="lagrange --n0 1 --m"),
    pytest.param(
        ("lagrange", "--seq", "inline:1,2", "--n0", "1", "--det", "--m", f"-{HUGE}"), id="lagrange --n0 1 --det --m"
    ),
    pytest.param(("verify", "--check", "all", "--trials", f"-{HUGE}"), id="verify --trials"),
    pytest.param(("verify", "--check", "all", "--min-len", f"-{HUGE}"), id="verify --min-len"),
    pytest.param(("verify", "--check", "all", "--max-len", f"-{HUGE}"), id="verify --max-len"),
    pytest.param(("simplify", "--op", f"I^{HUGE}"), id="simplify"),
]


@pytest.mark.parametrize("argv", DOMAIN_BOUND_OPTIONS)
def test_huge_integer_past_a_domain_bound_is_quoted_in_short(capsys, argv):
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert " characters)" in err


# A window end past Python's int/str digit limit, whose repr raises, is quoted in
# short all the same.
LIMIT = "9" * 4300
PAST_THE_DIGIT_LIMIT = {
    "n0 and m": ("lagrange", "--seq", "inline:1,2,3", "--n0", LIMIT, "--m", LIMIT),
    "m with det": ("lagrange", "--seq", "inline:1,2,3", "--n0", "1", "--m", LIMIT, "--det"),
}


@pytest.mark.parametrize("case", sorted(PAST_THE_DIGIT_LIMIT))
def test_integer_past_the_digit_limit_is_quoted_in_short(capsys, case):
    assert main(list(PAST_THE_DIGIT_LIMIT[case])) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "(4301 characters)" in err


@pytest.mark.parametrize("fmt", ["csv", "json", "bfile"])
def test_non_utf8_file_is_a_format_error(capsys, tmp_path, fmt):
    path = tmp_path / f"input.{fmt}"
    path.write_bytes(b"\xff\xfe" + "1\n2\n".encode("utf-16-le"))
    assert main(["diff", "--seq", f"{fmt}:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not UTF-8 text" in err
    assert "Traceback" not in err


READ_ERRORS = {
    "missing file": ("csv:missing.csv", "cannot read 'missing.csv': No such file or directory"),
    "directory": ("csv:folder", "cannot read 'folder': Is a directory"),
    "not UTF-8": ("csv:latin1.csv", "cannot read 'latin1.csv': not UTF-8 text"),
    "NUL in path": ("csv:a\x00b", "cannot read 'a\\x00b': embedded null byte"),
    "empty path": ("csv:", "cannot read '': No such file or directory"),
}


@pytest.mark.parametrize("case", READ_ERRORS)
def test_unreadable_sequence_file_is_a_format_error(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "latin1.csv").write_bytes("1\n\xe9\n".encode("latin-1"))
    spec, message = READ_ERRORS[case]
    assert main(["diff", "--seq", spec]) == 2
    assert capsys.readouterr().err == f"seqcalc: {message}\n"


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    from seqcalc import cli

    def broken_kernel(seq, order=1):
        raise RuntimeError("synthetic kernel fault")

    monkeypatch.setattr(cli, "derivative", broken_kernel)
    assert main(["diff", "--seq", "inline:1,2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "seqcalc: internal error: RuntimeError\n"


def test_cli_import_leaves_the_verifier_unloaded():
    program = (
        "import sys, seqcalc.cli\n"
        "assert 'seqcalc.verify' not in sys.modules\n"
        "import seqcalc\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""


def test_imports_stay_at_the_stdlib_floor():
    """No site hooks (-I -S), so a module counts only if seqcalc itself imports it."""
    heavy = ("dataclasses", "inspect", "typing", "pathlib")
    lazy = ("random", "seqcalc.verify")
    src = Path(__file__).resolve().parents[1] / "src"
    program = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import seqcalc.cli\n"
        f"print([m for m in {heavy + lazy!r} if m in sys.modules])\n"
        "import seqcalc.verify\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", program], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"


def test_plain_command_lines_leave_argparse_unloaded():
    """Under -I -S, one plain line of each command, and a negative value after "=",
    is read from the option table, with no argparse (nor shutil, which its help
    formatter imports); help still is."""
    src = Path(__file__).resolve().parents[1] / "src"
    lines = [
        ["apply", "--op", "E - I", "--seq", "inline:1,4,9"],
        ["simplify", "--op=(E - I)^2"],
        ["diff", "--seq", "inline:1,4,9", "--order", "2"],
        ["integrate", "--seq", "inline:1,4,9", "--constant", "3/2"],
        ["defint", "--seq", "inline:1,4,9", "--from", "1", "--to", "3"],
        ["classify", "--seq", "inline:1,4,9"],
        ["lagrange", "--seq", "inline:1,4,9", "--n0", "1", "--m", "2", "--det"],
        ["lagrange", "--seq", "inline:1,4,9", "--n0", "1", "--m", "2", "--eval=-15/2"],
        ["verify", "--check", "ftc", "--trials", "1"],
    ]
    program = (
        "import io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from seqcalc.cli import main\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"codes = [main(argv) for argv in {lines!r}]\n"
        "sys.stdout = out\n"
        "print(codes, [m for m in ('argparse', 'shutil') if m in sys.modules])\n"
        "main(['--help'])\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", program], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    first, help_text = result.stdout.split("\n", 1)
    assert first == f"{[0] * len(lines)} []"
    assert help_text.startswith("usage: seqcalc [-h]")


def test_star_import_leaves_the_verifier_unloaded():
    """Under -I -S, ``from seqcalc import *`` stays at the floor too."""
    src = Path(__file__).resolve().parents[1] / "src"
    program = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from seqcalc import *\n"
        "print([m for m in ('random', 'seqcalc.verify') if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", program], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_closed_stdout_exits_141_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "seqcalc", "simplify", "--op", "(I+E)^3000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()  # like `| head -c 100`: megabytes are still to come
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


CALL_SEQUENCES = [
    [("diff", "--seq", "inline:1,4,9,16,25", "--order", "3"), ("diff", "--seq", "inline:1,4,9,16,25")],
    [("diff", "--seq", "inline:1,2", "--order", "x"), ("diff", "--seq", "inline:1,2")],
    [("--help",), ("simplify", "--op", "(E - I)^2")],
    [("lagrange", "--seq", "inline:1,8,27,64", "--n0", "1", "--m", "3", "--det"),
     ("lagrange", "--seq", "inline:1,8,27,64", "--n0", "1", "--m", "3")],
]  # fmt: skip


@pytest.mark.parametrize("calls", CALL_SEQUENCES, ids=lambda calls: " ; ".join(c[0] for c in calls))
def test_calls_in_one_process_match_each_call_alone(capsys, monkeypatch, calls):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    for argv in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        alone = subprocess.run(
            [sys.executable, "-m", "seqcalc", *argv], env=env, capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr)


# Fuzzing: sequence text in every format and operator text, with pieces that
# reach each error (non-ASCII digits, "_", a number past the digit limit,
# unicode line breaks, json values of other types, large exponents).
_SEQ_PIECES = list("0123456789+-/,# \n\r\t[]\"x_.") + ["\xa0", "\u2028", "٣", "true", "{}", "9" * 4400]
_OP_PIECES = list("IEDM0123456789+-*/^() ") + ["^2", "99", "(I+E)", "9" * 4400]
_SEQ_COMMANDS = [
    ("diff",), ("diff", "--order", "3"), ("integrate", "--constant=-1/2"), ("classify",),
    ("defint", "--from", "1", "--to", "2"), ("lagrange", "--n0", "1", "--m", "2", "--det"),
]  # fmt: skip


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def _seq_texts(draw, fmt):
    """Pieces at random, or a sequence written in fmt with one piece put in at random."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_SEQ_PIECES), max_size=30)))
    text = render_sequence(draw(finite_seqs(max_size=12)), fmt)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(["", *_SEQ_PIECES])) + text[at:]


@settings(max_examples=300, deadline=timedelta(seconds=3))  # the deadline bounds each example
@given(
    fmt_text=st.sampled_from(FORMATS).flatmap(lambda fmt: st.tuples(st.just(fmt), _seq_texts(fmt))),
    command=st.sampled_from(_SEQ_COMMANDS),
    op=st.one_of(st.none(), st.lists(st.sampled_from(_OP_PIECES), max_size=16).map("".join)),
)
def test_fuzzed_command_lines_exit_cleanly(fuzz_dir, fmt_text, command, op):
    fmt, text = fmt_text
    spec = f"inline:{text}"
    if fmt != "inline":
        (fuzz_dir / f"s.{fmt}").write_text(text, encoding="utf-8")
        spec = f"{fmt}:{fuzz_dir / f's.{fmt}'}"
    argv = [*command, "--seq", spec] if op is None else ["apply", f"--op={op}", "--seq", spec]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")

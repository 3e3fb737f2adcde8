"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 domain error (length mismatch, zero entry, out-of-range index, ...),
4 internal error (any other exception, reported in one line), 141 stdout
closed by its reader (128 + SIGPIPE, as a shell reports it; nothing on stderr).
All stdout is deterministic for identical invocations.

One table, ``COMMANDS``, declares every command's options, and ``main`` reads
a plain command line straight from it: a command name, then that command's
exact flags, each at most once, as ``--flag value`` (the value neither empty
nor starting with "-"), as ``--flag=value`` (the value neither empty, nor
"--", nor holding "=", but free to start with "-", as in ``--eval=-7/3``),
or bare for a flag that stores True; every required option given, at most
one of a mode group, and every value taken by its converter.  Any other
line goes to argparse, imported and built from the same table on first
need, which parses the whole line, so help, usage and every error text are
its own.  The read may decline a line that argparse accepts, but never
accepts one that argparse rejects, and where it accepts, its namespace holds
the same fields and values as argparse's.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from functools import cache
from types import SimpleNamespace

from . import seqio
from .analysis import classify_convexity, classify_monotonicity
from .calculus import antiderivative, definite_integral, derivative
from .errors import DomainError, UsageError, quoted
from .lagrange import dm_via_determinant, lagrange_poly
from .parser import parse_operator_poly
from .seqio import parse_integer, render_json

# an option's converter is str or parse_integer, or None for a flag, which stores True
_Option = namedtuple("_Option", "dest convert default required help mode", defaults=(None, False, None, False))

_SEQ = _Option("seq", str, required=True, help="sequence spec: inline:1,3/2,2 | csv:PATH | json:PATH | bfile:PATH")

COMMANDS = {
    "apply": ("apply an operator expression to a sequence", {
        "--op": _Option("op", str, required=True, help="operator expression, e.g. '(E - I)^2'"),
        "--seq": _SEQ,
    }),
    "simplify": ("canonical form of an operator expression", {
        "--op": _Option("op", str, required=True),
    }),
    "diff": ("discrete derivative", {
        "--seq": _SEQ,
        "--order": _Option("order", parse_integer, 1),
    }),
    "integrate": ("antiderivative (cumulative sums)", {
        "--seq": _SEQ,
        "--constant": _Option("constant", str, required=True, help="integration constant, e.g. 1 or 3/2"),
    }),
    "defint": ("definite integral (inclusive sum)", {
        "--seq": _SEQ,
        "--from": _Option("lower", parse_integer, required=True),
        "--to": _Option("upper", parse_integer, required=True),
    }),
    "classify": ("monotonicity and convexity flags", {
        "--seq": _SEQ,
    }),
    "lagrange": ("interpolation through consecutive points", {
        "--seq": _SEQ,
        "--n0": _Option("n0", parse_integer, required=True),
        "--m": _Option("m", parse_integer, required=True),
        "--eval": _Option("eval_at", str, help="evaluate the interpolant at a rational", mode=True),
        "--coeffs": _Option("coeffs", None, False, help="print the polynomial (default)", mode=True),
        "--det": _Option("det", None, False, help="determinant route to D^m S(n0)", mode=True),
    }),
    "verify": ("run identity checks", {
        "--check": _Option("check", str, required=True, help="check name or 'all'"),
        "--trials": _Option("trials", parse_integer, 200),
        "--seed": _Option("seed", parse_integer, 0),
        "--min-len": _Option("min_len", parse_integer, 2),
        "--max-len": _Option("max_len", parse_integer, 12),
    }),
}  # fmt: skip
"""Each command's help line and its options by flag, in the order that help lists them;
the options marked mode form one mutually exclusive group."""


def _read(argv) -> SimpleNamespace | None:
    """The namespace of a plain command line, read from ``COMMANDS``, or None
    where argparse must read the line: see the module docstring."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    given = {}
    words = iter(argv[1:])
    for word in words:
        flag, eq, text = word.partition("=")
        option = options.get(flag)
        if option is None or option.dest in given:
            return None
        if option.convert is None:
            if eq:
                return None
            given[option.dest] = True
            continue
        if eq:
            # argparse takes any text after "=" as the value, "-7/3" too, but
            # reads "--" alone differently from one version to another
            if not text or text == "--" or "=" in text:
                return None
        else:
            text = next(words, "")
            if not text or text[0] == "-":
                return None
        try:
            given[option.dest] = option.convert(text)
        except ValueError:
            return None
    if sum(option.mode and option.dest in given for option in options.values()) > 1:
        return None
    values = {"command": argv[0]}
    for option in options.values():
        if option.dest in given:
            values[option.dest] = given[option.dest]
        elif option.required:
            return None
        else:
            values[option.dest] = option.default
    return SimpleNamespace(**values)


@cache
def _build_parser():
    """The argparse parser of ``COMMANDS``, built on first need."""
    import argparse

    def integer(text: str) -> int:
        """argparse type for integer options; a bad value is quoted in short."""
        try:
            return parse_integer(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None

    parser = argparse.ArgumentParser(
        prog="seqcalc",
        description="Exact discrete calculus of finite sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        mode = None
        for flag, option in options.items():
            if option.mode and mode is None:
                mode = command.add_mutually_exclusive_group()
            group = mode if option.mode else command
            if option.convert is None:
                group.add_argument(flag, dest=option.dest, action="store_true", help=option.help)
            else:
                group.add_argument(
                    flag,
                    dest=option.dest,
                    type=integer if option.convert is parse_integer else None,
                    default=option.default,
                    required=option.required,
                    help=option.help,
                )
    return parser


def _run(args) -> int:
    if args.command == "simplify":
        payload = seqio.operator_payload(parse_operator_poly(args.op))
        print(payload["text"])
        print(render_json(payload))
        return 0

    if args.command == "verify":
        from . import verify  # imported on need: no other command uses the verifier

        bounds = (args.trials, args.seed, args.min_len, args.max_len)
        if args.check == "all":
            reports = verify.run_all(*bounds)
        else:
            reports = [verify.run_check(verify.CheckSpec(args.check, *bounds))]
        print(render_json(seqio.verification_payload(reports)))
        return 0 if all(r.passed for r in reports) else 1

    # inputs are read in a fixed order, so of two faults the first one read is reported
    poly = parse_operator_poly(args.op) if args.command == "apply" else None
    seq = seqio.load_sequence(args.seq)
    if args.command == "apply":
        payload = seqio.sequence_payload(poly.apply(seq))
    elif args.command == "diff":
        payload = seqio.sequence_payload(derivative(seq, args.order))
    elif args.command == "integrate":
        payload = seqio.sequence_payload(antiderivative(seq, args.constant))
    elif args.command == "defint":
        payload = seqio.rational_payload(definite_integral(seq, args.lower, args.upper))
    elif args.command == "classify":
        monotonicity = classify_monotonicity(seq)
        convexity = classify_convexity(seq) if len(seq) >= 3 else None
        payload = seqio.classification_payload(monotonicity, convexity)
    elif args.det:  # lagrange from here on
        payload = seqio.rational_payload(dm_via_determinant(seq, args.n0, args.m))
    elif args.eval_at is not None:
        poly = lagrange_poly(seq, args.n0, args.m)
        payload = seqio.rational_payload(poly.evaluate(args.eval_at))
    else:
        payload = seqio.polynomial_payload(lagrange_poly(seq, args.n0, args.m))
    print(render_json(payload))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader quit early (``| head``): not a bug, so nothing on stderr;
        # stdout goes to devnull so that the interpreter's last flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (UsageError, DomainError) as exc:
        print(f"seqcalc: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3
    except Exception as exc:  # exit 1 must keep meaning "a check failed"
        print(f"seqcalc: internal error: {type(exc).__name__}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 domain error (length mismatch, zero entry, out-of-range index, ...),
4 internal error (any other exception, reported in one line), 141 stdout
closed by its reader (128 + SIGPIPE, as a shell reports it; nothing on stderr).
All stdout is deterministic for identical invocations.

The argparse tree is built on the first ``main`` call and reused by every
later call in the process; parsing a command line does not change it.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import seqio
from .analysis import classify_convexity, classify_monotonicity
from .calculus import antiderivative, definite_integral, derivative
from .errors import DomainError, UsageError, quoted
from .lagrange import dm_via_determinant, lagrange_poly
from .parser import parse_operator_poly
from .seqio import parse_integer, render_json


def _integer(text: str) -> int:
    """argparse type for integer options; a bad value is quoted in short."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted(text)}") from None


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcalc",
        description="Exact discrete calculus of finite sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seq_arg(p):
        p.add_argument(
            "--seq",
            required=True,
            help="sequence spec: inline:1,3/2,2 | csv:PATH | json:PATH | bfile:PATH",
        )
        return p

    p_apply = sub.add_parser("apply", help="apply an operator expression to a sequence")
    p_apply.add_argument("--op", required=True, help="operator expression, e.g. '(E - I)^2'")
    seq_arg(p_apply)

    p_simplify = sub.add_parser("simplify", help="canonical form of an operator expression")
    p_simplify.add_argument("--op", required=True)

    p_diff = seq_arg(sub.add_parser("diff", help="discrete derivative"))
    p_diff.add_argument("--order", type=_integer, default=1)

    p_int = seq_arg(sub.add_parser("integrate", help="antiderivative (cumulative sums)"))
    p_int.add_argument("--constant", required=True, help="integration constant, e.g. 1 or 3/2")

    p_defint = seq_arg(sub.add_parser("defint", help="definite integral (inclusive sum)"))
    p_defint.add_argument("--from", dest="lower", type=_integer, required=True)
    p_defint.add_argument("--to", dest="upper", type=_integer, required=True)

    seq_arg(sub.add_parser("classify", help="monotonicity and convexity flags"))

    p_lagrange = seq_arg(sub.add_parser("lagrange", help="interpolation through consecutive points"))
    p_lagrange.add_argument("--n0", type=_integer, required=True)
    p_lagrange.add_argument("--m", type=_integer, required=True)
    mode = p_lagrange.add_mutually_exclusive_group()
    mode.add_argument("--eval", dest="eval_at", help="evaluate the interpolant at a rational")
    mode.add_argument("--coeffs", action="store_true", help="print the polynomial (default)")
    mode.add_argument("--det", action="store_true", help="determinant route to D^m S(n0)")

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--check", required=True, help="check name or 'all'")
    p_verify.add_argument("--trials", type=_integer, default=200)
    p_verify.add_argument("--seed", type=_integer, default=0)
    p_verify.add_argument("--min-len", dest="min_len", type=_integer, default=2)
    p_verify.add_argument("--max-len", dest="max_len", type=_integer, default=12)

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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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

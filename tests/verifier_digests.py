"""The verifier's report digests, built with the standard library alone.

Each builder runs ``seqcalc verify`` in-process through ``cli.main`` and
returns its exit code and stdout.  The two sabotage builders break one kernel
with ``setattr`` for the run and put it back in a ``finally`` block.
``tests/test_verify.py`` calls the same builders under pytest.

Run it as a script: ``PYTHONPATH=src python tests/verifier_digests.py``.
"""

import hashlib
import io
from contextlib import redirect_stdout

from seqcalc import calculus
from seqcalc.cli import main
from seqcalc.operators import OperatorPoly
from seqcalc.sequences import FiniteSeq

# stdout of a passing `verify`: the whole catalog at the default lengths 2..12,
# and at lengths up to 100, which those never reach
PASSING_REPORT_SHA256 = [
    (("--check", "all", "--trials", "200"),
     "7a024d4414f1bd5820a04ebe5fba232dda262aa98d52ffb8e4fd33db0cd1ec7c"),
    (("--check", "all", "--trials", "40", "--seed", "11", "--max-len", "100"),
     "d7477c154549a390ab6b30a84685cec6418cb892ae4b5627e25baea9593c8826"),
]

# stdout of `verify --check all --trials 30 --seed 3 --max-len 14` while
# OperatorPoly.apply shifts its first entry by 1: pins the draw order of
# every check, the failure texts a broken kernel produces and their counts.
FAILING_REPORT_SHA256 = "63cb8729cc2be76bfd9f51fadc208e97d5a3f5c7c60edf291cdabc782cf9dbbd"

# stdout of `verify --check all --trials 30 --seed 3` while calculus.antiderivative
# drops its constant: only the checks that read the constant fail, and the
# fundamental theorem, which takes a difference of two antiderivative entries,
# does not
DROPPED_CONSTANT_SHA256 = "600faea90710c27b889380842b2e17ad9df8095d65e1689a0309a3e11cec2f42"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def verify_report(argv):
    """(exit code, stdout) of `seqcalc verify` with these arguments."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", *argv])
    return code, out.getvalue()


def off_by_one_in_the_first_entry(seq):
    return FiniteSeq([seq.at(1) + 1, *seq.values[1:]]) if seq else seq


def failing_report():
    """The report of FAILING_REPORT_SHA256, with OperatorPoly.apply broken for the run."""
    original = OperatorPoly.apply

    def broken(self, seq):
        return off_by_one_in_the_first_entry(original(self, seq))

    setattr(OperatorPoly, "apply", broken)
    try:
        return verify_report(("--check", "all", "--trials", "30", "--seed", "3", "--max-len", "14"))
    finally:
        setattr(OperatorPoly, "apply", original)


def dropped_constant_report():
    """The report of DROPPED_CONSTANT_SHA256, with the antiderivative's constant dropped for the run."""
    original = calculus.antiderivative
    setattr(calculus, "antiderivative", lambda seq, constant=0: original(seq))
    try:
        return verify_report(("--check", "all", "--trials", "30", "--seed", "3"))
    finally:
        setattr(calculus, "antiderivative", original)


def check_verifier_digests():
    for argv, expected in PASSING_REPORT_SHA256:
        code, out = verify_report(argv)
        assert (code, sha256(out)) == (0, expected), argv
    sabotaged = ((failing_report, FAILING_REPORT_SHA256), (dropped_constant_report, DROPPED_CONSTANT_SHA256))
    for build, expected in sabotaged:
        code, out = build()
        assert (code, sha256(out)) == (1, expected), build.__name__


if __name__ == "__main__":
    check_verifier_digests()
    print("verifier reports match the pinned digests")

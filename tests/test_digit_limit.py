"""Integers beyond Python's int/str digit limit end in a typed error.

The limit (4300 digits by default) guards against quadratic-time parsing.
seqcalc keeps it, and every input and output path maps it to a usage error:
exit 2 with a one-line message, never a ValueError traceback.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seqcalc import OperatorPoly, Polynomial
from seqcalc.cli import main
from seqcalc.errors import FormatError
from seqcalc.seqio import render_sequence
from seqcalc.sequences import FiniteSeq

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int/str digit limit"
)

BIG = "7" * 5000  # parses only without the limit
TENS = "1" + "0" * 4000  # 10^4000 parses; times ROOM it is too long to write
ROOM = "1" + "0" * 400


@pytest.fixture
def files(tmp_path):
    paths = {
        "csv": tmp_path / "s.csv",
        "json_int": tmp_path / "i.json",
        "json_str": tmp_path / "s.json",
        "bfile": tmp_path / "b.txt",
    }
    paths["csv"].write_text(f"1\n{BIG}\n")
    paths["json_int"].write_text(f"[1, {BIG}]")
    paths["json_str"].write_text(f'[1, "{BIG}/3"]')
    paths["bfile"].write_text(f"1 1\n2 {BIG}\n")
    return paths


INPUT_CASES = {
    "inline": ("diff", "--seq", f"inline:{BIG},1"),
    "inline denominator": ("diff", "--seq", f"inline:1/{BIG},1"),
    "csv": ("diff", "--seq", "csv:{csv}"),
    "json integer": ("diff", "--seq", "json:{json_int}"),
    "json string": ("diff", "--seq", "json:{json_str}"),
    "bfile": ("diff", "--seq", "bfile:{bfile}"),
    "constant": ("integrate", "--seq", "inline:1,2", "--constant", BIG),
    "eval": ("lagrange", "--seq", "inline:1,2", "--n0", "1", "--m", "1", "--eval", BIG),
    "op number": ("apply", "--op", f"{BIG}*E", "--seq", "inline:1,2"),
    "op denominator": ("apply", "--op", f"1/{BIG}*E", "--seq", "inline:1,2"),
    "op exponent": ("simplify", "--op", f"E^{BIG}"),
}

OUTPUT_CASES = {
    "simplify": ("simplify", "--op", "(1000*E)^1500"),
    "apply": ("apply", "--op", "10^4000*E", "--seq", f"inline:0,{ROOM}"),
    "eval": ("lagrange", "--seq", f"inline:0,{TENS}", "--n0", "1", "--m", "1", "--eval", ROOM),
}


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", list(INPUT_CASES))
def test_oversized_input_is_a_usage_error(capsys, files, name):
    argv = [arg.format(**files) for arg in INPUT_CASES[name]]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("seqcalc: ") and err.count("\n") == 1
    assert len(err) < 200


@pytest.mark.parametrize("name", list(OUTPUT_CASES))
def test_oversized_output_is_a_usage_error(capsys, name):
    code, out, err = run(capsys, OUTPUT_CASES[name])
    assert code == 2
    assert out == ""
    assert err == "seqcalc: a number in the result has too many digits to write as text\n"


def test_renderers_raise_format_error():
    huge = Fraction(2**20000)
    with pytest.raises(FormatError):
        OperatorPoly.scalar(huge).render()
    with pytest.raises(FormatError):
        Polynomial([1, huge]).render()
    for fmt in ("inline", "csv", "json", "bfile"):
        with pytest.raises(FormatError):
            render_sequence(FiniteSeq([1, huge]), fmt)


def test_no_traceback_from_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-m", "seqcalc", "diff", "--seq", f"inline:{BIG},1"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1

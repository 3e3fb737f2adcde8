#!/usr/bin/env python3
"""Check that each mutant in a fixed table fails the check named to catch it.

Usage: python scripts/sabotage.py

Each row of ``MUTANTS`` is ``(name, file, old text, new text, killer)``.  The
old text must occur exactly once in the file under ``src/seqcalc``, so a
refactor that moves it fails the row instead of skipping it.  The killer is a
Tier-1 node id (``tests/x.py::test_y``), run by pytest, or a pytest-free
script (``tests/x.py``, ``scripts/gates.py``), run by the interpreter.

Every distinct killer first runs on an unchanged copy of ``src/``, ``tests/``,
``scripts/`` and ``pyproject.toml``, where it must pass.  Then each mutant gets a fresh
copy, the replacement is written there, and its killer runs in one child
process with ``src`` first on PYTHONPATH, under ``TIMEOUT_S``.  Children run
one at a time.  A row passes when its killer fails: the check catches the
mutant.  A killer that times out counts as not having caught it.

The script prints one line per row and exits 1 when a mutant passes its
killer, a killer fails on the unchanged copy, or an old text is not found
exactly once.  It needs only the standard library, and pytest for node ids:
it first checks once whether the interpreter imports pytest, and where it does
not, it prints each node-id row as SKIPPED with the import error, still runs
the rows whose killer is a script, and exits 2 where nothing failed, so a run
that skipped a row never passes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
COPIED = ("src", "tests", "scripts", "pyproject.toml")

MUTANTS = [
    (
        "exits-drop-den",
        "sequences.py",
        "        if den == 1:\n            return map(Fraction, items)",
        "        if den >= 1:\n            return map(Fraction, items)",
        "tests/test_library_outcomes.py",
    ),
    (
        "hash-first-entry-only",
        "sequences.py",
        "return hash(tuple(self))",
        "return hash(tuple(self)[:1])",
        "tests/test_scaled.py::test_elementwise_arithmetic_matches_fraction_oracles",
    ),
    (
        "apply-adds-minus-one-at-5000",
        "operators.py",
        "acc = list(map(sub, acc, window))",
        "acc = list(map(add if out_len >= 5000 else sub, acc, window))",
        "tests/test_operators.py::test_minus_one_weights_over_long_outputs_match_raw_index_oracle",
    ),
    (
        "bareiss-old-divisor-from-step-25",
        "lagrange.py",
        "for x, y in zip(row[k + 1 :], pivot_tail)]\n        prev = pivot",
        "for x, y in zip(row[k + 1 :], pivot_tail)]\n        prev = pivot if k < 25 else prev",
        "tests/test_lagrange.py::test_route_matches_the_reference_elimination_at_every_order_to_30",
    ),
    (
        # from step 26 on, step k reads step k - 1's falling factorials
        "falling-factorials-one-step-late-from-25",
        "lagrange.py",
        "falling = [f * (r - k) for r, f in enumerate(falling[1:], k + 2)]",
        "falling = [f * (r - k + (k > 25)) for r, f in enumerate(falling[1:], k + 2)] if k != 25 else falling[1:]",
        "tests/test_lagrange.py::test_determinant_route_at_order_30_matches_differences_on_every_window",
    ),
    (
        "det-v-one-factorial-short",
        "lagrange.py",
        "Fraction(sign * superfactorial)",
        "Fraction(sign * superfactorial // fact)",
        "tests/test_lagrange.py::test_vandermonde_determinant_closed_form",
    ),
    (
        "k-factorial-advanced-before-its-step",
        "lagrange.py",
        "        y = column[k]\n        column[k + 1 :] = [fact * x - f * y for x, f in zip(column[k + 1 :], falling)]\n"
        "        falling = [f * (r - k) for r, f in enumerate(falling[1:], k + 2)]\n        fact *= k + 1\n",
        "        fact *= k + 1\n        y = column[k]\n"
        "        column[k + 1 :] = [fact * x - f * y for x, f in zip(column[k + 1 :], falling)]\n"
        "        falling = [f * (r - k) for r, f in enumerate(falling[1:], k + 2)]\n",
        "tests/test_lagrange.py::test_determinant_route_examples",
    ),
    (
        "binomial-ratio-off-from-k-40",
        "operators.py",
        "t = t * j * r // ((k + 1) * c)",
        "t = t * j * r // ((k + 1) * c) + (k >= 40)",
        "tests/test_operators.py::test_two_term_power_at_the_exponent_bound_is_the_binomial_row",
    ),
    (
        "dot-row-one-shift-short",
        "operators.py",
        "span = len(row)",
        "span = len(row) - 1",
        "tests/test_operators.py::test_dot_products_match_raw_index_oracle_and_keep_the_item_types",
    ),
    (
        "table-read-takes-a-dash-value",
        "cli.py",
        'if not text or text[0] == "-":',
        "if not text:",
        "tests/test_cli.py::test_each_command_line_parses_as_the_full_parser_parses_it[negative value]",
    ),
    (
        "table-read-ignores-the-mode-group",
        "cli.py",
        "for option in options.values()) > 1:",
        "for option in options.values()) > 3:",
        "tests/test_cli.py::test_each_command_line_parses_as_the_full_parser_parses_it[exclusive modes]",
    ),
    (
        # the same values over twice the den: no longer lowest terms, so == tells them apart
        "power-terms-doubled",
        "operators.py",
        "poly._terms, poly._den, poly._stencil = terms, den, None",
        "poly._terms, poly._den, poly._stencil = {key: 2 * c for key, c in terms.items()}, 2 * den, None",
        "tests/test_operators.py::test_power_is_repeated_product",
    ),
    (
        "sampler-takes-q-10",
        "verify.py",
        "while q >= 9:",
        "while q >= 10:",
        "tests/verifier_digests.py",
    ),
    (
        # the same values over a larger den where the start and ratio share a factor
        "geometric-pairs-unreduced",
        "verify.py",
        "num, den = num // g, den // g",
        "num, den = num, den",
        "tests/test_verify.py::test_geometric_and_arithmetic_instances_have_the_working_form_of_their_fraction_build",
    ),
    (
        "cofactor-sign-slip",
        "verify.py",
        "- d * (b * i - c * h)",
        "+ d * (b * i - c * h)",
        "tests/verifier_digests.py",
    ),
    (
        # the 100000-entry inputs hold 10023 distinct tokens, so only the table expands them
        "table-expansion-drops-a-token-at-100000",
        "seqio.py",
        "return FiniteSeq.from_scaled(list(map(table.__getitem__, tokens)), den)",
        "return FiniteSeq.from_scaled(list(map(table.__getitem__, tokens[len(tokens) >= 100000 :])), den)",
        "scripts/gates.py",
    ),
    (
        # a text whose first token is an integer goes to the walk, which reads it alike
        "slash-test-reads-the-first-token-only",
        "seqio.py",
        'return "/" in joined',
        'return "/" in joined.partition(",")[0]',
        "tests/test_seqio.py::test_texts_of_the_usual_shapes_never_reach_the_walk",
    ),
    (
        # a text with one repeated token would read as its distinct tokens, one entry short
        "distinct-read-taken-at-one-repeat",
        "seqio.py",
        "if len(distinct) == len(tokens):",
        "if len(distinct) >= len(tokens) - 1:",
        "tests/test_seqio.py::test_texts_of_the_usual_shapes_never_reach_the_walk",
    ),
    (
        "derivative-skips-a-pass-at-order-3",
        "calculus.py",
        "for _ in range(min(order, len(seq))):",
        "for _ in range(min(order, len(seq)) - (order == 3)):",
        "tests/verifier_digests.py",
    ),
    (
        # the same coefficients over twice the den: every cubic's values halved
        "cubic-den-doubled",
        "lagrange.py",
        "self._coeffs, self._den = tuple(c // g for c in coeffs), den // g",
        "self._coeffs, self._den = tuple(c // g for c in coeffs), den // g * (1 + (len(coeffs) == 4))",
        "tests/verifier_digests.py",
    ),
    (
        "quote-chars-41",
        "errors.py",
        "QUOTE_CHARS = 40",
        "QUOTE_CHARS = 41",
        "tests/test_cli_outcomes.py",
    ),
    (
        "eq-across-dens-swapped",
        "sequences.py",
        "return all(a * d2 == b * d1 for a, b in zip(x, y))",
        "return all(a * d1 == b * d2 for a, b in zip(x, y))",
        "tests/test_scaled.py::test_unreduced_tokens_are_stored_as_written_and_read_reduced",
    ),
    (
        "definite-integral-takes-b-past-the-end",
        "calculus.py",
        "if a < 1 or b > n:",
        "if a < 1 or b > n + 1:",
        "tests/test_calculus.py::test_definite_integral_bounds_errors",
    ),
    (
        # an affine sequence is convex, but not strictly
        "strict-convexity-drops-the-zero-fact",
        "analysis.py",
        "strictly_convex = convex and nonzero",
        "strictly_convex = convex",
        "tests/test_analysis.py::test_convexity_examples",
    ),
    (
        # [1, 1, 2] is increasing, but not strictly
        "zero-fact-never-fires",
        "analysis.py",
        "0 not in items",
        "None not in items",
        "tests/test_analysis.py::test_monotonicity_examples",
    ),
    (
        # a draw of one pair, as every scalar draw is, reads its denominator one higher
        "scalar-draws-take-q-plus-2",
        "verify.py",
        "out.append((numerators[p], q + 1))",
        "out.append((numerators[p], q + 1 + (length == 1)))",
        "tests/verifier_digests.py",
    ),
]


def fresh_copy(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, into / name)


def child_env() -> dict:
    """The caller's environment with src first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"src{os.pathsep}{path}" if path else "src")


def pytest_missing() -> str:
    """Why the interpreter does not import pytest, or "" where it does."""
    done = subprocess.run([sys.executable, "-c", "import pytest"], env=child_env(), capture_output=True, text=True)
    if done.returncode == 0:
        return ""
    return (done.stderr.strip().splitlines() or [f"exit {done.returncode}"])[-1]


def run_killer(tree: Path, killer: str) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for the killer run in tree, and its wall time."""
    if "::" in killer:
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", killer]
    else:
        argv = [sys.executable, killer]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=tree, env=child_env(), capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - start


def main() -> int:
    bad = skipped = 0
    missing = pytest_missing()
    with tempfile.TemporaryDirectory() as temp:
        clean = Path(temp, "clean")
        clean.mkdir()
        fresh_copy(clean)
        for killer in dict.fromkeys(row[4] for row in MUTANTS):
            if missing and "::" in killer:
                continue
            outcome, seconds = run_killer(clean, killer)
            if outcome != "pass":
                bad += 1
                print(f"BROKEN    {killer}: {outcome} on the unchanged tree ({seconds:.1f} s)")
        for index, (name, file, old, new, killer) in enumerate(MUTANTS):
            if missing and "::" in killer:
                skipped += 1
                print(f"SKIPPED   {name}: {killer} needs pytest, which does not import here ({missing})")
                continue
            tree = Path(temp, f"mutant{index}")
            tree.mkdir()
            fresh_copy(tree)
            target = tree / "src" / "seqcalc" / file
            text = target.read_text()
            count = text.count(old)
            if count != 1:
                bad += 1
                print(f"STALE     {name}: old text found {count} times in {file}")
                continue
            target.write_text(text.replace(old, new))
            outcome, seconds = run_killer(tree, killer)
            if outcome == "fail":
                print(f"killed    {name} by {killer} ({seconds:.1f} s)")
            else:
                bad += 1
                print(f"SURVIVED  {name}: {killer} gave {outcome} ({seconds:.1f} s)")
            shutil.rmtree(tree)
    return 1 if bad else 2 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())

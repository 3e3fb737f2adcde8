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
exactly once.  It needs only the standard library, and pytest for node ids.
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
        "tests/test_lagrange.py::test_vandermonde_determinant_closed_form[27]",
    ),
    (
        "node-table-growth-off-by-one",
        "lagrange.py",
        "if len(nodes) <= m:",
        "if len(nodes) < m:",
        "tests/test_lagrange.py::test_node_table_grows_to_each_order_and_matches_the_full_rows",
    ),
    (
        "node-table-det-v-one-order-low",
        "lagrange.py",
        "Fraction(sign * nodes[m][m])",
        "Fraction(sign * nodes[m - 1][m - 1])",
        "tests/test_lagrange.py::test_determinant_route_at_order_30_matches_differences_on_every_window",
    ),
    (
        "node-table-written-by-column",
        "lagrange.py",
        "        column[k + 1 :] = [",
        "        column[k + 1 :] = nodes[k + 1 :] = [",
        "tests/test_lagrange.py::test_a_call_leaves_the_node_table_unchanged",
    ),
    (
        # same values by Sylvester's identity, but m = 80 builds the table at 160
        "node-table-built-at-twice-the-order",
        "lagrange.py",
        "rows = [[x**k for k in range(m + 1)] for x in range(m + 1)]",
        "rows = [[x**k for k in range(2 * m + 1)] for x in range(2 * m + 1)]",
        "scripts/gates.py",
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
        "command-route-keeps-leftovers",
        "cli.py",
        "if command is None or extra:",
        "if command is None:",
        "tests/test_cli.py::test_each_command_line_parses_as_the_full_parser_parses_it[leftover word]",
    ),
    (
        "scan-scale-off-at-100000",
        "sequences.py",
        "scale = {key: den // d for key, d in dens.items()}",
        "scale = {key: den // d + (len(nums) >= 100000) for key, d in dens.items()}",
        "scripts/gates.py",
    ),
]


def fresh_copy(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, into / name)


def run_killer(tree: Path, killer: str) -> tuple[str, float]:
    """'pass', 'fail' or 'timeout' for the killer run in tree, and its wall time."""
    if "::" in killer:
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", killer]
    else:
        argv = [sys.executable, killer]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"src{os.pathsep}{path}" if path else "src")
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - start


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as temp:
        clean = Path(temp, "clean")
        clean.mkdir()
        fresh_copy(clean)
        for killer in dict.fromkeys(row[4] for row in MUTANTS):
            outcome, seconds = run_killer(clean, killer)
            if outcome != "pass":
                bad += 1
                print(f"BROKEN    {killer}: {outcome} on the unchanged tree ({seconds:.1f} s)")
        for index, (name, file, old, new, killer) in enumerate(MUTANTS):
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
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

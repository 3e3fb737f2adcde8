#!/usr/bin/env python3
"""Count the code lines of Python files: lines that are not blank, comment or docstring.

A line counts when it holds a token other than a comment or a line break,
and no docstring covers it.  A docstring is any statement that is a bare
string: the first statement of a module, class or function, and the string
that documents a constant after its assignment.  Any other string that spans
lines counts on every line it spans.

Usage: python scripts/code_lines.py [PATH ...]   (default: src/seqcalc)

Each argument is a file or a directory, searched for ``*.py``; the script
prints one line per file and then the total.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every statement that is a bare string: docstrings and attribute docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that are not blank, comment or docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path(__file__).resolve().parents[1] / "src" / "seqcalc"]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for file in files:
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # the reader quit early (``| head``): stdout goes to devnull so that the
        # interpreter's last flush is quiet, and the exit code is 128 + SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)

#!/usr/bin/env python3
"""Count the lines of Python that hold code, per module and in total.

A line holds code if a token other than a comment starts on it or runs
through it. Blank lines, comment lines and docstrings (the string that opens
a module, class or function body) do not count.

Usage:
    python3 scripts/code_lines.py PATH [PATH ...]

Each PATH is a .py file or a directory searched for .py files. Prints one
line per module, "lines path", then "lines total".
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def modules(paths: list[str]) -> list[Path]:
    found = []
    for p in map(Path, paths):
        found += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    total = 0
    for path in modules(argv):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

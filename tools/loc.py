"""Prints the code lines of each module under ``src/`` and their total.

A code line holds a token that is not a comment; blank lines, comment lines
and the docstrings of modules, classes and functions are left out. Run it
from the repository root: ``python tools/loc.py`` (or pass other files or
directories as arguments).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src")]
    paths = sorted(p for root in roots for p in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6,d}  {path}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

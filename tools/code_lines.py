"""Count the code lines of Python files: lines that hold a token outside comments and docstrings.

A line counts if it holds a ``tokenize`` token other than COMMENT, NL,
NEWLINE, INDENT, DEDENT and ENDMARKER, so blank lines and comment-only
lines do not count and a string spanning several lines counts each of
them.  The lines of a docstring, the string-constant first statement of a
module, class or function (found with ``ast``), do not count either.

Usage: ``python tools/code_lines.py [PATH ...]``, where each PATH is a
``.py`` file or a directory searched recursively; the default is
``src/congruential_euler``.  Prints one count per file and the total.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers (from 1) covered by the docstrings of ``source``."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src/congruential_euler")]
    files = [file for path in paths
             for file in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]
    total = 0
    for file in files:
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

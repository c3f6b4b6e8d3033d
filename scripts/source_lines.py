"""Count the lines of the Python files in a source directory, and its code lines.

Code lines leave out blank lines, comment-only lines and docstring lines, so
deleting comments or docstrings does not lower them. Prints the two counts,
of ``src/measurefit`` when no directory is given:

    python scripts/source_lines.py src/measurefit
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of the docstrings of the module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple[int, int]:
    """All lines of a Python source, and the lines holding a token other than a comment."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


SOURCE = Path(__file__).resolve().parents[1] / "src" / "measurefit"


def main(directory: str = str(SOURCE)) -> None:
    totals = [sum(column) for column in zip((0, 0), *(
        counts(path.read_text()) for path in sorted(Path(directory).glob("*.py"))))]
    print(*totals)


if __name__ == "__main__":
    main(*sys.argv[1:])

"""Count source lines per module of the gaussrough package.

Usage: python tools/sloc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/gaussrough next to this script's parent
directory; pass another checkout's package directory to compare two trees.
For each module it prints the total line count and the code lines: lines
that carry a token other than a comment, leaving out blank lines, comment
lines and the lines of module, class and function docstrings.  Standard
library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "gaussrough"
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"no modules under {root}", file=sys.stderr)
        return 2
    totals = [0, 0]
    print(f"{'module':<24}{'lines':>8}{'code':>8}")
    for path in files:
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<24}{lines:>8}{code:>8}")
    print(f"{'total':<24}{totals[0]:>8}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

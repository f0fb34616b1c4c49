"""Code lines of the package, per module and in total.

    python3 tools/code_lines.py [DIRECTORY]

Counts the lines of each ``*.py`` file under DIRECTORY (default
``src/qlayout``) that hold code: a line counts if a token other than a
comment, an indent or a line break starts or runs on it, and it is not
part of a docstring (the string that opens a module, class or function
body, as the AST reads it).  So blank lines, comment lines and docstrings
do not count, and a statement split over several lines counts each of
them.  Prints one ``lines  module`` row per file and the total last.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: tokens that are not code: layout and comments
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of ``source``, as the module docstring counts them."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else ROOT / "src" / "qlayout"
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.stem}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the total and code lines of each ``src/genpgd`` module.

    python3 tools/code_lines.py [DIR]

A code line is a line of a module that is none of: blank, a comment alone
on its line, or part of a module, class or function docstring (the string
literal that opens the body).  A line with code and a trailing comment is a
code line.  Prints one line per ``*.py`` file of ``DIR`` (default the
package directory), then their sum.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "genpgd"


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of the Python ``source``."""
    total = len(source.splitlines())
    skip = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return total, len(code - skip)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("directory", nargs="?", default=str(PACKAGE))
    args = p.parse_args(argv)
    sums = [0, 0]
    print(f"{'module':<16} {'total':>6} {'code':>6}")
    for path in sorted(Path(args.directory).glob("*.py")):
        total, code = count(path.read_text())
        sums[0] += total
        sums[1] += code
        print(f"{path.name:<16} {total:>6} {code:>6}")
    print(f"{'sum':<16} {sums[0]:>6} {sums[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

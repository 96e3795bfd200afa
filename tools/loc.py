"""Count the code lines of Python files.

Run from the repository root:

    python3 tools/loc.py                          # src/laytrop, file by file
    python3 tools/loc.py src/laytrop/cli.py tools  # the files and directories given

A code line carries a token that is not a comment, a newline or an
indent.  The lines of a docstring (a string literal that is the first
statement of a module, class or function) are not code.  A statement
that spans several lines counts each line it spans, so joining lines
changes the count, as it changes what a reader reads.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(path: str):
    """``path`` if it is a file, else the ``.py`` files under it in name order."""
    if not os.path.isdir(path):
        yield path
        return
    for folder, dirs, files in os.walk(path):
        dirs.sort()
        yield from (os.path.join(folder, f) for f in sorted(files) if f.endswith(".py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", default=[os.path.join(ROOT, "src", "laytrop")],
                        help="files or directories (default: src/laytrop)")
    args = parser.parse_args(argv)
    for path in args.paths:
        counts = []
        for name in python_files(path):
            with open(name, encoding="utf-8") as f:
                counts.append((os.path.relpath(name), code_lines(f.read())))
        if len(counts) > 1 or os.path.isdir(path):
            for name, count in counts:
                print(f"{count:6d}  {name}")
        print(f"{sum(c for _, c in counts):6d}  {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

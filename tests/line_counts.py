#!/usr/bin/env python3
"""Line counts of the library's modules, total and code.

Usage: ``python tests/line_counts.py [PACKAGE_DIR]``, where PACKAGE_DIR
defaults to ``src/parahoric`` next to this script's directory.  For each
module it prints the total lines and the code lines: the lines that are not
blank, not comments and not docstrings.  A docstring is the leading string
statement of a module, class or function body, found by ``ast``; every line
it spans counts as docstring.  The other lines are classed by ``tokenize``,
so a line inside a multi-line string that is no docstring counts as code.
Stdlib only.
"""

import ast
import pathlib
import sys
import tokenize

#: tokens that make no line code on their own
LAYOUT = {
    tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: pathlib.Path) -> tuple[int, int]:
    """``(total, code)`` line counts of one module."""
    text = path.read_text(encoding="utf-8")
    code = set()
    with path.open("rb") as stream:
        for tok in tokenize.tokenize(stream.readline):
            if tok.type not in LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(__file__).resolve().parents[1] / "src" / "parahoric"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no modules under {package}", file=sys.stderr)
        return 1
    print(f"{'module':16s} {'total':>6s} {'code':>6s}")
    sums = [0, 0]
    for path in modules:
        total, code = counts(path)
        sums[0] += total
        sums[1] += code
        print(f"{path.name:16s} {total:6d} {code:6d}")
    print(f"{'all':16s} {sums[0]:6d} {sums[1]:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

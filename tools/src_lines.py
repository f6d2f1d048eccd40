"""Count the lines of the oscquad package, in total and as code.

From the root of a checkout of the repository:

    python3 tools/src_lines.py --root PATH

prints, for ``PATH/src/oscquad/*.py`` (default: this checkout), the total
number of lines and the number of code lines: lines that are not blank, not
comment-only and not part of a docstring.  A docstring is the string that
opens a module, class or function body, as ``ast`` finds it; any other
string, and a line that holds code beside a comment, counts as code.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# Tokens that make a line code: every kind except these.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """Line numbers (from 1) spanned by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple:
    """``(total, code)`` line counts of one file's ``source``."""
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def package_lines(root: Path) -> tuple:
    """``(total, code)`` summed over ``root/src/oscquad/*.py``."""
    files = sorted((root / "src" / "oscquad").glob("*.py"))
    if not files:
        raise SystemExit(f"no src/oscquad/*.py under {root}")
    counts = [count_lines(path.read_text()) for path in files]
    return sum(total for total, _ in counts), sum(code for _, code in counts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout holding src/oscquad (default: this one)")
    args = parser.parse_args(argv)
    total, code = package_lines(args.root)
    print(f"src/oscquad: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

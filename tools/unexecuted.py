"""List the statements of the oscquad package that a pytest run never executes.

From the root of a checkout of the repository:

    python3 tools/unexecuted.py --root PATH -- PYTEST_ARGS

runs pytest in this process, from ``PATH`` (default: this checkout) with
``PATH/src`` first on the import path and on ``PYTHONPATH``, so that the
subprocesses the tests start import the same package, under a
``sys.settrace`` line tracer limited to ``PATH/src/oscquad``.  It then
prints ``file:line: statement`` for every statement of
``PATH/src/oscquad/*.py`` that the run never executed, and their count.
The pytest arguments default to ``-q``.
A statement is an ``ast.stmt`` other than a def, a class, an import or a
docstring, counted at its first line.  The tool uses the standard library
and pytest only.  The exit code is pytest's.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

from src_lines import HERE, docstring_lines

_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> list:
    """``(first line, text of that line)`` of each counted statement of
    ``source``, in line order."""
    docstrings = docstring_lines(source)
    lines = source.splitlines()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _NOT_COUNTED):
            continue
        if isinstance(node, ast.Expr) and node.lineno in docstrings:
            continue
        found.add((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(found)


def traced_run(package: Path, pytest_args: list) -> tuple:
    """Run pytest with ``pytest_args`` under a line tracer; return its exit
    code and the lines executed in each file under ``package``."""
    import pytest

    prefix = str(package) + os.sep
    executed = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), executed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout holding src/oscquad and its tests (default: this one)")
    args = parser.parse_args(argv[:split])
    root = args.root.resolve()
    package = root / "src" / "oscquad"
    files = sorted(package.glob("*.py"))
    if not files:
        raise SystemExit(f"no src/oscquad/*.py under {root}")
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    # Subprocesses the tests start (``python -m oscquad``) import it too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code, executed = traced_run(package, argv[split + 1:] or ["-q"])
    missed = total = 0
    for path in files:
        hit = executed.get(str(path), set())
        for line, text in statements(path.read_text()):
            total += 1
            if line not in hit:
                missed += 1
                print(f"{path.relative_to(root)}:{line}: {text}")
    print(f"{missed} of {total} statements of src/oscquad never executed (pytest exit code {code})")
    return code


if __name__ == "__main__":
    raise SystemExit(main())

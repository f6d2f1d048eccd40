"""tools/src_lines.py: total and code line counts of a package written to a
temporary directory."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# 14 lines: a two-line module docstring, a blank, a comment, a function
# whose one-line docstring sits beside a two-line string that is code and
# a return line that carries a comment, and a class whose string is not
# the first statement of its body, so is code too.
SOURCE = '''"""Module docstring,
on two lines."""

# A comment.
def f(x):
    """Docstring."""
    text = """not a
docstring"""
    return x  # a comment beside code


class C:
    y = 1
    """Not a docstring: not the body's first statement."""
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_a_package(tool, tmp_path, capsys):
    package = tmp_path / "src" / "oscquad"
    package.mkdir(parents=True)
    (package / "one.py").write_text(SOURCE)
    (package / "two.py").write_text("x = 1\n\n\n")
    (package / "notes.txt").write_text("not python\n")
    # one.py: def, both lines of the string, return, class, y and the
    # string after it; two.py: one line of three.
    assert tool.count_lines(SOURCE) == (14, 7)
    assert tool.package_lines(tmp_path) == (17, 8)
    assert tool.main(["--root", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "src/oscquad: 17 lines, 8 code lines\n"


def test_missing_package_is_refused(tool, tmp_path):
    with pytest.raises(SystemExit, match="no src/oscquad"):
        tool.package_lines(tmp_path)

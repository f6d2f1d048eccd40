"""tools/unexecuted.py: the statements of a package written to a temporary
directory that its tests never run."""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unexecuted.py"

# Five statements: two in used, which the test calls, and three in unused,
# which it does not.  The docstrings, the import and the defs are not
# counted.
SOURCE = '''"""A two-function module."""

import math


def used(x):
    """Docstring."""
    y = x + 1
    return y


def unused(x):
    if x:
        return math.sqrt(x)
    return 0.0
'''

TEST = '''from oscquad.one import used


def test_used():
    assert used(1) == 2
'''


def test_lists_the_statements_no_test_runs(tmp_path):
    package = tmp_path / "src" / "oscquad"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "one.py").write_text(SOURCE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_one.py").write_text(TEST)
    proc = subprocess.run([sys.executable, str(TOOL), "--root", str(tmp_path), "--", "-q", "-p", "no:cacheprovider"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-4:] == [
        "src/oscquad/one.py:13: if x:",
        "src/oscquad/one.py:14: return math.sqrt(x)",
        "src/oscquad/one.py:15: return 0.0",
        "3 of 5 statements of src/oscquad never executed (pytest exit code 0)",
    ]


def test_missing_package_is_refused(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--root", str(tmp_path)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1 and "no src/oscquad" in proc.stderr


SUBPROCESS_TEST = '''import subprocess
import sys
from pathlib import Path


def test_subprocess_imports_this_checkout():
    out = subprocess.run([sys.executable, "-c", "import oscquad; print(oscquad.__file__)"],
                         capture_output=True, text=True, check=True).stdout
    assert Path(out.strip()).parent == Path(__file__).resolve().parent.parent / "src" / "oscquad"
'''


def test_subprocesses_import_the_measured_checkout(tmp_path):
    # The tests' own subprocesses (python -m oscquad among them) import the
    # package under --root, ahead of one that PYTHONPATH already names.
    package = tmp_path / "src" / "oscquad"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sub.py").write_text(SUBPROCESS_TEST)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, str(TOOL), "--root", str(tmp_path), "--", "-q", "-p", "no:cacheprovider"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 of 0 statements of src/oscquad never executed (pytest exit code 0)"

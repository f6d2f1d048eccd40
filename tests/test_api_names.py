"""tools/api_names.py: the public names of a package written to a temporary
directory, with their signatures."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "api_names.py"

FILES = {
    "__init__.py": 'from .one import C, f\n\n__all__ = ["f", "C", "VERSION"]\nVERSION = "1"\n',
    "one.py": (
        '__all__ = ["f", "C"]\n\n\n'
        "def f(x, y: int = 2) -> int:\n    return x + y\n\n\n"
        "class C:\n    def __init__(self, a):\n        self.a = a\n"
    ),
    "_kept.py": '__all__ = ["g"]\n\n\ndef g(*args):\n    return args\n',
    # Neither a module without __all__ nor the entry point prints a line; the
    # entry point is not imported.
    "two.py": "def h():\n    pass\n",
    "__main__.py": 'raise SystemExit("the entry point was imported")\n',
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("api_names", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_of_a_package(tmp_path):
    package = tmp_path / "src" / "oscquad"
    package.mkdir(parents=True)
    for name, text in FILES.items():
        (package / name).write_text(text)
    # In a process of its own: this one has already imported the package.
    out = subprocess.run([sys.executable, str(TOOL), "--root", str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "oscquad.f(x, y: int = 2) -> int",
        "oscquad.C(a)",
        "oscquad.VERSION",
        "oscquad._kept.g(*args)",
        "oscquad.one.f(x, y: int = 2) -> int",
        "oscquad.one.C(a)",
    ]


def test_missing_package_is_refused(tool, tmp_path):
    with pytest.raises(SystemExit, match="no src/oscquad"):
        tool.api_lines(tmp_path)

"""Print the public names of the oscquad package with their signatures.

From the root of a checkout of the repository:

    python3 tools/api_names.py --root PATH

imports the oscquad package under ``PATH/src`` (default: this checkout) and
prints one line per name in ``oscquad.__all__`` and in the ``__all__`` of
each of its modules, in module order: the dotted name, followed by its
``inspect.signature`` where the name has one (functions and classes).  A
``diff -u`` of two checkouts' printouts shows every public name that a change
adds, removes or re-signs.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
PACKAGE = "oscquad"


def _line(module_name: str, name: str, obj) -> str:
    try:
        return f"{module_name}.{name}{inspect.signature(obj)}"
    except (TypeError, ValueError):
        return f"{module_name}.{name}"


def api_lines(root: Path) -> list:
    """The printout's lines for the package under ``root/src``."""
    if not (root / "src" / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"no src/{PACKAGE}/__init__.py under {root}")
    sys.path.insert(0, str(root / "src"))
    package = importlib.import_module(PACKAGE)
    # The command-line entry point is not a module of names.
    names = [PACKAGE] + [f"{PACKAGE}.{info.name}" for info in pkgutil.iter_modules(package.__path__)
                         if info.name != "__main__"]
    lines = []
    for module_name in names:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            lines.append(_line(module_name, name, getattr(module, name)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE, help=f"checkout holding src/{PACKAGE} (default: this one)")
    args = parser.parse_args(argv)
    print("\n".join(api_lines(args.root.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

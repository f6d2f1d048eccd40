"""Package metadata, the names the benchmark tracer binds, and the modules a
fresh process loads."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscquad

ROOT = Path(__file__).resolve().parent.parent


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert oscquad.__version__ == meta["project"]["version"]


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps every name in TARGETS; a renamed or deleted
    # function would make every traced benchmark run fail to install.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, names in tracer.TARGETS.values():
        module = importlib.import_module(modname)
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                found = attr in vars(getattr(module, cls_name, object))
            else:
                found = hasattr(module, name)
            if not found:
                missing.append(f"{modname}.{name}")
    assert not missing


def test_submodule_all_names_resolve():
    # A stale __all__ entry makes ``from oscquad.<module> import *`` fail.
    import pkgutil

    missing = []
    for info in pkgutil.iter_modules(oscquad.__path__):
        module = importlib.import_module(f"oscquad.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    missing += [name for name in oscquad.__all__ if not hasattr(oscquad, name)]
    missing += [name for name in oscquad.__all__ if name not in dir(oscquad)]
    assert not missing


# Records the modules of the package whose bodies run, by the "exec" audit
# event that importing a module raises, and prints them when the case ends.
_RAN_PRELUDE = """
import atexit, json, sys
from pathlib import Path

ran = set()

def _record(event, args):
    if event == "exec" and Path(getattr(args[0], "co_filename", "")).parent.name == "oscquad":
        ran.add(Path(args[0].co_filename).stem)

sys.addaudithook(_record)
atexit.register(lambda: print(json.dumps(sorted(ran))))
"""


def _modules_run(case: str) -> set:
    # The package modules whose bodies ran in a fresh interpreter that ran
    # ``case``.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(oscquad.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RAN_PRELUDE + case], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_physical_route_and_cli_eval_load_no_filon_or_baselines():
    ran = _modules_run(
        "import io\n"
        "import oscquad, oscquad.benchcli\n"
        "for pid in ('ex53a', 'ex53b'):\n"
        "    oscquad.compute(oscquad.builtin_problem(pid, 0.5, 100.0), oscquad.Method.LEVIN_PHYSICAL, 12, 0)\n"
        "argv = ['eval', '--problem', 'ex53b', '--alpha', '0.5', '--w', '100', '--n', '12',\n"
        "        '--method', 'levin-physical']\n"
        "assert oscquad.benchcli.run_command(argv, stdout=io.StringIO()) == 0\n"
    )
    assert {"__init__", "levin", "quadrature", "benchcli"} <= ran
    assert not {"filon", "baselines"} & ran


def test_frequency_route_loads_filon_alone():
    ran = _modules_run(
        "import oscquad\n"
        "oscquad.compute(oscquad.builtin_problem('ex51', 0.5, 100.0), oscquad.Method.LEVIN_FREQ, 8, 1)\n"
    )
    assert "filon" in ran and "baselines" not in ran


@pytest.mark.parametrize("case, loads", [
    pytest.param("from oscquad import *\n"
                 "import oscquad\n"
                 "assert quad_filon is oscquad.filon.quad_filon\n"
                 "assert reference_oracle is oscquad.baselines.reference_oracle\n",
                 {"filon", "baselines"}, id="star-import"),
    pytest.param("import oscquad\n"
                 "assert set(oscquad.__all__) | {'filon', 'baselines'} <= set(dir(oscquad))\n",
                 set(), id="dir"),
    pytest.param("import oscquad\n"
                 "assert oscquad.baselines.ORACLE_PHASE_CAP == 2.0e4\n",
                 {"baselines"}, id="module-constant"),
])
def test_lazy_names_resolve(case, loads):
    # Each as a process's first touch of the package; dir() lists the
    # re-exported names without loading their modules.
    assert _modules_run(case) & {"filon", "baselines"} == loads

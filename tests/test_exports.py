import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quantakit
from quantakit.cli import main

MODULES = ["quantakit"] + [
    f"quantakit.{m.name}" for m in pkgutil.iter_modules(quantakit.__path__)
]
ON_FIRST_USE = ("checks", "circuitgen")
SRC = Path(quantakit.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
TRACING = SRC.parent / "perfbench" / "tracing.py"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _fresh(program: str) -> str:
    """Run ``program`` in a fresh interpreter that imports this quantakit;
    return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_after(program: str) -> list[str]:
    """Which of the modules loaded on first use a fresh interpreter holds after ``program``."""
    probe = "\nimport sys\nprint(*[n for n in %r if 'quantakit.' + n in sys.modules])" % (ON_FIRST_USE,)
    return _fresh(program + probe).split()


@pytest.mark.parametrize("program", ["import quantakit", "import quantakit.cli"])
def test_importing_loads_neither_checks_nor_circuitgen(program):
    assert _loaded_after(program) == []


@pytest.fixture(scope="module")
def perm4_qasm(tmp_path_factory):
    path = tmp_path_factory.mktemp("qasm") / "perm4.qasm"
    assert main(["synth", "--matrix-file", str(DATA / "perm4.mat"), "--qasm", str(path), "--out", os.devnull]) == 0
    return path


@pytest.mark.parametrize("argv, loaded", [
    (["run", "--step", "bell", "--input", "([0,1],0)"], []),
    (["matrix", "--step", "cnot", "--maxlen", "2"], []),
    (["complement", str(DATA / "xor.tbl"), "--matrices"], []),
    (["synth", "--maxlen", "pinned16", "--step", "cnot"], ["circuitgen"]),
    (["simulate", "PERM4", "0000"], ["circuitgen"]),
    (["check", "gates"], ["checks"]),
    (["check", "circuitgen"], ["checks", "circuitgen"]),
], ids=["run", "matrix", "complement", "synth", "simulate", "check", "check-circuitgen"])
def test_a_command_loads_only_what_it_uses(perm4_qasm, argv, loaded):
    argv = [str(perm4_qasm) if a == "PERM4" else a for a in argv] + ["--out", os.devnull]
    assert _loaded_after(f"from quantakit.cli import main\nassert main({argv!r}) == 0") == loaded


def test_the_package_resolves_every_name_in_all_and_lists_its_submodules():
    program = """
import quantakit
names = dir(quantakit)
print(all(n in names for n in ("checks", "circuitgen")))
print(all(getattr(quantakit, n) is not None for n in quantakit.__all__))
print(quantakit.checks is __import__("sys").modules["quantakit.checks"])
try:
    quantakit.nosuch
except AttributeError as exc:
    print(exc)
"""
    assert _fresh(program).splitlines() == [
        "True", "True", "True", "module 'quantakit' has no attribute 'nosuch'"]


def test_a_star_import_binds_every_name_in_all():
    program = "from quantakit import *\nimport quantakit\nprint(all(globals()[n] is getattr(quantakit, n) for n in quantakit.__all__))"
    assert _fresh(program) == "True\n"


@pytest.mark.skipif(not TRACING.exists(), reason="no perfbench/tracing.py beside src/: a tree of the package and its tests only")
def test_a_tracer_installed_before_the_lazy_modules_load_restores_every_name():
    """perfbench's tracer rebinds each traced function in every loaded
    ``quantakit`` module, loading ``checks`` and ``circuitgen`` on the way.
    A module loaded meanwhile must not keep a wrapped binding once the
    tracer is uninstalled: ``checks`` calls ``relalg.product_basis`` through
    its module for this reason."""
    program = f"""
import sys, types
sys.path.insert(0, {str(TRACING.parent)!r})
import quantakit.cli, tracing
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
for n, m in list(sys.modules.items()):
    if n == "quantakit" or n.startswith("quantakit."):
        for k, v in vars(m).items():
            if isinstance(v, types.FunctionType) and v.__module__.startswith("quantakit."):
                if getattr(sys.modules[v.__module__], v.__name__, None) is not v:
                    print(n + "." + k)
"""
    assert _fresh(program) == ""

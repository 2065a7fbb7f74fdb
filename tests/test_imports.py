"""The import graph and the package surface, checked in fresh interpreters.

Every module imports on its own, so no import cycle hides behind the order
in which the package imports them, and the runtime stays numpy-only.
`python -m logcoef` runs the command line, `__all__` lists every public
name, every public function or class that it does not list has a use in
the package or a demo, only `cli.main` touches the garbage collector, the
version matches pyproject.toml, and every name the benchmark's span tracer
wraps still exists.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logcoef
from logcoef.catalog import AnalyticFunction
from logcoef.classes import membership_test
from logcoef.cli import main

PACKAGE = Path(logcoef.__file__).resolve().parent
# __main__ runs the command line when imported.
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))


def run(*argv: str) -> str:
    """stdout of `python *argv` in a fresh interpreter that imports this copy of logcoef."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    run("-c", f"import logcoef.{module}")


def test_package_loads_only_the_standard_library_and_numpy():
    loaded = run(
        "-c",
        "import sys\n"
        "before = set(sys.modules)\n"
        "import logcoef\n"
        "print(*sorted(set(sys.modules) - before))\n"
    ).split()
    tops = {name.partition(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) == {"logcoef", "numpy"}
    # Loading numpy.polynomial slows every command's start-up, which is why
    # catalog._GL_NODES and _GL_WEIGHTS hold the rule as literals, not leggauss.
    assert not [name for name in loaded if (name + ".").startswith("numpy.polynomial.")]


def test_scan_does_not_load_numpy_random():
    # The scan draws its own SplitMix64 stream; numpy.random would cost the
    # command more start-up time than the scan itself takes.
    loaded = run(
        "-c",
        "import sys\n"
        "from logcoef import cli\n"
        "assert cli.main(['search', '--class', 'S', '--samples', '1000']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    ).split()
    assert loaded[-1] == "False"


def test_main_module_runs_the_command_line(capsys):
    assert main(["bounds", "--class", "S"]) == 0
    assert run("-m", "logcoef", "bounds", "--class", "S") == capsys.readouterr().out


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(logcoef).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(logcoef.__all__) == sorted(public)


def test_public_names_outside_all_are_used():
    # A public function or class that the package does not export must have a
    # use in the package or a demo besides its definition: one that only the
    # tests call keeps code alive that no user of the package runs.
    root = PACKAGE.parent.parent
    files = (*PACKAGE.glob("*.py"), *root.glob("demos/*.py"))
    texts = [p.read_text(encoding="utf-8") for p in files]
    unused = []
    for module in MODULES:
        namespace = importlib.import_module(f"logcoef.{module}")
        for name, value in vars(namespace).items():
            if name.startswith("_") or name in logcoef.__all__:
                continue
            if not (inspect.isfunction(value) or inspect.isclass(value)):
                continue
            if value.__module__ != namespace.__name__:
                continue  # imported, and checked where it is defined
            if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts) < 2:
                unused.append(f"{module}.{name}")
    assert not unused


def test_only_cli_main_touches_the_collector():
    # A library import must never freeze or disable its caller's collector:
    # `cli` imports gc, and only `main` calls it, around one command.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}

    def imports_gc(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "gc"
        return isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)

    users = sorted(m for m, tree in trees.items() if any(map(imports_gc, ast.walk(tree))))
    assert users == ["cli"]
    cli = trees["cli"]
    (main_def,) = (n for n in cli.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    inside = {id(n) for n in ast.walk(main_def)}
    uses = [n for n in ast.walk(cli) if isinstance(n, ast.Name) and n.id == "gc"]
    assert uses
    assert all(id(n) in inside for n in uses)


def test_version_matches_pyproject():
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert logcoef.__version__ == re.search(r'^version = "([^"]+)"$', text, re.M).group(1)


@pytest.fixture
def tracer(monkeypatch):
    """bench/tracer.py, imported through sys.path without writing its bytecode."""
    monkeypatch.syspath_prepend(str(PACKAGE.parent.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    yield importlib.import_module("tracer")
    sys.modules.pop("tracer", None)


def test_benchmark_tracer_targets_resolve(tracer):
    # bench/tracer.py wraps these names for traced runs; a rename would break
    # `bench/run.py --trace 1` without failing any other test.
    for modname, attr_path, _, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for part in attr_path.split("."):
            # vars, not getattr: every class has a __call__ through its metaclass.
            assert part in vars(owner), f"{modname}.{attr_path}"
            owner = vars(owner)[part]
        assert callable(owner), f"{modname}.{attr_path}"
    # The membership hook binds f, radii and angular and reads f.evaluator.
    assert {"f", "radii", "angular"} <= set(inspect.signature(membership_test).parameters)
    assert "evaluator" in {field.name for field in dataclasses.fields(AnalyticFunction)}


def test_benchmark_tracer_installs_and_uninstalls(tracer):
    # Every target is wrapped where it is defined, and every wrapper, in
    # whichever module namespace holds the name, is undone afterwards.
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = {tracer._resolve(m, path) for m, path, _, _ in tracer.TARGETS}
        for owner, attr in wrapped:
            assert hasattr(getattr(owner, attr), "traced_original"), attr
        undo = list(t._undo)
        assert len(undo) >= len(tracer.TARGETS)
    finally:
        t.uninstall()
    assert not t._undo
    for holder, key, orig in undo:
        assert getattr(holder, key) is orig, key

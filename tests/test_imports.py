"""The import graph, checked in fresh interpreters.

Every module imports on its own, so no import cycle hides behind the order
in which the package imports them, and the runtime stays numpy-only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import logcoef

PACKAGE = Path(logcoef.__file__).resolve().parent
# __main__ runs the command line when imported.
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))


def run(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this copy of logcoef."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    run(f"import logcoef.{module}")


def test_package_loads_only_the_standard_library_and_numpy():
    loaded = run(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import logcoef\n"
        "print(*sorted(set(sys.modules) - before))\n"
    ).split()
    tops = {name.partition(".")[0] for name in loaded}
    assert tops - set(sys.stdlib_module_names) == {"logcoef", "numpy"}
    # Loading numpy.polynomial slows every command's start-up, which is why
    # catalog._gauss_legendre computes its rule by Golub-Welsch, not leggauss.
    assert not [name for name in loaded if (name + ".").startswith("numpy.polynomial.")]

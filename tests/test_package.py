"""The package's public surface: what ``from traintrack import *`` gives,
and what importing it loads."""
from __future__ import annotations

import os
import subprocess
import sys
from types import ModuleType

import pytest

import traintrack

# imports the command line, and with it the package, runs ``main`` on the
# child's arguments, and prints the exit code and whether NumPy was loaded
# as its last line
CHILD = """
import sys
from traintrack.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules)
"""


def test_all_lists_exactly_the_public_names():
    # every public name the package imports is in __all__, and every entry
    # of __all__ resolves; submodules are reached as attributes, not listed
    public = {name for name, value in vars(traintrack).items()
              if not name.startswith("_")
              and not isinstance(value, ModuleType)}
    assert sorted(traintrack.__all__) == sorted(public)
    assert len(set(traintrack.__all__)) == len(traintrack.__all__)
    for name in traintrack.__all__:
        assert getattr(traintrack, name) is not None, name


@pytest.mark.parametrize("argv, code, loads_numpy", [
    (["--help"], 0, False),
    (["--genus", "2", "--word", "b0"], 2, False),
    (["--genus", "two", "--word", "a1"], 2, False),
    (["--genus", "2", "--word", "-a1 d1 -c0 d0"], 0, True),
    (["--genus", "2", "--word", ""], 0, False),
    (["--genus", "2", "--word", "d0 c0 d1"], 0, False),
], ids=["help", "bad-token", "bad-genus", "ex2", "empty-word", "ex5"])
def test_numpy_loads_on_first_numeric_use(argv, code, loads_numpy):
    # this process has NumPy already, so only a fresh interpreter shows
    # a module-level import; the child finds the package where this process
    # found it.  ex2 computes its growth, so it must load NumPy; the empty
    # word (GrowthOne) and ex5 (Reducible) are decided on maps of few
    # letters, with Python ints
    src = os.path.dirname(os.path.dirname(traintrack.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{code} {loads_numpy}"

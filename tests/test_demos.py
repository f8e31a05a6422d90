"""Every demo script runs to completion against the current API."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import traintrack

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a temporary working directory, since demo 05 writes train_track.svg
    # there; the child finds the package where this process found it
    src = os.path.dirname(os.path.dirname(traintrack.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr

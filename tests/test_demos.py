"""Every demo script runs to completion and reports no failed check."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(path, tmp_path):
    # Demos that write reports put them under TMPDIR, and remove them.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "BAD" not in proc.stdout
    assert not list(tmp_path.glob("logcoef_demo_*"))

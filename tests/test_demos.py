"""Every demo script runs to completion, with numpy unavailable."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # Any ``import numpy`` raises ImportError in this interpreter.
    script = (
        "import runpy, sys\nsys.modules['numpy'] = None\n"
        f"runpy.run_path({str(demo)!r}, run_name='__main__')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr

"""Every demo script prints exactly its golden output.

The demos print LP weights, bound forms and hull geometry, so a changed
simplex pivot path or derivation shows up here as a diff. To refresh a
golden after an intended change, run the demo with PYTHONPATH=src and
write its stdout to tests/golden/<demo>.txt.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / f"{demo.stem}.txt"
    assert proc.stdout == golden.read_text(encoding="utf-8")

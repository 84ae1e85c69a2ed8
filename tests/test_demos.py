"""The demos that exercise the spectral toolbox, the potential solve, the full
flow against linear theory and the profile layer run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_spectral_toolbox.py", "02_potential_solve.py",
                                  "04_full_flow_vs_linear_theory.py",
                                  "05_profile_hierarchy.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

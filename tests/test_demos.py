"""Each demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 4


def run_demo(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # RuntimeWarnings are errors, as in the tests themselves.
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                             str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    run_demo(demo)


def test_artifact_demo_output_is_reproducible():
    # The demo writes into a fresh temporary directory each run and names
    # its artifacts relative to it, so two runs print the same text.
    demo = ROOT / "demos" / "03_simulate_diffusion.py"
    first = run_demo(demo)
    assert "wrote trajectories.npy" in first
    assert run_demo(demo) == first

"""Start-up footprint: a run imports numpy and scipy.linalg, and no other
scipy subpackage unless the experiment needs it."""

import os
import subprocess
import sys
from pathlib import Path

import graphspde

SRC = Path(graphspde.__file__).resolve().parents[1]

NOT_NEEDED = ("special", "integrate", "optimize", "sparse", "spatial", "fft",
              "constants", "stats")

SCRIPT = """
import sys
import graphspde.config
from graphspde.config import parse_config, run_experiment
cfg = parse_config({config!r})
status = run_experiment(cfg, {out!r})
loaded = sorted({{m.split(".")[1] for m in sys.modules
                  if m.startswith("scipy.")}})
print(status)
print(" ".join(loaded))
"""

ENERGY = """
experiment.kind = energy
space.preset = path_4
potential.kind = fast_diffusion
potential.theta = 0.3
noise.kind = diagonal
run.epsilon_list = 0.2, 0.1
run.horizon = 0.25
run.steps = 4
run.paths = 6
"""

NORMS = "experiment.kind = norms\nspace.preset = path_4\n"


def run_fresh(config: str, out: Path) -> tuple[int, set[str]]:
    script = SCRIPT.format(config=config, out=str(out))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    status, loaded = proc.stdout.splitlines()[-2:]
    return int(status), set(loaded.split())


def test_simulation_run_imports_no_unused_scipy_subpackage(tmp_path):
    status, loaded = run_fresh(ENERGY, tmp_path)
    assert status == 0
    assert "linalg" in loaded
    assert not loaded & set(NOT_NEEDED)


def test_quadrature_oracle_imports_scipy_special_on_first_use(tmp_path):
    # The norms experiment calls gamma_transform_quadrature.
    status, loaded = run_fresh(NORMS, tmp_path)
    assert status == 0
    assert "special" in loaded

"""Start-up footprint: a run imports numpy and scipy's compiled LAPACK
wrapper ``scipy.linalg._flapack`` without the ``scipy.linalg`` package (and
so without the ``numpy.f2py`` and ``numpy.testing`` that package pulls in),
and no other scipy subpackage unless the experiment needs it.  Importing
``scipy.linalg`` before or after graphspde leaves one wrapper module."""

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
print(status)
print(" ".join(sorted(sys.modules)))
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


def python(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return proc.stdout


def run_fresh(config: str, out: Path) -> tuple[int, set[str]]:
    status, modules = python(SCRIPT.format(config=config, out=str(out))
                             ).splitlines()[-2:]
    return int(status), set(modules.split())


def scipy_subpackages(modules: set[str]) -> set[str]:
    return {m.split(".")[1] for m in modules if m.startswith("scipy.")}


def test_simulation_run_imports_no_unused_scipy_subpackage(tmp_path):
    status, modules = run_fresh(ENERGY, tmp_path)
    assert status == 0
    assert "scipy.linalg._flapack" in modules
    assert not modules & {"scipy.linalg", "numpy.f2py", "numpy.testing"}
    assert not scipy_subpackages(modules) & set(NOT_NEEDED)


def test_quadrature_oracle_imports_scipy_special_on_first_use(tmp_path):
    # The norms experiment calls gamma_transform_quadrature.
    status, modules = run_fresh(NORMS, tmp_path)
    assert status == 0
    assert "special" in scipy_subpackages(modules)


def test_one_lapack_wrapper_in_either_import_order():
    for first, second in (("graphspde", "scipy.linalg"),
                          ("scipy.linalg", "graphspde")):
        out = python(f"import {first}\nimport {second}\n"
                     "import scipy.linalg.lapack, graphspde.engine\n"
                     "print(scipy.linalg.lapack.dptsv"
                     " is graphspde.engine.lapack.dptsv)\n")
        assert out.split() == ["True"], (first, second)

"""Monte Carlo integration of the regularized nonlinear diffusion.

Certifies the noise model's Lipschitz constant, runs a coupled ensemble with
the drift-implicit stepper, inspects solver diagnostics and the energy
budget, and writes the trajectory artifacts.

Run from the repository root:  python demos/03_simulate_diffusion.py
"""

import pathlib
import tempfile

import numpy as np

from graphspde import (
    SimulationConfig,
    certify_noise,
    diagonal_noise,
    energy_budget,
    path_space,
    simulate_coupled,
    write_metadata,
    write_trajectories,
    zhang,
)


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


space = path_space(16)
noise = diagonal_noise(space.node_count, sigma=0.2)

banner("noise certification")
# The worst ratio over sampled state pairs and shifts: a lower bound of the
# Lipschitz constant in the shifted dual norms, which sets the default decay
# rate 2 L + 1 of the contraction and eps_convergence verdicts.
lipschitz = certify_noise(noise, space)
print("sampled Lipschitz constant:", lipschitz)
print("default decay rate:", 2.0 * lipschitz + 1.0)

banner("a coupled ensemble")
config = SimulationConfig(
    space=space, potential=zhang(), noise=noise, eps=0.1,
    horizon=1.0, step_count=64, path_count=100,
    initial=np.full(16, 0.5), seed=2024, coupling_tag="demo")
# The run and a second one at half the smoothing, stepped as one batch.
ensemble, other = simulate_coupled([config, config.with_eps(0.05)])
print("states shape (paths, times, nodes):", ensemble.states.shape)
print("worst implicit-solver residual:", ensemble.residuals.max())
print("mean Newton iterations per step:", ensemble.newton_iterations.mean())

banner("coupling: a second run at half the smoothing shares the noise")
print("increments identical:",
      np.array_equal(ensemble.increments, other.increments))
gap = space.dual_norm(ensemble.states - other.states).max()
print("largest pathwise dual-norm gap between the runs:", gap)

banner("energy budget")
report = energy_budget(ensemble)
print(report.to_text())

banner("artifacts")
with tempfile.TemporaryDirectory(prefix="graphspde_demo_") as tmp:
    out = pathlib.Path(tmp)
    write_trajectories(ensemble, out / "trajectories.npy")
    write_metadata(ensemble, out / "trajectories.meta")
    for path in sorted(out.iterdir()):
        print("wrote", path.relative_to(out))
    print("dump shape (paths, times, nodes):",
          np.load(out / "trajectories.npy", allow_pickle=False).shape)
    print("sidecar head:")
    print("\n".join((out / "trajectories.meta").read_text().splitlines()[:6]))

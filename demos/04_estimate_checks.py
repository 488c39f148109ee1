"""The estimate experiments on coupled Monte Carlo runs.

Runs the four quantitative checks at desk scale: contraction of initial
conditions in the dual norm, gap decay across smoothing levels, budget
uniformity, and the variational inequality against three test processes.

Run from the repository root:  python demos/04_estimate_checks.py
"""

import numpy as np

from graphspde import (
    EnergyFunctional,
    SimulationConfig,
    build_test_process,
    check_svi,
    contraction_experiment,
    default_decay_rate,
    diagonal_noise,
    epsilon_convergence,
    mollify_sequence,
    path_space,
    regularity_budget,
    regularity_uniformity,
    simulate_coupled,
    zhang,
)


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


space = path_space(16)
noise = diagonal_noise(16, sigma=0.2)
config = SimulationConfig(
    space=space, potential=zhang(), noise=noise, eps=0.1,
    horizon=1.0, step_count=64, path_count=200,
    initial=np.full(16, 0.5), seed=99, coupling_tag="demo4")
# Twice the certified Lipschitz constant of the noise plus one; certified
# once here and shared by both experiments.
rate = default_decay_rate(config)
# One coupled run per smoothing level, and one more from a shifted initial
# state, stepped as one batch and shared by every check below; the run at
# eps 0.1 is the config's own.
direction = np.ones(16) / space.dual_norm(np.ones(16))
*ladder, shifted = simulate_coupled(
    [config.with_eps(eps) for eps in (0.2, 0.1, 0.05, 0.025)]
    + [config.with_initial(config.initial + direction)])
ensemble = ladder[1]
functional = EnergyFunctional(space, zhang())

banner("contraction of initial conditions")
report = contraction_experiment(ensemble, shifted, decay_rate=rate)
print(report.to_text())

banner("gap decay across smoothing levels")
report = epsilon_convergence(ladder, decay_rate=rate)
print(report.to_text())
print("per-pair gaps:")
for row in report.series:
    print("  pair", row[0], "gap", row[1])

banner("regularity budget uniformity")
print(regularity_uniformity([regularity_budget(ens, functional)
                             for ens in ladder[:3]]).to_text())

banner("variational inequality against three test processes")
for tag, drift, start in (("no drift", None, np.zeros(16)),
                          ("constant drift", np.full(16, 0.1), np.zeros(16)),
                          ("replayed drift", ensemble, config.initial)):
    proc = build_test_process(ensemble, start, drift=drift)
    (rep,) = check_svi(ensemble, [proc], functional)
    print(f"{tag:15s}: passed = {rep.passed}, fitted constant = "
          f"{rep.constants['fitted_constant']:.4g}")

banner("mollification of the functional")
v = space.gamma_transform(3.0, np.random.default_rng(5).standard_normal(16))
seq = mollify_sequence(functional, v, n_max=64)
print("value at the state:", seq.value_at_state)
print("mollified values (orders 1, 2, 4, 8, ..., 64):",
      [round(float(seq.values[n - 1]), 6) for n in (1, 2, 4, 8, 16, 32, 64)])
print("dual-norm gaps:", [round(float(seq.dual_gaps[n - 1]), 6)
                          for n in (1, 4, 16, 64)])

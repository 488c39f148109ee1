"""Stochastic nonlinear diffusion on finite graph Dirichlet spaces.

The package builds transient Dirichlet spaces on weighted graphs, convex
potentials with exact Moreau-Yosida smoothing, a semi-implicit Monte Carlo
integrator for the regularized diffusion with coupled noise, and the
estimate experiments that verify the quantitative behavior: contraction of
initial conditions, gap decay across smoothing levels, energy and
regularity budgets, and the variational inequality against test processes.
"""

__version__ = "0.1.0"

from .dirichlet import (
    BernsteinFunction,
    DirichletSpace,
    SpaceError,
    build_graph_space,
    check_space_invariants,
    complete_space,
    gamma_transform_quadrature,
    path_space,
    single_node_space,
    subordinate,
)
from .engine import (
    SimulationConfig,
    StepSolverError,
    TrajectoryEnsemble,
    energy_budget,
    simulate,
    simulate_coupled,
    write_metadata,
    write_trajectories,
)
from .estimates import (
    EnergyFunctional,
    TestProcess,
    build_test_process,
    check_svi,
    contraction_experiment,
    default_decay_rate,
    energy_uniformity,
    epsilon_convergence,
    mollify_sequence,
    pairwise_smoothing_gap,
    regularity_budget,
    regularity_uniformity,
)
from .monotone import (
    ConvexPotential,
    CrossMonotonicityDefect,
    MoreauYosida,
    ResolventError,
    check_assumptions,
    cross_monotonicity_defect,
    fast_diffusion,
    piecewise_quadratic,
    porous_medium,
    zhang,
)
from .noise import (
    NoiseModel,
    additive_noise,
    brownian_increments,
    certify_noise,
    diagonal_noise,
    eigenmode_noise,
)
from .reports import CheckResult, EstimateReport, batch_mean_ci

__all__ = [name for name in dir() if not name.startswith("_")]

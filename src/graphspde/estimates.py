"""Estimate experiments for the regularized diffusion.

This module houses the integrated convex functional of a state, its
smoothed version, semigroup mollification, admissible test processes, and
the quantitative checks: the variational inequality against test processes,
initial-condition contraction in the dual norm, the pairwise gap between
smoothing levels, and the time-integrated regularity budget.  The checks
read ensembles that were already simulated and never run the simulator
themselves.  Every Monte Carlo verdict uses path-batch confidence
intervals; supremum-in-time quantities are taken over the simulation grid,
a lower bound for the continuum supremum.  The variational-inequality
check and the replayed drift of a test process work over blocks of
consecutive paths, each over its whole time axis, so their (paths, steps,
nodes) temporaries hold one block at a time, never a whole run, and their
results do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import DirichletSpace
from .engine import SimulationConfig, TrajectoryEnsemble, _coupled
from .monotone import ConvexPotential, MoreauYosida
from .noise import certify_noise
from .reports import (
    CI_Z,
    EstimateReport,
    _batch_bounds,
    _implied_constant_report,
    batch_mean_ci,
)

__all__ = [
    "EnergyFunctional",
    "MollifiedSequence",
    "TestProcess",
    "mollify_sequence",
    "build_test_process",
    "default_decay_rate",
    "check_svi",
    "contraction_experiment",
    "pairwise_smoothing_gap",
    "epsilon_convergence",
    "regularity_budget",
    "energy_uniformity",
    "regularity_uniformity",
]


@dataclass(frozen=True, eq=False)
class EnergyFunctional:
    """Integral of a convex potential against the node measure."""

    space: DirichletSpace
    potential: ConvexPotential

    def value(self, v) -> np.ndarray:
        """Integrated potential; zero at zero and nonnegative."""
        return self.potential.value(v) @ self.space.measure

    def smoothed(self, eps: float, v) -> np.ndarray:
        """Integrated envelope at smoothing ``eps``; never above ``value``."""
        return MoreauYosida(self.potential, eps).envelope(v) @ self.space.measure


@dataclass(frozen=True, eq=False)
class MollifiedSequence:
    """Semigroup mollification ladder of one state."""

    orders: np.ndarray       # 1..n_max
    states: np.ndarray       # (n_max, nodes), order n holds P_{1/n} v
    values: np.ndarray       # functional at each mollified state
    value_at_state: float
    dual_gaps: np.ndarray    # dual-norm distance of each mollification to v


def mollify_sequence(functional: EnergyFunctional, v,
                     n_max: int = 64) -> MollifiedSequence:
    """Mollify a state through the semigroup at times 1/n.

    The integrated potential never increases under mollification and climbs
    back to its value at the state as the order grows, while the mollified
    states converge in the dual norm.
    """
    if n_max < 1:
        raise ValueError("need at least one mollification order")
    space = functional.space
    v = np.asarray(v, dtype=float)
    orders = np.arange(1, n_max + 1)
    c = space.to_spectral(v)
    decay = np.exp(-np.outer(1.0 / orders, space.eigenvalues))
    states = space.from_spectral(decay * c)
    values = functional.value(states)
    gaps = space.dual_norm(states - v)
    return MollifiedSequence(orders, states, values,
                             float(functional.value(v)), gaps)


# -- test processes ------------------------------------------------------------

# Float64 values of a (block, steps, nodes) temporary of the svi estimators
# (256 KiB), or of one path when that holds more: they work over blocks of
# paths, not over whole runs.
_BLOCK_VALUES = 2**15


def _path_blocks(paths: int, rows: int, nodes: int):
    # Consecutive (start, stop) path ranges of about _BLOCK_VALUES values
    # of (rows, nodes) per path, at least one path per block.  Paths are
    # independent, so a block is every path's own whole-run arithmetic.
    size = max(1, _BLOCK_VALUES // (rows * nodes))
    return ((a, min(a + size, paths)) for a in range(0, paths, size))


@dataclass(frozen=True, eq=False)
class TestProcess:
    """Adapted process driven by the same increments as a coupled run.

    The path solves ``Z_{k+1} = Z_k + dt G_k + B(Z_k) dW_k`` with the
    increments of the reference ensemble, so comparisons against the run
    are exact in the noise.  A constant drift is a read-only broadcast
    view of its node vector, not a copy per path and step.
    """

    ensemble: TrajectoryEnsemble
    drift: np.ndarray | None     # (paths, steps, nodes) or None for zero
    states: np.ndarray           # (paths, steps + 1, nodes)
    mode: str


def build_test_process(ensemble: TrajectoryEnsemble, initial,
                       drift=None) -> TestProcess:
    """Integrate a test process on the grid of a reference run.

    ``drift`` selects the deterministic part: ``None`` for no drift, a
    node-indexed array for a constant drift density, or a second ensemble
    whose implicit drift is replayed; the latter reproduces that ensemble's
    own states up to the accumulated solver tolerance.  The noise is the
    ensemble's own, driven by its increments.
    """
    cfg = ensemble.config
    space, noise = cfg.space, cfg.noise
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (space.node_count,):
        raise ValueError("initial state must be node-indexed")

    P, N, _ = ensemble.increments.shape
    if drift is None:
        G = None
        mode = "zero"
    elif isinstance(drift, TrajectoryEnsemble):
        other = drift.config
        if not _coupled(other, cfg):
            raise ValueError("drift ensemble is not coupled to the reference")
        smoother = MoreauYosida(other.potential, other.eps)
        generator_t = other.space.generator.T
        G = np.empty((P, N, space.node_count))
        for a, b in _path_blocks(P, N, space.node_count):
            post = drift.states[a:b, 1:]  # drift is implicit in the next state
            w = smoother.yosida(post)
            w += other.eps * post
            np.matmul(w, generator_t, out=G[a:b])
        mode = "from_regularized"
    else:
        g = np.array(drift, dtype=float)
        if g.shape != (space.node_count,):
            raise ValueError("constant drift must be node-indexed")
        G = np.broadcast_to(g, (P, N, space.node_count))
        mode = "constant"

    dt = cfg.dt
    Z = np.empty((P, N + 1, space.node_count))
    Z[:, 0] = initial
    for k in range(N):
        inc = noise.apply(Z[:, k], ensemble.increments[:, k])
        Z[:, k + 1] = Z[:, k] + (0.0 if G is None else dt * G[:, k]) + inc
    return TestProcess(ensemble, G, Z, mode)


# -- experiment helpers -----------------------------------------------------------


def default_decay_rate(config: SimulationConfig) -> float:
    """Exponential weight rate: twice the certified Lipschitz constant of
    the noise plus one, the rate that absorbs the noise difference term."""
    return 2.0 * certify_noise(config.noise, config.space) + 1.0


def _cum_trapz(f: np.ndarray, dt: float) -> np.ndarray:
    # Cumulative trapezoid along axis 1 from 0; the operation order of
    # scipy's cumulative_trapezoid, so the result is bitwise equal to it.
    steps = np.cumsum(dt * (f[:, 1:] + f[:, :-1]) / 2.0, axis=1)
    return np.concatenate([np.zeros((f.shape[0], 1)), steps], axis=1)


# -- the variational inequality -----------------------------------------------------


def check_svi(ensemble: TrajectoryEnsemble, tests) -> list[EstimateReport]:
    """Check the variational inequality of the run against each of the
    test processes ``tests``, one report each.

    The functional is the integral of the run's own potential against its
    space's measure.  Both sides are evaluated at every grid time with
    trapezoid quadrature for the time integrals and the transient dual norm
    for distances; the run's own integral is computed once for all test
    processes.  Each report carries the smallest constant that closes the
    inequality at all checkpoints, and the verdict uses that fitted
    constant with CI slack.
    """
    tests = list(tests)
    for test in tests:
        if test.ensemble is not ensemble and not _coupled(
                test.ensemble.config, ensemble.config):
            raise ValueError("test process is not coupled to the ensemble")
    cfg = ensemble.config
    functional = EnergyFunctional(cfg.space, cfg.potential)
    int_phi_x = _value_integral(functional, ensemble.states, cfg.dt)
    return [_svi_report(ensemble, test, functional, int_phi_x)
            for test in tests]


def _value_integral(functional, states, dt):
    # Cumulative time integral of the functional along each path.
    P, rows, n = states.shape
    values = np.empty((P, rows))
    for a, b in _path_blocks(P, rows, n):
        values[a:b] = functional.value(states[a:b])
    return _cum_trapz(values, dt)


def _svi_report(ensemble, test, functional, int_phi_x):
    cfg = ensemble.config
    space = cfg.space
    dt = cfg.dt
    X, Z = ensemble.states, test.states
    P, rows, n = X.shape
    dsq = np.empty((P, rows))
    pair = None if test.drift is None else np.empty((P, rows - 1))
    for a, b in _path_blocks(P, rows, n):
        diff = X[a:b] - Z[a:b]
        dsq[a:b] = space.dual_norm(diff) ** 2
        if pair is not None:
            mid = 0.5 * (diff[:, :-1] + diff[:, 1:])
            pair[a:b] = space.dual_inner(test.drift[a:b], mid)
    int_phi_z = _value_integral(functional, Z, dt)
    int_dsq = _cum_trapz(dsq, dt)

    if pair is None:
        int_pair = np.zeros_like(dsq)
    else:
        int_pair = np.concatenate(
            [np.zeros((P, 1)), dt * np.cumsum(pair, axis=1)], axis=1)

    lhs = dsq + 2.0 * int_phi_x
    rhs_free = dsq[:, :1] + 2.0 * int_phi_z - 2.0 * int_pair

    mean_lhs = lhs.mean(axis=0)
    mean_rhs_free = rhs_free.mean(axis=0)
    mean_int = int_dsq.mean(axis=0)
    need = mean_lhs - mean_rhs_free
    usable = mean_int > 1e-14
    fitted = float(np.max(need[usable] / mean_int[usable], initial=0.0))
    if np.any(~usable & (need > 1e-10 * (1.0 + np.abs(mean_lhs)))):
        fitted = np.inf

    margin_samples = rhs_free + fitted * int_dsq - lhs
    margin, ci = batch_mean_ci(margin_samples)
    adjusted = margin + ci + 1e-10 * (1.0 + np.abs(mean_lhs))
    passed = bool(np.isfinite(fitted) and np.all(adjusted >= 0.0))

    times = ensemble.times
    series = tuple(
        (float(times[k]), float(mean_lhs[k]),
         float(mean_rhs_free[k] + fitted * mean_int[k]),
         float(margin[k]), float(ci[k]))
        for k in range(times.size))
    return EstimateReport(
        name="svi_inequality",
        passed=passed,
        worst_margin=float(np.min(adjusted)),
        # The report keeps the verdict's constant under its own key.
        constants={"fitted_constant": fitted, "used_constant": fitted,
                   "eps": cfg.eps},
        columns=("time", "lhs", "rhs", "margin", "ci"),
        series=series,
        notes=(f"test process mode = {test.mode}",),
    )


# -- contraction -----------------------------------------------------------------


def contraction_experiment(ens_x: TrajectoryEnsemble, ens_y: TrajectoryEnsemble,
                           decay_rate: float | None = None) -> EstimateReport:
    """Compare two coupled runs started from different states.

    Estimates, at every grid time, the exponentially weighted mean squared
    dual distance relative to the squared dual distance of the initial
    states, and asserts the grid supremum stays at or below two with CI
    slack.  ``decay_rate`` defaults to ``default_decay_rate`` of the first
    run's config.
    """
    config = ens_x.config
    if not _coupled(config, ens_y.config):
        raise ValueError("the two runs are not coupled")
    if decay_rate is None:
        decay_rate = default_decay_rate(config)
    space = config.space
    denom = float(space.dual_norm(config.initial - ens_y.config.initial) ** 2)

    times = config.times
    if denom == 0.0:
        identical = bool(np.array_equal(ens_x.states, ens_y.states))
        return EstimateReport(
            name="contraction",
            passed=identical,
            worst_margin=0.0 if identical else -np.inf,
            constants={"decay_rate": decay_rate, "initial_gap_sq": 0.0},
            notes=("degenerate case: identical initial states",),
        )

    dsq = space.dual_norm(ens_x.states - ens_y.states) ** 2
    weighted = np.exp(-decay_rate * times) * dsq / denom   # (P, K+1)
    ratio, ci = batch_mean_ci(weighted)
    margin = 2.0 + ci - ratio
    passed = bool(np.all(margin >= -1e-10))
    series = tuple((float(times[k]), float(ratio[k]), float(ci[k]))
                   for k in range(times.size))
    return EstimateReport(
        name="contraction",
        passed=passed,
        worst_margin=float(margin.min()),
        constants={"decay_rate": decay_rate,
                   "sup_ratio": float(ratio.max()),
                   "initial_gap_sq": denom},
        columns=("time", "ratio", "ci"),
        series=series,
    )


# -- smoothing-level convergence ----------------------------------------------------


def pairwise_smoothing_gap(ens_a: TrajectoryEnsemble, ens_b: TrajectoryEnsemble,
                           decay_rate: float) -> np.ndarray:
    """Per-path supremum over the grid of the weighted squared dual distance
    between two coupled runs at different smoothing levels."""
    if not _coupled(ens_a.config, ens_b.config):
        raise ValueError("the two smoothing levels are not coupled")
    space = ens_a.config.space
    dsq = space.dual_norm(ens_a.states - ens_b.states) ** 2
    weights = np.exp(-decay_rate * ens_a.times)
    return (weights * dsq).max(axis=1)


def epsilon_convergence(ensembles,
                        decay_rate: float | None = None) -> EstimateReport:
    """Gap decay across a sequence of coupled runs at descending smoothing.

    For consecutive pairs the expected weighted supremum gap is estimated
    on coupled noise; the report fits the log-log slope of the gap against
    the sum of the pair and passes when the gaps decrease strictly and the
    slope is at least 0.8 within the CI.  The levels are the runs'
    ``config.eps``; ``decay_rate`` defaults to ``default_decay_rate`` of the
    first run's config.
    """
    if len(ensembles) < 3:
        # Two levels give one pair, and a slope through one point.
        raise ValueError("need at least three smoothing levels")
    config = ensembles[0].config
    if config.potential.slope_bound is None:
        raise ValueError(
            "the smoothing-gap comparison needs a linear minimal-section "
            "bound, which this potential kind does not have")
    eps_list = [e.config.eps for e in ensembles]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("smoothing levels must be strictly decreasing")
    if decay_rate is None:
        decay_rate = default_decay_rate(config)

    pairs = list(zip(eps_list[:-1], eps_list[1:]))
    samples = [pairwise_smoothing_gap(a, b, decay_rate)
               for a, b in zip(ensembles[:-1], ensembles[1:])]
    gaps = np.array([s.mean() for s in samples])
    cis = np.array([batch_mean_ci(s)[1] for s in samples])

    x = np.log([a + b for a, b in pairs])
    y = np.log(gaps)
    slope = float(np.polyfit(x, y, 1)[0])

    # CI of the slope through the path batches of ``batch_mean_ci``
    bs = []
    for lo, hi in _batch_bounds(samples[0].shape[0]):
        means = np.array([s[lo:hi].mean() for s in samples])
        if np.all(means > 0):
            bs.append(np.polyfit(x, np.log(means), 1)[0])
    slope_ci = 0.0
    if len(bs) >= 2:
        slope_ci = CI_Z * np.std(bs, ddof=1) / np.sqrt(len(bs))

    decreasing = bool(np.all(np.diff(gaps) < 0))
    passed = decreasing and (slope + slope_ci >= 0.8)
    series = tuple(
        (f"{a:g}:{b_}", float(g), slope, float(c))
        for (a, b_), g, c in zip(pairs, gaps, cis))
    return EstimateReport(
        name="epsilon_convergence",
        passed=passed,
        worst_margin=float(slope + slope_ci - 0.8),
        constants={"slope": slope, "slope_ci": slope_ci,
                   "decay_rate": decay_rate,
                   "strictly_decreasing": decreasing},
        columns=("eps_pair", "D", "slope_fit", "ci"),
        series=series,
    )


# -- regularity budget ---------------------------------------------------------------


def regularity_budget(ensemble: TrajectoryEnsemble) -> EstimateReport:
    """Time integral of the smoothed functional of the run's own potential
    and space along the run, and the constant it implies against one plus
    the squared dual norm of the initial state."""
    cfg = ensemble.config
    functional = EnergyFunctional(cfg.space, cfg.potential)
    vals = functional.smoothed(cfg.eps, ensemble.states)     # (P, K+1)
    integral = np.trapezoid(vals, ensemble.times, axis=1)
    denom = float(cfg.space.dual_norm(cfg.initial) ** 2) + 1.0
    return _implied_constant_report("regularity_budget",
                                    (("budget", integral),), integral, denom,
                                    cfg.eps)


# -- uniformity over the smoothing ladder ----------------------------------------------


def _uniformity_report(kind: str, reports) -> EstimateReport:
    # Implied constants across the ladder must stay within a factor of two.
    if any(r.name != f"{kind}_budget" for r in reports):
        raise ValueError(f"{kind} uniformity needs {kind}_budget reports")
    band = 2.0
    constants = np.array([r.constants["implied_constant"] for r in reports])
    top, bottom = constants.max(), constants.min()
    ratio = float(top / bottom) if bottom > 0 else np.inf
    passed = bool(np.isfinite(ratio) and ratio <= band)
    series = tuple((float(r.constants["eps"]), float(c),
                    float(r.constants["implied_constant_ci"]))
                   for r, c in zip(reports, constants))
    return EstimateReport(
        name=f"{kind}_uniformity",
        passed=passed,
        worst_margin=float(band - ratio),
        constants={"band_ratio": ratio, "band": band},
        columns=("eps", "implied_constant", "ci"),
        series=series,
    )


def energy_uniformity(reports) -> EstimateReport:
    """Implied uniform-bound constants of the ``energy_budget`` reports of a
    smoothing ladder must stay inside a fixed multiplicative band."""
    return _uniformity_report("energy", reports)


def regularity_uniformity(reports) -> EstimateReport:
    """Implied constants of the ``regularity_budget`` reports of a
    smoothing ladder must stay inside a fixed multiplicative band."""
    return _uniformity_report("regularity", reports)

"""Monte Carlo integration of the regularized nonlinear diffusion.

One step solves the drift-implicit, noise-explicit system

    X+ - dt * L(slope_eps(X+) + eps * X+) = X + B(X) dW,

where ``slope_eps`` is the Yosida slope of the potential.  The map on the
left is strongly monotone in the dual-norm geometry (minus the generator is
positive definite and the smoothed slope plus ``eps`` times the identity is
strongly monotone), so the step is the gradient of a strongly convex
objective and a damped semismooth Newton iteration converges for any step
size.  With ``K`` minus the generator and ``d`` the slope derivative plus
``eps``, each Newton direction solves ``(1/d + dt K) z = -F`` and takes
``delta = z / d``; that system has the sparsity of the generator, so on
path graphs it is tridiagonal.  On dense generators a path whose ``d`` is
one number at every node is solved in the eigenbasis of the space, where
the system is diagonal, in O(n^2); the other paths take Jacobi-preconditioned
conjugate gradients, O(n^2) per iteration, whose iteration count does not
grow with the spread of ``d``.
Consecutive steps differ by one noise increment, so each step after the
first starts Newton from its right side plus the previous step's drift
increment, and a Newton-solved resolvent from the values it had at the
previous point.  Paths evolve independently and are solved as one batch.
Coupled runs (a smoothing ladder, a pair of initial states) share their
increments, so ``simulate_coupled`` steps all their paths as one batch
too, with one smoothing parameter per row.

The tridiagonal routines come from scipy's compiled LAPACK wrapper,
``scipy.linalg._flapack``, loaded without the ``scipy.linalg`` package,
whose import costs more than a small run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from .dirichlet import DirichletSpace
from .monotone import ConvexPotential, MoreauYosida
from .noise import NoiseModel, brownian_increments
from .reports import EstimateReport, _implied_constant_report, format_value

__all__ = [
    "SimulationConfig",
    "TrajectoryEnsemble",
    "StepSolverError",
    "simulate",
    "simulate_coupled",
    "energy_budget",
    "write_trajectories",
    "write_metadata",
]


# Newton stops once a row's residual is at most _SOLVER_TOL (1 + |rhs|) in
# the mu-norm, and fails after _MAX_NEWTON passes.
_SOLVER_TOL = 1e-10
_MAX_NEWTON = 100
# A dense Newton row's conjugate gradients stop once the preconditioned
# residual r.P^-1 r is at most _CG_TOL times b.P^-1 b, 1e-15 relative.
_CG_TOL = 1e-30

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack(directory: Path):
    """scipy's LAPACK wrapper module from ``directory``, without importing
    its parent package.  It is registered under its own name, so a later
    ``import scipy.linalg`` reuses this module object, and a registered one
    is reused here."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    spec = PathFinder.find_spec(_FLAPACK, [str(directory)])
    if spec is None:
        raise ImportError(f"cannot find {_FLAPACK} in {directory}",
                          name=_FLAPACK)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


lapack = _load_flapack(Path(scipy.__file__).parent / "linalg")


class StepSolverError(RuntimeError):
    """Implicit step failed to converge; message carries residual data."""


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Immutable description of one Monte Carlo run.

    Runs sharing ``coupling_tag`` (and seed, grid and mode count) consume
    bitwise-identical Brownian increments; the smoothing parameter is not
    part of the derivation, which is what makes paired-smoothing
    comparisons exact.
    """

    space: DirichletSpace
    potential: ConvexPotential
    noise: NoiseModel
    eps: float
    horizon: float
    step_count: int
    path_count: int
    initial: np.ndarray
    seed: int = 0
    coupling_tag: str = "default"

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        if self.step_count < 1 or self.path_count < 1:
            raise ValueError("need at least one step and one path")
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (self.space.node_count,):
            raise ValueError("initial state must be node-indexed")
        if not np.all(np.isfinite(initial)):
            raise ValueError("initial state must be finite")
        object.__setattr__(self, "initial", initial)

    @property
    def dt(self) -> float:
        return self.horizon / self.step_count

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.step_count + 1)

    def with_eps(self, eps: float) -> "SimulationConfig":
        return replace(self, eps=eps)

    def with_initial(self, initial) -> "SimulationConfig":
        return replace(self, initial=np.asarray(initial, dtype=float))


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """States, realized increments and solver diagnostics of one run."""

    config: SimulationConfig
    states: np.ndarray        # (paths, steps + 1, nodes)
    increments: np.ndarray    # (paths, steps, modes)
    residuals: np.ndarray     # (paths, steps)
    newton_iterations: np.ndarray  # (paths, steps)

    @property
    def times(self) -> np.ndarray:
        return self.config.times

    def __post_init__(self):
        if not np.all(np.isfinite(self.states)):
            raise StepSolverError("non-finite states in ensemble")
        for name in ("states", "increments", "residuals", "newton_iterations"):
            getattr(self, name).setflags(write=False)


def _off_diagonal(band: np.ndarray) -> np.ndarray:
    # An order-m tridiagonal system has m - 1 off-diagonal entries, but the
    # LAPACK wrappers take max(m - 1, 1) of them.
    return band[:max(band.size - 1, 1)]


def _coupled(a: SimulationConfig, b: SimulationConfig) -> bool:
    # Runs that consume the same Brownian increments on the same grid.
    return (a.coupling_tag, a.seed, a.step_count, a.path_count,
            a.horizon) == (b.coupling_tag, b.seed, b.step_count,
                           b.path_count, b.horizon)


class _NewtonSystem:
    """Linear algebra of the implicit step for one space and step size.

    The Newton equation ``(I + dt K D) delta = -F``, with ``K`` minus the
    generator and ``D = diag(d)``, ``d`` the slope derivative plus ``eps``
    (so ``d >= eps > 0``), is solved as ``(1/d + dt K) z = -F``,
    ``delta = z / d``.  For a sub-Markovian generator that matrix is
    strictly row diagonally dominant.  For tridiagonal generators all paths
    form one block-diagonal tridiagonal system with zero couplings between
    blocks, solved by one ``gtsv`` call, and the dual metric
    ``M K^-1 = M E^-1 M`` is applied through an LDL^T factorization of the
    tridiagonal ``E = M K``.  Other generators apply ``K`` and the dense
    dual metric as one vector-matrix product per row.  A row whose ``d`` is
    one number ``c`` at every node has the direction
    ``-Phi (Phi^T M F) / (1 + dt c lambda)`` in the mu-orthonormal
    eigenbasis ``Phi`` of ``K``, two such products, O(n^2).  The other
    rows take conjugate gradients in the mu inner product, where ``K`` is
    self-adjoint, preconditioned by the diagonal ``1/d + dt K_ii``.  In
    the symmetric form ``M/d + dt E`` that is Jacobi scaling, and the
    preconditioned matrix has a condition number of at most that of
    ``J = diag(E)^-1/2 E diag(E)^-1/2``, whatever ``d`` and ``dt`` are
    (van der Sluis 1969): a Rayleigh quotient of ``dt E`` against
    ``dt diag(E)`` lies between the extreme eigenvalues of ``J``, which
    bracket 1 as ``J`` has a unit diagonal, and ``M/d`` adds the same
    term to both quadratic forms.  ``cond(J)`` is 2.2 on
    ``path_n|power(0.5)``, 4.3 with power 0.9 and 2.0 on ``complete_n``,
    so rows converge to 1e-15 in about 6 to 21 iterations.  A row still
    unconverged after ``n`` iterations falls back to a batched dense LU
    solve of at most ``lu_rows`` rows, so a coupled batch never holds more
    than one run's worth of matrices.  Which route a row takes, and when
    its iteration stops, depend on its own ``d`` and ``F`` alone, so every
    path's arithmetic is independent of the rest of the batch.
    """

    def __init__(self, space: DirichletSpace, dt: float, lu_rows: int):
        self.dt = dt
        self.lu_rows = lu_rows
        self.tridiagonal = space.is_tridiagonal
        self.mu = mu = space.measure
        K = -space.generator
        if self.tridiagonal:
            # Entry i of each band couples nodes i and i + 1; the trailing
            # zero is the coupling to the next path's block.
            self._diag = np.diag(K).copy()
            self._upper = np.append(np.diag(K, 1), 0.0)
            self._lower = np.append(np.diag(K, -1), 0.0)
            self._ldl_d, self._ldl_e, info = lapack.dpttrf(
                mu * self._diag, _off_diagonal(mu * self._upper))
            self._check("dpttrf", info)
            self._bands = self.dt * np.stack([self._lower, self._upper])
        else:
            # K^T in row-major order: the vector-matrix products of
            # apply_k then take BLAS's dot-product form of gemv, measured
            # 1.1x faster than the other form at n = 64 and 1.6x at 128.
            self._k_t = K.T.copy()
            self._k_diag = np.diag(K).copy()
            self._dual = space.dual_metric
            self._lam = space.eigenvalues
            self._to_spectral = space.basis * mu[:, None]
            self._from_spectral = space.basis.T.copy()

    @staticmethod
    def _check(routine: str, info: int) -> None:
        if info != 0:
            raise StepSolverError(
                f"LAPACK {routine} failed with info = {info} in the Newton "
                "linear algebra")

    def apply_k(self, y: np.ndarray) -> np.ndarray:
        """Minus the generator applied to each row of ``y``."""
        if not self.tridiagonal:
            return (y[:, None, :] @ self._k_t)[:, 0]
        out = self._diag * y
        out[:, :-1] += self._upper[:-1] * y[:, 1:]
        out[:, 1:] += self._lower[:-1] * y[:, :-1]
        return out

    def dual(self, a: np.ndarray) -> np.ndarray:
        """Rows of ``a`` times the dual metric ``M K^-1``."""
        if not self.tridiagonal:
            return (a[:, None, :] @ self._dual)[:, 0]
        w, info = lapack.dpttrs(self._ldl_d, self._ldl_e, (a * self.mu).T,
                                overwrite_b=True)
        self._check("dpttrs", info)
        return w.T * self.mu

    def direction(self, F: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Newton direction ``delta`` with ``(I + dt K diag(d)) delta = -F``
        for each row of ``F`` and ``d``."""
        paths, n = F.shape
        if self.tridiagonal:
            if self._bands.shape[1] < paths * n:
                # dt times the bands, tiled for the most rows seen so far.
                self._bands = np.tile(self._bands[:, :n], paths)
            lower, upper = map(_off_diagonal, self._bands[:, :paths * n])
            inv_d = 1.0 / d
            diag = (inv_d + self.dt * self._diag).ravel()
            *_, z, info = lapack.dgtsv(
                lower, diag, upper, -F.reshape(-1, 1), overwrite_d=True,
                overwrite_b=True)
            self._check("dgtsv", info)
            return z.reshape(paths, n) * inv_d
        delta = np.empty_like(F)
        # Rows with one slope derivative at every node: the eigenbasis.
        uniform = (d == d[:, :1]).all(axis=1)
        if uniform.any():
            delta[uniform] = self._eigenbasis(F[uniform], d[uniform, :1])
        rest = np.flatnonzero(~uniform)
        if rest.size:
            inv_d = 1.0 / d[rest]
            z, unsolved = self._cg(-F[rest], inv_d)
            for start in range(0, unsolved.size, self.lu_rows):
                rows = unsolved[start:start + self.lu_rows]
                z[rows] = self._lu(-F[rest[rows]], inv_d[rows])
            delta[rest] = z * inv_d
        return delta

    def _eigenbasis(self, F: np.ndarray, c: np.ndarray) -> np.ndarray:
        # delta = -Phi (Phi^T M F) / (1 + dt c lambda), c a (rows, 1) column.
        coef = (F[:, None, :] @ self._to_spectral)[:, 0]
        coef /= 1.0 + self.dt * c * self._lam
        return -(coef[:, None, :] @ self._from_spectral)[:, 0]

    def _cg(self, b: np.ndarray, inv_d: np.ndarray):
        # Jacobi-preconditioned conjugate gradients for (1/d + dt K) z = b,
        # row by row in the mu inner product, where the matrix is
        # self-adjoint, on the system divided by dt, (c + K) z = b / dt
        # with c = 1 / (d dt); the preconditioner is its diagonal
        # c + K_ii.  Each row is first scaled by a power of two near its
        # largest entry, so that no inner product overflows.  A row leaves
        # the working arrays once r.P^-1 r is at most _CG_TOL b.P^-1 b; a
        # NaN row never does.  Returns z and the rows still unconverged
        # after n iterations, CG's bound in exact arithmetic.
        mu, n, dt = self.mu, b.shape[1], self.dt
        exponent = np.frexp(np.abs(b).max(axis=1))[1][:, None]
        b = np.ldexp(b, -exponent) / dt
        c = inv_d / dt
        precond = c + self._k_diag

        def dot(u, v):
            # One BLAS dot per row: each row's sum is its own.
            return np.vecdot(u * mu, v)

        def apply(v):
            q = self.apply_k(v)
            q += c * v
            return q

        out = z = b / precond
        goal = _CG_TOL * dot(b, z)
        r = b - apply(z)
        y = r / precond
        rho, p, live = dot(r, y), y, np.arange(len(b))
        for it in range(n + 1):
            keep = ~(rho <= goal)
            if not keep.all():
                # out holds the final z of every row that has left.
                out[live[~keep]] = z[~keep]
                live, z, r, p, rho, goal, c, precond = (
                    v[keep] for v in (live, z, r, p, rho, goal, c, precond))
            if not live.size or it == n:
                break
            q = apply(p)
            alpha = (rho / dot(p, q))[:, None]
            z = z + alpha * p
            r -= alpha * q
            y = r / precond
            rho, previous = dot(r, y), rho
            p *= (rho / previous)[:, None]
            p += y
        return np.ldexp(out, exponent), live

    def _lu(self, b: np.ndarray, inv_d: np.ndarray) -> np.ndarray:
        # Batched dense solve of (1/d + dt K) z = b.
        idx = np.arange(b.shape[1])
        A = np.repeat(self.dt * self._k_t.T[None], len(b), axis=0)
        A[:, idx, idx] += inv_d
        return np.linalg.solve(A, b[..., None])[..., 0]


class _StepStart(NamedTuple):
    """What one implicit step hands the next as its starting point."""

    shift: np.ndarray       # x - rhs, minus dt K drift(x) up to the residual
    gradient: np.ndarray    # dual(shift), as the Newton loop tracked it
    previous: tuple | None  # (x, resolvent, slope derivative at x) or None


def _implicit_step_batch(system: _NewtonSystem, smoother: MoreauYosida,
                         rhs: np.ndarray, row_name="path {}".format,
                         start: _StepStart | None = None):
    """Solve the implicit system for a (paths, nodes) batch of right sides.

    Newton on the residual ``F = x + dt K drift(x) - rhs`` equals Newton on
    the strongly convex dual-norm objective, so Armijo backtracking on that
    objective is globally convergent from any start; for piecewise-linear
    slopes the iteration is finite.  Each direction solves
    ``(1/d + dt K) z = -F`` and takes ``delta = z / d`` (see
    ``_NewtonSystem``, which also fixes ``dt``).  The objective
    ``x.(dual(x)/2 - dual(rhs))`` plus ``dt`` times a local sum is never
    evaluated, only its changes, free of cancellation: a step ``t``
    changes it by ``t delta.g + t^2/2 delta.dual(delta)`` plus the local
    change, with ``g = dual(x - rhs)``.  So each pass makes one dual-metric
    solve and each trial one Moreau-Yosida solve, whose values the accepted
    trial hands to the next pass; each trial's resolvent starts from the
    values at the current iterate.  Converged rows get no direction and
    keep their state and values bit for bit while other rows iterate, so
    every row is independent of the batch; a row that does not converge is
    named by ``row_name(row)``.

    The iteration starts at ``rhs + shift`` with the ``g`` of the
    ``_StepStart`` of the step before: consecutive steps differ by one
    noise increment, so the last drift increment predicts the next.
    Without a start, the shift and ``g`` are zero.  Returns the solution,
    residuals, iteration counts and the ``_StepStart`` for the next step.
    """
    mu, dt, eps = system.mu, system.dt, smoother.eps
    paths = rhs.shape[0]

    def mu_norm(a):
        with np.errstate(over="ignore"):
            norm = np.sqrt((a**2 * mu).sum(-1))
        over = norm == np.inf
        if over.any():
            # Where the squares overflow: scaled by the row's largest entry.
            m = np.abs(a[over]).max(-1, keepdims=True)
            norm[over] = m[:, 0] * np.sqrt(((a[over] / m) ** 2 * mu).sum(-1))
        return norm

    def newton_terms(x, previous):
        # The start point that x gives the next resolvent, which alone
        # decides whether to use it, and the drift, slope derivative and
        # local objective terms, from one solve.
        my = smoother.evaluate(x, previous)
        return ((x, my.resolvent, my.slope_derivative), my.slope + eps * x,
                my.slope_derivative + eps, my.envelope + 0.5 * eps * x**2)

    if start is None:
        # Adding minus zero leaves rhs bit for bit, zero signs included.
        start = _StepStart(np.full_like(rhs, -0.0), np.zeros_like(rhs), None)
    x, g = rhs + start.shift, start.gradient.copy()
    point, drift, slope, local = newton_terms(x, start.previous)
    tol_vec = _SOLVER_TOL * (1.0 + mu_norm(rhs))
    iterations = np.zeros(paths, dtype=int)

    for it in range(_MAX_NEWTON + 1):
        F = x + dt * system.apply_k(drift) - rhs
        residual = mu_norm(F)
        # A NaN residual never counts as converged.
        active = ~(residual <= tol_vec)
        if not active.any():
            break
        if it == _MAX_NEWTON:
            worst = int(np.argmax(residual - tol_vec))
            raise StepSolverError(
                f"implicit step did not converge: {row_name(worst)}, "
                f"residual {residual[worst]:.3e} after {it} iterations")
        iterations[active] += 1

        # Minus zero leaves a converged row exactly as it is, zero signs
        # included.
        delta = np.full_like(F, -0.0)
        delta[active] = system.direction(F[active], slope[active])
        dual_delta = system.dual(delta)
        curvature, linear = (delta * dual_delta).sum(-1), (delta * g).sum(-1)
        # Gradient of the objective is M K^-1 F; along the Newton direction
        # its slope is minus the quadratic form of the Newton matrix.
        slope_dir = -(curvature + dt * ((slope * delta**2) * mu).sum(-1))
        # Near the solution the predicted decrease sits below the roundoff
        # of the change, and the slack keeps full Newton steps acceptable
        # there so the final quadratic phase is never rejected.  The
        # quadratic terms of the change are O(|delta|); only the local
        # change carries roundoff of the objective's size.
        slack = 1e-14 * (1.0 + dt * (np.abs(local) * mu).sum(-1))
        step = np.ones(paths)
        for halvings in range(41):
            trial = x + step[:, None] * delta
            t_point, t_drift, t_slope, t_local = newton_terms(trial, point)
            change = (step * linear + 0.5 * step**2 * curvature
                      + dt * ((t_local - local) * mu).sum(-1))
            bad = active & (change > 1e-4 * step * slope_dir + slack)
            # Out of halvings, the last halved step is taken as it is.
            if halvings == 40 or not bad.any():
                break
            step[bad] *= 0.5
        x, point, drift, slope, local = (trial, t_point, t_drift, t_slope,
                                         t_local)
        g += step[:, None] * dual_delta

    return x, residual, iterations, _StepStart(x - rhs, g, point)


def simulate(config: SimulationConfig) -> TrajectoryEnsemble:
    """Integrate all paths of a run on the shared time grid."""
    return simulate_coupled([config])[0]


def simulate_coupled(configs) -> list[TrajectoryEnsemble]:
    """Integrate coupled runs that differ only in ``eps`` and the initial
    state, as one batch of ``runs x paths`` rows.

    The runs share one increment array and one Newton loop, with each
    row's own smoothing parameter; every ensemble equals ``simulate`` of
    its own config bit for bit.  Raises ``ValueError`` unless all runs are
    coupled and share the space, potential and noise.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one run")
    first = configs[0]
    shared = (first.space, first.potential, first.noise)
    for config in configs[1:]:
        if not _coupled(first, config):
            raise ValueError("the runs are not coupled")
        if (config.space, config.potential, config.noise) != shared:
            raise ValueError("coupled runs must share the space, potential "
                             "and noise")
    space, noise, dt = first.space, first.noise, first.dt
    R, P, N, n = len(configs), first.path_count, first.step_count, space.node_count
    eps = np.repeat([config.eps for config in configs], P)[:, None]
    smoother = MoreauYosida(first.potential, eps)
    system = _NewtonSystem(space, dt, lu_rows=P)

    def row_name(row):
        run, path = divmod(row, P)
        if R == 1:
            return f"path {path}"
        return f"eps {configs[run].eps:g} (run {run}), path {path}"

    dW = brownian_increments(first.seed, first.coupling_tag, P, N,
                             noise.mode_count, dt)
    path_of_row = np.tile(np.arange(P), R)
    states = np.empty((R * P, N + 1, n))
    states[:, 0] = np.repeat([config.initial for config in configs], P, axis=0)
    residuals = np.empty((R * P, N))
    iterations = np.empty((R * P, N), dtype=int)

    start = None
    for k in range(N):
        current = states[:, k]
        rhs = current + noise.apply(current, dW[path_of_row, k])
        try:
            nxt, res, its, start = _implicit_step_batch(
                system, smoother, rhs, row_name, start)
        except StepSolverError as err:
            raise StepSolverError(f"step {k} (t = {k * dt:g}): {err}") from err
        states[:, k + 1] = nxt
        residuals[:, k] = res
        iterations[:, k] = its

    # Each run's rows are one contiguous slice of the batch.
    rows = [slice(i * P, (i + 1) * P) for i in range(R)]
    return [TrajectoryEnsemble(config, states[r], dW, residuals[r],
                               iterations[r])
            for config, r in zip(configs, rows)]


def energy_budget(ensemble: TrajectoryEnsemble) -> EstimateReport:
    """Monte Carlo estimate of the uniform-in-time squared L2 bound plus the
    smoothing-weighted graph-norm budget, and the constant they imply
    relative to one plus the squared L2 size of the initial state."""
    config = ensemble.config
    space = config.space
    sup_l2 = (space.lp_norm(ensemble.states, 2) ** 2).max(axis=1)   # (P,)
    graph_sq = space.bessel_norm(ensemble.states) ** 2              # (P, N+1)
    budget = config.eps * np.trapezoid(graph_sq, ensemble.times, axis=1)
    denom = float(space.lp_norm(config.initial, 2) ** 2) + 1.0
    return _implied_constant_report(
        "energy_budget", (("sup_l2_sq", sup_l2), ("graph_budget", budget)),
        sup_l2 + budget, denom, config.eps)


# -- artifacts ------------------------------------------------------------------


def write_trajectories(ensemble: TrajectoryEnsemble, path) -> None:
    """Exact binary dump of the ``(paths, steps + 1, nodes)`` float64 states
    in ``.npy`` format, written to ``path`` as named.  The time grid is
    ``SimulationConfig.times``, fixed by the horizon and step count that
    ``write_metadata`` records."""
    with open(path, "wb") as fh:
        np.save(fh, ensemble.states, allow_pickle=False)


def write_metadata(ensemble: TrajectoryEnsemble, path) -> None:
    """Key-value sidecar describing the run and solver statistics."""
    c = ensemble.config
    pairs = [
        ("space.label", c.space.label),
        ("space.nodes", c.space.node_count),
        ("potential.kind", c.potential.kind),
        ("noise.kind", c.noise.kind),
        ("noise.modes", c.noise.mode_count),
        ("run.eps", c.eps),
        ("run.horizon", c.horizon),
        ("run.steps", c.step_count),
        ("run.paths", c.path_count),
        ("run.seed", c.seed),
        ("run.tag", c.coupling_tag),
        ("solver.tolerance", _SOLVER_TOL),
        ("solver.max_residual", float(ensemble.residuals.max())),
        ("solver.mean_newton_iterations",
         float(ensemble.newton_iterations.mean())),
        ("solver.max_newton_iterations",
         int(ensemble.newton_iterations.max())),
    ]
    with open(path, "w") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {format_value(value)}\n")

"""Monte Carlo integration of the regularized nonlinear diffusion.

One step solves the drift-implicit, noise-explicit system

    X+ - dt * L(slope_eps(X+) + eps * X+) = X + B(X) dW,

where ``slope_eps`` is the Yosida slope of the potential.  With ``K`` minus
the generator and ``psi = slope_eps + eps id``, the step is solved for the
drift ``w = psi(X+)``, and ``X+ = rhs - dt K w``.  For any ``c > 0``,
``w = psi(x)`` holds exactly when ``w = psi_c(x + c w)``, with ``psi_c`` the
Yosida approximation of ``psi`` at ``c``; so the step is the root of
``R(w) = w - psi_c(rhs - dt K w + c w)``, the forward-backward residual of
the dual problem ``min_w dt/2 <K w, w>_mu - <rhs, w>_mu + sum mu psi*(w)``
at step ``1/c`` (Bauschke and Combettes, *Convex Analysis and Monotone
Operator Theory in Hilbert Spaces*, 2017).  With ``c = dt lambda_max(K)``
the forward-backward step ``w - R`` never increases ``|R|_mu``, and full
semismooth Newton steps on ``R`` need no line search (Stella, Themelis and
Patrinos, Comput. Optim. Appl. 67, 2017); a Newton step that does not halve
``|R|_mu`` is replaced by the forward-backward step.  ``psi_c`` is read off
the potential's Moreau-Yosida smoothing at ``lambda = eps + c / (1 + c
eps)``, one resolvent solve per pass.  Each Newton direction solves
``(a + dt K) z = b`` with ``a > 0``; weighted by ``M = diag(mu)`` that
system is ``(M a + dt E) z = M b`` with ``E = M K``, symmetric positive
definite with the sparsity of the generator; on path graphs it is
tridiagonal and solved by an LDL^T factorization with no pivoting
(``dptsv``).  On dense generators every product with an n x n matrix is
one matrix-matrix product over all paths.  A path whose ``a`` is one
number at every node is solved in the eigenbasis of the space, where the
system is diagonal, in O(n^2); the other paths take Jacobi-preconditioned
conjugate gradients, O(n^2) per iteration, whose iteration count does not
grow with the spread of ``a``.
Consecutive steps differ by one noise increment, so each step after the
first starts from the previous drift, and a Newton-solved resolvent from
the values it had at the previous point.
Paths evolve independently and are solved as one batch.
Coupled runs (a smoothing ladder, a pair of initial states) share their
increments, so ``simulate_coupled`` steps all their paths as one batch
too, with one smoothing parameter per row.

The tridiagonal ``dptsv`` comes from scipy's compiled LAPACK wrapper,
``scipy.linalg._flapack``, loaded without the ``scipy.linalg`` package,
whose import costs more than a small run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

from .dirichlet import DirichletSpace
from .monotone import ConvexPotential, MoreauYosida
from .noise import NoiseModel, _row_products, brownian_increments
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


# Newton stops once c times a row's drift residual is at most
# _SOLVER_TOL (1 + |rhs|) in the mu-norm, and fails after _MAX_NEWTON passes.
_SOLVER_TOL = 1e-10
_MAX_NEWTON = 100
# A Newton trial that does not bring c |R|_mu to at most _DECREASE times its
# value is replaced by the forward-backward step.
_DECREASE = 0.5
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


def _coupled(a: SimulationConfig, b: SimulationConfig) -> bool:
    # Runs that consume the same Brownian increments on the same grid.
    return (a.coupling_tag, a.seed, a.step_count, a.path_count,
            a.horizon) == (b.coupling_tag, b.seed, b.step_count,
                           b.path_count, b.horizon)


class _NewtonSystem:
    """Linear algebra of the implicit step for one space and step size.

    ``solve`` returns ``z`` with ``(a + dt K) z = b`` for each row of ``b``
    and ``a > 0``, ``K`` minus the generator.  Multiplied by
    ``M = diag(mu)`` the system is ``(M a + dt E) z = M b`` with
    ``E = M K``, symmetric because ``K`` is mu-self-adjoint, and strictly
    diagonally dominant with a positive diagonal for a sub-Markovian
    generator, so positive definite.  For tridiagonal generators all paths
    form one block-diagonal system of that form with zero couplings between
    blocks, solved by one ``dptsv`` call, an LDL^T factorization that needs
    no pivoting; each block's recurrence is its own.  Other generators apply
    ``K`` to all rows as one matrix-matrix product (gemm), which keeps the
    n x n operand in cache for every row.  A row whose ``a`` is one number
    ``a0`` at every node has the solution
    ``Phi (Phi^T M b) / (a0 + dt lambda)`` in the mu-orthonormal eigenbasis
    ``Phi`` of ``K``, two such products, O(n^2).  The other rows take
    conjugate gradients in the mu inner product, where ``K`` is
    self-adjoint, preconditioned by the diagonal ``a + dt K_ii``.  In the
    symmetric form ``M a + dt E`` that is Jacobi scaling, and the
    preconditioned matrix has a condition number of at most that of
    ``J = diag(E)^-1/2 E diag(E)^-1/2``, whatever ``a`` and ``dt`` are (van
    der Sluis 1969): a Rayleigh quotient of ``dt E`` against ``dt diag(E)``
    lies between the extreme eigenvalues of ``J``, which bracket 1 as ``J``
    has a unit diagonal, and ``M a`` adds the same term to both quadratic
    forms.  ``cond(J)`` is 2.2 on ``path_n|power(0.5)``, 4.3 with power 0.9
    and 2.0 on ``complete_n``, so rows converge to 1e-15 in about 6 to 21
    iterations.  A row still unconverged after ``n`` iterations falls back
    to a dense LU solve of its own, so the fallback holds one n x n matrix
    at a time.  Which route a row takes, and when its iteration stops,
    depend on its own ``a`` and ``b`` alone.  The products keep that
    independence: with at least two rows, each output row of OpenBLAS's
    dgemm is its input row's own dot products, summed in a fixed order
    whatever the other rows are (checked bit for bit for subsets of 1 to
    599 rows at n = 16 to 256, with one and two BLAS threads), while a lone
    row goes to gemv, which sums in another order, so ``_row_products``
    doubles it.  So every path's arithmetic is independent of the rest of
    the batch.

    ``c = dt lambda_max(K)`` is the step's Yosida parameter, at which
    ``dt K <= c``, and ``level(eps)`` the smoothing level
    ``eps + c / (1 + c eps)`` at which the step evaluates the potential.
    """

    def __init__(self, space: DirichletSpace, dt: float):
        self.dt = dt
        self.c = dt * float(np.max(space.eigenvalues))
        self.tridiagonal = space.is_tridiagonal
        self.mu = mu = space.measure
        K = -space.generator
        if self.tridiagonal:
            # Entry i of each band couples nodes i and i + 1; the trailing
            # zero is the coupling to the next path's block.
            self._diag = np.diag(K).copy()
            self._upper = np.append(np.diag(K, 1), 0.0)
            self._lower = np.append(np.diag(K, -1), 0.0)
            # The symmetric form M a + dt E, E = M K: its diagonal less
            # M a, and its off-diagonal band.
            self._spd_diag = dt * mu * self._diag
            self._spd_band = dt * mu * self._upper
        else:
            # K^T in row-major order, the right operand of apply_k's
            # product; the LU fallback builds its matrices from it.
            self._k_t = K.T.copy()
            self._k_diag = np.diag(K).copy()
            self._lam = space.eigenvalues
            self._to_spectral = space.basis * mu[:, None]
            self._from_spectral = space.basis.T.copy()

    def level(self, eps):
        """The smoothing level of the step at ``eps``."""
        return eps + self.c / (1.0 + self.c * eps)

    def apply_k(self, y: np.ndarray) -> np.ndarray:
        """Minus the generator applied to each row of ``y``."""
        if not self.tridiagonal:
            return _row_products(y, self._k_t)
        out = self._diag * y
        out[:, :-1] += self._upper[:-1] * y[:, 1:]
        out[:, 1:] += self._lower[:-1] * y[:, :-1]
        return out

    def solve(self, b: np.ndarray, a: np.ndarray) -> np.ndarray:
        """``z`` with ``(a + dt K) z = b`` for each row of ``b`` and ``a``."""
        paths, n = b.shape
        if self.tridiagonal:
            if b.size == 1:
                # LAPACK solves a 1 x 1 system as b * (1/d) and larger ones
                # by division, so a lone equation is doubled.
                return self.solve(np.concatenate([b, b]),
                                  np.concatenate([a, a]))[:1]
            if self._spd_band.size < paths * n:
                # The band, tiled for the most rows seen so far.
                self._spd_band = np.tile(self._spd_band[:n], paths)
            diag = self.mu * a
            diag += self._spd_diag
            _, _, z, info = lapack.dptsv(
                diag.ravel(), self._spd_band[:paths * n - 1],
                (b * self.mu).reshape(-1, 1), overwrite_d=True,
                overwrite_b=True)
            if info != 0:
                raise StepSolverError(f"LAPACK dptsv failed with info = {info} "
                                      "in the Newton linear algebra")
            return z.reshape(paths, n)
        z = np.empty_like(b)
        # Rows with one coefficient at every node: the eigenbasis.
        uniform = (a == a[:, :1]).all(axis=1)
        if uniform.any():
            z[uniform] = self._eigenbasis(b[uniform], a[uniform, :1])
        rest = np.flatnonzero(~uniform)
        if rest.size:
            z_rest, unsolved = self._cg(b[rest], a[rest])
            for row in unsolved:
                z_rest[row] = self._lu(b[rest[row]], a[rest[row]])
            z[rest] = z_rest
        return z

    def _eigenbasis(self, b: np.ndarray, a: np.ndarray) -> np.ndarray:
        # z = Phi (Phi^T M b) / (a + dt lambda), a a (rows, 1) column.
        coef = _row_products(b, self._to_spectral)
        coef /= a + self.dt * self._lam
        return _row_products(coef, self._from_spectral)

    def _cg(self, b: np.ndarray, a: np.ndarray):
        # Jacobi-preconditioned conjugate gradients for (a + dt K) z = b,
        # row by row in the mu inner product, where the matrix is
        # self-adjoint, on the system divided by dt, (a/dt + K) z = b / dt;
        # the preconditioner is its diagonal a/dt + K_ii.  Each row is
        # first scaled by a power of two near its largest entry, so that no
        # inner product overflows.  A row leaves the working arrays once
        # r.P^-1 r is at most _CG_TOL b.P^-1 b; a NaN row never does.
        # Returns z and the rows still unconverged after n iterations, CG's
        # bound in exact arithmetic.
        mu, n, dt = self.mu, b.shape[1], self.dt
        exponent = np.frexp(np.abs(b).max(axis=1))[1][:, None]
        b = np.ldexp(b, -exponent) / dt
        c = a / dt
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

    def _lu(self, b: np.ndarray, a: np.ndarray) -> np.ndarray:
        # Dense solve of (a + dt K) z = b for one row.
        A = self.dt * self._k_t.T
        A[np.diag_indices_from(A)] += a
        return np.linalg.solve(A, b)


def _implicit_step_batch(system: _NewtonSystem, smoother: MoreauYosida, eps,
                         rhs: np.ndarray, row_name="path {}".format,
                         start=None):
    """Solve the implicit system for a (paths, nodes) batch of right sides.

    Full-step semismooth Newton in the drift ``w`` on
    ``R(w) = w - psi_c(x + c w)``, ``x = rhs - dt K w``, with ``c`` and
    ``dt`` from ``system`` and ``eps`` a number or a column of rows.  With
    ``g = 1 + c eps`` and ``c' = c / g``, ``smoother`` is the potential's
    smoothing at ``lambda = system.level(eps) = eps + c'``.  One
    ``evaluate`` at ``y = (x + c w) / g`` gives its resolvent ``p``, slope
    and slope derivative ``D_l``; the resolvent of ``psi`` at ``c`` is then
    ``s = (eps y + c' p) / lambda`` and ``R = (s - x) / c``.  The derivative
    ``D`` of ``psi_c`` has ``1/D = g^2 / (eps g + D_l)``, and the direction
    solves ``(1/d + dt K) dw = -R / D`` with
    ``1/d = 1/D - c = (g - c D_l) / (eps g + D_l)``, positive for eps > 0.
    Where a Newton trial does not halve a row's ``|R|_mu``, that row takes
    the forward-backward step ``w - R`` instead.  A row stops once
    ``c |R|_mu <= _SOLVER_TOL (1 + |rhs|_mu)`` and returns ``s``, whose
    state residual ``(c - dt K) R`` is no larger, as ``0 < dt K <= c``; the
    residual recorded is the computed ``|s + dt K (slope + eps s) - rhs|_mu``,
    the slope being ``evaluate``'s.  Converged rows get no direction and
    keep their drift and values bit for bit while other rows iterate, so
    every row is independent of the batch; a row that does not converge is
    named by ``row_name(row)``.

    Without a ``start`` the iteration starts at ``w = 0``.  A step returns
    the next one's start: its drift ``w_k`` and the resolvent values the
    next ``evaluate`` starts from.  Returns the solution, residuals,
    iteration counts and the next step's start.
    """
    mu, dt, c, lam = system.mu, system.dt, system.c, smoother.eps
    g = 1.0 + c * eps
    c_prime = c / g
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

    def linearize(w, previous):
        # s, R, c |R|, R / D, 1/d, the slope at s and the values the next
        # evaluate starts from, from one solve.
        x = rhs - dt * system.apply_k(w)
        y = (x + c * w) / g
        my = smoother.evaluate(y, previous)
        s = (eps * y + c_prime * my.resolvent) / lam
        R = (s - x) / c
        den = eps * g + my.slope_derivative
        return (s, R, c * mu_norm(R), R * (g * g / den),
                (g - c * my.slope_derivative) / den, my.slope,
                (y, my.resolvent, my.slope_derivative))

    w, point = (np.zeros_like(rhs), None) if start is None else start
    s, R, size, R_D, a, slope, point = linearize(w, point)
    tol_vec = _SOLVER_TOL * (1.0 + mu_norm(rhs))
    iterations = np.zeros(paths, dtype=int)

    for it in range(_MAX_NEWTON + 1):
        # A NaN residual never counts as converged.
        active = ~(size <= tol_vec)
        if not active.any():
            break
        if it == _MAX_NEWTON:
            worst = int(np.argmax(size - tol_vec))
            raise StepSolverError(
                f"implicit step did not converge: {row_name(worst)}, "
                f"residual {size[worst]:.3e} after {it} iterations")
        iterations[active] += 1
        if active.all():
            trial = w - system.solve(R_D, a)
        else:
            # Minus zero leaves a converged row exactly as it is, zero signs
            # included.
            step = np.zeros_like(w)
            step[active] = system.solve(R_D[active], a[active])
            trial = w - step
        values = linearize(trial, point)
        worse = active & ~(values[2] <= _DECREASE * size)
        if worse.any():
            trial = np.where(worse[:, None], w - R, trial)
            values = linearize(trial, point)
        w, (s, R, size, R_D, a, slope, point) = trial, values

    F = s + dt * system.apply_k(slope + eps * s) - rhs
    return s, mu_norm(F), iterations, (w, point)


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
    system = _NewtonSystem(space, dt)
    smoother = MoreauYosida(first.potential, system.level(eps))

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
                system, smoother, eps, rhs, row_name, start)
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

"""Transient Dirichlet spaces on finite weighted graphs.

A space is a finite node set with a strictly positive measure ``mu`` and a
mu-symmetric sub-Markovian generator built from symmetric edge weights and
per-node killing rates.  Killing makes the generator negative definite, so
the heat semigroup, Bessel-type norms, dual norms, Gamma-transforms and
operator norms between weighted Lebesgue spaces are all exact dense spectral
calculus.  Bernstein-function subordination reuses the eigenbasis.  The
space also reports whether its generator is tridiagonal, which the time
stepper uses to avoid dense linear algebra.

Every ``DirichletSpace`` is checked when it is constructed, by the exact
rules of ``check_space_invariants``: finite data, consistent shapes, positive
measure and spectrum, a small spectral residual, mu-symmetry and the
sub-Markov signs.  Semigroup positivity, sup-norm contractivity and the
witness constant follow from these rules, so no check samples them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BernsteinFunction",
    "DirichletSpace",
    "SpaceError",
    "build_graph_space",
    "single_node_space",
    "path_space",
    "complete_space",
    "subordinate",
    "gamma_transform_quadrature",
    "check_space_invariants",
]


class SpaceError(ValueError):
    """Graph data cannot produce a transient mu-symmetric generator."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BernsteinFunction:
    """Bernstein function of the paper's subordination, ``kind`` with
    exponent ``alpha`` in (0, 1): ``power`` is ``lam**alpha`` and
    ``shifted_power`` is ``(lam + 1)**alpha - 1``.  Both vanish at zero and
    are increasing and concave on the half line.
    """

    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in ("power", "shifted_power"):
            raise ValueError(f"unknown Bernstein kind {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @staticmethod
    def power(alpha: float) -> "BernsteinFunction":
        return BernsteinFunction("power", alpha)

    @staticmethod
    def shifted_power(alpha: float) -> "BernsteinFunction":
        return BernsteinFunction("shifted_power", alpha)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.kind == "power":
            return lam**self.alpha
        # (lam + 1)**alpha - 1 without its cancellation at small lam.
        return np.expm1(self.alpha * np.log1p(lam))


@dataclass(frozen=True, eq=False)
class DirichletSpace:
    """Finite measure space with a transient mu-symmetric generator.

    Attributes
    ----------
    measure : ndarray
        Strictly positive node weights ``mu``.
    generator : ndarray
        Dense matrix acting on node-indexed functions.
    eigenvalues : ndarray
        Spectrum of minus the generator, ascending and strictly positive.
    basis : ndarray
        Columns form a mu-orthonormal eigenbasis of minus the generator.
    label : str
        Human-readable tag used in reports.
    """

    measure: np.ndarray
    generator: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray
    label: str = "space"

    def __post_init__(self):
        for name in ("measure", "generator", "eigenvalues", "basis"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        check_space_invariants(self)

    @cached_property
    def witness(self) -> np.ndarray:
        """Strictly positive ``g`` with ``sum(|u| g mu) <= energy(u)**0.5``:
        the constant function over the dual norm of the unit density.  The
        best constant, ``dual_norm(g) = 1``, is attained at ``-L^-1 g``."""
        ones = np.ones_like(self.measure)
        return _readonly(ones / self.dual_norm(ones))

    # -- basic geometry -------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.measure.shape[0]

    def _check_shape(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.node_count:
            raise ValueError(
                f"expected last axis of length {self.node_count}, "
                f"got shape {u.shape}")
        return u

    def integrate(self, u) -> np.ndarray | float:
        """Integral of ``u`` against the measure; batched over leading axes."""
        u = self._check_shape(u)
        return u @ self.measure

    def inner(self, u, v):
        """Weighted L2 inner product."""
        u = self._check_shape(u)
        v = self._check_shape(v)
        return (u * v) @ self.measure

    def lp_norm(self, u, p: float = 2.0):
        u = self._check_shape(u)
        if p == np.inf:
            return np.abs(u).max(axis=-1)
        return (np.abs(u) ** p @ self.measure) ** (1.0 / p)

    # -- spectral transform ---------------------------------------------

    def to_spectral(self, u) -> np.ndarray:
        """Coefficients of ``u`` in the mu-orthonormal eigenbasis."""
        u = self._check_shape(u)
        return (u * self.measure) @ self.basis

    def from_spectral(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        return c @ self.basis.T

    def _spectral_matrix(self, values: np.ndarray) -> np.ndarray:
        # Sum_k values_k phi_k phi_k^T M, the spectral calculus matrix.
        return (self.basis * values) @ (self.basis.T * self.measure)

    @cached_property
    def is_tridiagonal(self) -> bool:
        """Whether the generator couples only consecutive node indices, as
        on path graphs; the time stepper then solves banded systems."""
        L = self.generator
        return not (np.triu(L, 2).any() or np.tril(L, -2).any())

    # -- quadratic forms and norms ---------------------------------------

    def energy(self, u, v=None):
        """Dirichlet form of (u, v); nonnegative and zero only at u = 0."""
        cu = self.to_spectral(u)
        cv = cu if v is None else self.to_spectral(v)
        return (cu * cv) @ self.eigenvalues

    def energy_norm(self, u):
        return np.sqrt(np.maximum(self.energy(u), 0.0))

    def bessel_norm(self, u):
        """Graph norm of the square root of (1 - generator)."""
        c = self.to_spectral(u)
        return np.sqrt(c**2 @ (1.0 + self.eigenvalues))

    def bessel_norm_shifted(self, u, shift: float):
        """Energy norm with ``shift`` times the squared L2 norm added."""
        c = self.to_spectral(u)
        return np.sqrt(c**2 @ (self.eigenvalues + shift))

    # -- dual functionals -------------------------------------------------

    def pairing(self, density, u):
        """Apply the functional with the given density to ``u``."""
        return self.inner(density, u)

    def dual_norm(self, density, shift: float = 0.0):
        """Dual norm of a functional given by its density.

        ``shift = 0`` is the norm dual to the pure energy norm, available
        because the space is transient.  Positive shifts give the norms dual
        to the shifted energy norms; they decrease in ``shift`` and increase
        to the ``shift = 0`` value as ``shift`` goes to zero.
        """
        if shift < 0:
            raise ValueError(f"shift must be nonnegative, got {shift}")
        c = self.to_spectral(density)
        return np.sqrt(c**2 @ (1.0 / (self.eigenvalues + shift)))

    def dual_inner(self, density_a, density_b):
        """Inner product of two functionals in the dual of the energy space."""
        ca = self.to_spectral(density_a)
        cb = self.to_spectral(density_b)
        return (ca * cb) @ (1.0 / self.eigenvalues)

    def apply_generator(self, u) -> np.ndarray:
        """Density of the functional obtained by pushing ``u`` through the
        generator; pairs with any ``v`` in the dual inner product to give
        minus the integral of ``u v``."""
        u = self._check_shape(u)
        return u @ self.generator.T

    def solve_generator(self, density) -> np.ndarray:
        """Apply the inverse of minus the generator."""
        c = self.to_spectral(density)
        return self.from_spectral(c / self.eigenvalues)

    # -- semigroup and functional calculus --------------------------------

    def semigroup(self, t: float, f) -> np.ndarray:
        """Heat semigroup at time ``t`` applied to ``f`` by spectral synthesis."""
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        c = self.to_spectral(f)
        return self.from_spectral(c * np.exp(-t * self.eigenvalues))

    def transition_matrix(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        return self._spectral_matrix(np.exp(-t * self.eigenvalues))

    def gamma_transform(self, r: float, w) -> np.ndarray:
        """Gamma-transform of order ``r > 0``, the inverse ``r/2`` power of
        (1 - generator)."""
        if r <= 0:
            raise ValueError(f"order must be positive, got {r}")
        c = self.to_spectral(w)
        return self.from_spectral(c * (1.0 + self.eigenvalues) ** (-r / 2.0))

    def opnorm(self, t: float, p: int, q) -> float:
        """Exact operator norm of the semigroup between weighted Lp spaces.

        Supported pairs are (1, 2), (2, inf) and (1, inf).  The L1 norms are
        maximized over the extreme points of the unit ball (scaled
        indicators); sup-norm targets reduce to weighted row norms.
        """
        if t <= 0:
            raise ValueError(f"time must be positive, got {t}")
        P = self.transition_matrix(t)
        mu = self.measure
        if (p, q) == (1, 2):
            col = np.sqrt(mu @ P**2) / mu
            return float(col.max())
        if (p, q) == (2, np.inf):
            row = np.sqrt(P**2 @ (1.0 / mu))
            return float(row.max())
        if (p, q) == (1, np.inf):
            return float(np.abs(P / mu).max())
        raise ValueError(f"unsupported norm pair ({p}, {q})")


# -- construction ---------------------------------------------------------


def _connected_components(weights: np.ndarray) -> list[np.ndarray]:
    n = weights.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        comp = []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.nonzero(weights[i] > 0)[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        comps.append(np.array(sorted(comp)))
    return comps


def build_graph_space(edge_weights, killing_rates, measure,
                      label: str = "graph") -> DirichletSpace:
    """Assemble a transient Dirichlet space from graph data.

    Parameters
    ----------
    edge_weights : (n, n) array_like
        Symmetric nonnegative conductances with zero diagonal.
    killing_rates : (n,) array_like
        Nonnegative absorption rates; every connected component needs at
        least one strictly positive rate, otherwise the form is not
        transient.
    measure : (n,) array_like
        Strictly positive node weights.

    Returns
    -------
    DirichletSpace
        With generator ``(Lu)_i = (1/mu_i) (sum_j w_ij (u_j - u_i) - k_i u_i)``
        and its spectral decomposition.
    """
    W = np.asarray(edge_weights, dtype=float)
    k = np.asarray(killing_rates, dtype=float)
    mu = np.asarray(measure, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.size == 0:
        raise SpaceError("edge weights must form a nonempty square matrix")
    n = W.shape[0]
    if k.shape != (n,) or mu.shape != (n,):
        raise SpaceError("killing rates and measure must have one entry per node")
    for name, a in (("edge weights", W), ("killing rates", k), ("measure", mu)):
        if not np.isfinite(a).all():
            raise SpaceError(f"{name} must be finite")
    scale = max(float(np.abs(W).max(initial=0.0)), 1.0)
    if np.abs(W - W.T).max() > 1e-14 * scale:
        raise SpaceError("asymmetric weights")
    if np.abs(np.diag(W)).max(initial=0.0) > 0:
        raise SpaceError("edge weights must have zero diagonal")
    if W.min() < 0:
        raise SpaceError("edge weights must be nonnegative")
    if k.min() < 0:
        raise SpaceError("killing rates must be nonnegative")
    if mu.min() <= 0:
        raise SpaceError("measure weights must be strictly positive")
    W = 0.5 * (W + W.T)
    for comp in _connected_components(W):
        if k[comp].max() <= 0:
            raise SpaceError(
                f"component {comp.tolist()} has no killing: form not transient")

    L = W / mu[:, None]
    np.fill_diagonal(L, -(W.sum(axis=1) + k) / mu)

    root = np.sqrt(mu)
    A = root[:, None] * (-L) / root[None, :]
    A = 0.5 * (A + A.T)
    lam, Q = np.linalg.eigh(A)
    return DirichletSpace(mu, L, lam, Q / root[:, None], label=label)


def single_node_space(killing: float = 1.0) -> DirichletSpace:
    """One absorbing node of unit mass; the generator is minus ``killing``."""
    return build_graph_space(np.zeros((1, 1)), [killing], [1.0],
                             label="single")


def path_space(n: int) -> DirichletSpace:
    """Path graph with unit conductances, unit measure and unit killing on
    every node.

    Uniform killing keeps the bottom of the spectrum at one or above, which
    makes the vanishing-shift limits of the dual norms resolvable at tight
    tolerances.
    """
    if n < 1:
        raise SpaceError("path needs at least one node")
    W = np.zeros((n, n))
    idx = np.arange(n - 1)
    W[idx, idx + 1] = 1.0
    W[idx + 1, idx] = 1.0
    return build_graph_space(W, np.ones(n), np.ones(n), label=f"path_{n}")


def complete_space(n: int) -> DirichletSpace:
    """Complete graph with conductance 1/n per edge, unit measure and unit
    killing on every node."""
    if n < 1:
        raise SpaceError("complete graph needs at least one node")
    W = np.full((n, n), 1.0 / n)
    np.fill_diagonal(W, 0.0)
    return build_graph_space(W, np.ones(n), np.ones(n),
                             label=f"complete_{n}")


def subordinate(space: DirichletSpace, fn: BernsteinFunction) -> DirichletSpace:
    """Space generated by minus ``fn`` of minus the generator.

    The eigenbasis and measure are reused; eigenvalues are mapped through
    ``fn`` exactly.  Like every space it is checked when it is constructed,
    against its own spectral data, so a spectrum that does not stay strictly
    positive raises ``SpaceError``; semigroup positivity, sup-norm
    contractivity and the witness constant follow, as on every space.
    """
    new_eigs = fn(space.eigenvalues)
    return DirichletSpace(space.measure, -space._spectral_matrix(new_eigs),
                          new_eigs, space.basis,
                          label=f"{space.label}|{fn.kind}")


def gamma_transform_quadrature(space: DirichletSpace, r: float,
                               w) -> np.ndarray:
    """Gamma-transform evaluated by generalized Gauss-Laguerre quadrature.

    Integrates ``t**(r/2-1) exp(-t) P_t w`` over the half line with 192
    points.  This is a second, semigroup-only route to the spectral formula
    and serves as its oracle.
    """
    if r <= 0:
        raise ValueError(f"order must be positive, got {r}")
    # Imported on first call: no simulation needs scipy.special at start-up.
    from scipy.special import roots_genlaguerre

    w = space._check_shape(np.asarray(w, dtype=float))
    x, wt = roots_genlaguerre(192, r / 2.0 - 1.0)
    decay = np.exp(-np.outer(x, space.eigenvalues))  # (points, n)
    coeff = (wt @ decay) * space.to_spectral(w) / math.gamma(r / 2.0)
    return space.from_spectral(coeff)


# -- invariant checking -----------------------------------------------------


def check_space_invariants(space: DirichletSpace) -> None:
    """Raise ``SpaceError`` unless ``space`` is a transient Dirichlet space.

    Every ``DirichletSpace`` is checked by it when constructed.  The rules
    are exact up to roundoff: nonempty finite arrays of agreeing shapes;
    positive measure and spectrum (transience); the spectral residual
    ``|(-L) Phi - Phi Lambda| <= 1e-10 scale``; mu-symmetry; nonnegative
    off-diagonal entries and nonpositive row sums.  With these signs
    ``exp(tL)`` is entrywise nonnegative with row sums at most 1, so the
    semigroup is positive and sup-norm contractive; by duality and the
    Markov property ``sum(|u| g mu) <= dual_norm(g) energy(|u|)**0.5 <=
    dual_norm(g) energy(u)**0.5``, so the witness constant is exactly
    ``dual_norm(witness) = 1``.  Neither needs sampling.
    """
    L, mu, lam, basis = (space.generator, space.measure, space.eigenvalues,
                         space.basis)
    n = mu.size
    if (n == 0 or mu.shape != (n,) or L.shape != (n, n)
            or basis.shape != (n, n) or lam.shape != (n,)):
        raise SpaceError("array shapes must agree and be nonempty")
    if not all(np.isfinite(a).all() for a in (mu, L, lam, basis)):
        raise SpaceError("space data must be finite")
    if not np.all(mu > 0):
        raise SpaceError("measure weights must be strictly positive")
    if not np.all(lam > 0):
        raise SpaceError("spectrum of minus the generator must be "
                         "strictly positive (transience)")
    scale = max(float(np.abs(L).max()), 1.0)

    residual = np.abs(L @ basis + basis * lam).max()
    if residual > 1e-10 * scale:
        raise SpaceError(f"eigen-decomposition residual too large: {residual:g}")

    sym = np.abs(mu[:, None] * L - (mu[:, None] * L).T).max()
    if sym > 1e-12 * scale:
        raise SpaceError(f"mu-symmetry violated by {sym:g}")

    off = L - np.diag(np.diag(L))
    if off.min() < -1e-12 * scale:
        raise SpaceError("negative off-diagonal generator entry")
    if L.sum(axis=1).max() > 1e-12 * scale:
        raise SpaceError("positive generator row sum")

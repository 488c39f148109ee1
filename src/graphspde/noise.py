"""Finite-rank noise operators and the reproducible increment source.

A noise model maps a state to an operator from a finite mode space into
node-indexed densities.  Lipschitz and growth constants with respect to
the shifted dual norms are certified empirically on sampled states over a
grid of shifts.  Brownian increments are derived counter-style: the block of
increments for a path is a pure function of (seed, coupling tag, path
index), so runs that share a tag consume identical noise regardless of
evaluation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dirichlet import DirichletSpace

__all__ = [
    "NoiseModel",
    "NoiseCertificate",
    "additive_noise",
    "diagonal_noise",
    "eigenmode_noise",
    "certify_noise",
    "brownian_increments",
]

# Certification evidence: dual-norm shifts, sampled state pairs and seed.
_SHIFT_GRID = (1.0, 0.5, 0.1, 0.01)
_PAIR_COUNT = 128
_PAIR_SEED = 0xB0B

_KINDS = ("additive", "diagonal_multiplicative")


@dataclass(frozen=True)
class NoiseModel:
    """Operator family B(u) with finitely many modes.

    Kinds
    -----
    additive
        Fixed columns, independent of the state.
    diagonal_multiplicative
        One mode per node; column ``i`` is ``sigma * clip(u_i)`` times the
        node indicator, where the clip at ``clip_at`` keeps the map globally
        Lipschitz.

    No kind depends on time, so progressive measurability is structural.
    """

    kind: str
    mode_count: int
    sigma: float = 0.0
    clip_at: float = 1e3
    columns: tuple = ()   # additive: (n, m) matrix rows as tuples

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @cached_property
    def _columns(self) -> np.ndarray:
        # The additive columns as one read-only (n, m) array, built once.
        columns = np.asarray(self.columns, dtype=float)
        columns.setflags(write=False)
        return columns

    def _diagonal(self, u: np.ndarray) -> np.ndarray:
        # Diagonal of a diagonal_multiplicative operator at ``u``.
        return self.sigma * np.clip(u, -self.clip_at, self.clip_at)

    def matrix(self, u: np.ndarray) -> np.ndarray:
        """Dense operator at ``u``; shape (..., n, m)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "additive":
            base = self._columns
            return np.broadcast_to(base, u.shape[:-1] + base.shape).copy()
        out = np.zeros(u.shape + (u.shape[-1],))
        idx = np.arange(u.shape[-1])
        out[..., idx, idx] = self._diagonal(u)
        return out

    def apply(self, u: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Increment ``B(u) dw``; batched over leading axes."""
        u = np.asarray(u, dtype=float)
        dw = np.asarray(dw, dtype=float)
        if self.kind == "diagonal_multiplicative":
            return self._diagonal(u) * dw
        # One vector-matrix product per row keeps each row's roundoff
        # independent of how many rows are batched.
        return (dw[..., None, :] @ self._columns.T)[..., 0, :]


def additive_noise(columns) -> NoiseModel:
    columns = np.asarray(columns, dtype=float)
    if columns.ndim != 2:
        raise ValueError("columns must form an (n, m) matrix")
    return NoiseModel("additive", mode_count=columns.shape[1],
                      columns=tuple(map(tuple, columns.tolist())))


def diagonal_noise(node_count: int, sigma: float, clip_at: float = 1e3) -> NoiseModel:
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if clip_at < 0:
        raise ValueError("clip level must be nonnegative")
    return NoiseModel("diagonal_multiplicative", mode_count=node_count,
                      sigma=float(sigma), clip_at=float(clip_at))


def eigenmode_noise(space: DirichletSpace, modes: int,
                    amplitude: float) -> NoiseModel:
    """Additive noise whose columns are the lowest eigenfunctions."""
    if modes < 1:
        raise ValueError("need at least one mode")
    modes = min(modes, space.node_count)
    return additive_noise(amplitude * space.basis[:, :modes])


# -- certification -----------------------------------------------------------


@dataclass(frozen=True)
class NoiseCertificate:
    """Empirical smallest admissible constants over sampled states.

    ``lipschitz`` bounds the squared Hilbert-Schmidt distance of the
    operators at two states by the squared shifted dual norm of the state
    difference, ``dual_growth`` the squared operator norm by one plus the
    squared shifted dual norm, and ``l2_growth`` the same into weighted L2.
    Per-shift tables record the constants on the shift grid; a flag marks
    constants that fail to be uniform within five percent across the grid.
    """

    lipschitz: float
    dual_growth: float
    l2_growth: float
    lipschitz_by_shift: tuple
    dual_growth_by_shift: tuple
    uniform_lipschitz: bool
    uniform_dual_growth: bool
    sample_count: int


def _spectral_energy(coef: np.ndarray) -> np.ndarray:
    # Squared eigen-coefficients of an operator's columns, summed over the
    # columns, squared in place.  Weighting by 1 / (eigenvalues + shift)
    # gives the squared shifted dual Hilbert-Schmidt norm; this part is
    # independent of the shift.
    return np.square(coef, out=coef).sum(axis=-2)


def _uniform_within(values: list[float]) -> bool:
    # Spread across the shift grid within five percent of the largest.
    top = max(values)
    if top <= 0:
        return True
    return (top - min(values)) / top <= 0.05


def certify_noise(model: NoiseModel, space: DirichletSpace) -> NoiseCertificate:
    """Estimate the Lipschitz and growth constants on 128 sampled state
    pairs, Gaussian states of random scale from a fixed seed, over the
    shifts (1, 0.5, 0.1, 0.01).

    The constants are the worst observed ratios over the samples and the
    whole shift grid, so they are the smallest constants consistent with
    the evidence.
    """
    rng = np.random.default_rng(_PAIR_SEED)
    states = rng.standard_normal((2 * _PAIR_COUNT, space.node_count))
    states *= rng.uniform(0.2, 3.0, size=(2 * _PAIR_COUNT, 1))
    u, v = states[:_PAIR_COUNT], states[_PAIR_COUNT:]

    # A diagonal operator's column k is b_k(u) times the indicator of node
    # k, so its eigen-coefficients are b_k(u) times row k of the weighted
    # basis: no dense operator stack is built.
    weighted_basis = space.measure[:, None] * space.basis
    if model.kind == "diagonal_multiplicative":
        bu = model._diagonal(u)
        diff_energy = _spectral_energy(
            (bu - model._diagonal(v))[..., :, None] * weighted_basis)
        u_energy = _spectral_energy(bu[..., :, None] * weighted_basis)
        l2_energy = np.einsum("i,...i,...i->...", space.measure, bu, bu)
    else:
        Bu = model.matrix(u)
        diff_energy = _spectral_energy(
            np.swapaxes(Bu - model.matrix(v), -1, -2) @ weighted_basis)
        u_energy = _spectral_energy(np.swapaxes(Bu, -1, -2) @ weighted_basis)
        l2_energy = np.einsum("i,...im,...im->...", space.measure, Bu, Bu)
    lip_by_shift = []
    growth_by_shift = []
    for shift in _SHIFT_GRID:
        weights = 1.0 / (space.eigenvalues + shift)
        du = space.dual_norm(u - v, shift=shift) ** 2
        dB = diff_energy @ weights
        good = du > 1e-14
        lip_by_shift.append(float(np.max(dB[good] / du[good], initial=0.0)))
        nb = u_energy @ weights
        growth_by_shift.append(float(np.max(
            nb / (space.dual_norm(u, shift=shift) ** 2 + 1.0))))
    l2 = float(np.max(l2_energy / (space.lp_norm(u, 2) ** 2 + 1.0)))

    return NoiseCertificate(
        lipschitz=max(lip_by_shift),
        dual_growth=max(growth_by_shift),
        l2_growth=l2,
        lipschitz_by_shift=tuple(lip_by_shift),
        dual_growth_by_shift=tuple(growth_by_shift),
        uniform_lipschitz=_uniform_within(lip_by_shift),
        uniform_dual_growth=_uniform_within(growth_by_shift),
        sample_count=_PAIR_COUNT,
    )


# -- increments ----------------------------------------------------------------


def _path_key(seed: int, tag: str, path: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}|{tag}|{path}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def brownian_increments(seed: int, tag: str, path_count: int,
                        step_count: int, mode_count: int,
                        dt: float) -> np.ndarray:
    """Gaussian increments of variance ``dt``, shape (paths, steps, modes).

    The block for each path comes from a counter-based generator keyed by a
    hash of (seed, tag, path), so the value at (path, step, mode) is a pure
    function of those coordinates and simulations sharing a tag are coupled
    exactly, independent of scheduling or the smoothing parameter.
    """
    out = np.empty((path_count, step_count, mode_count))
    root = np.sqrt(dt)
    for p in range(path_count):
        gen = np.random.Generator(np.random.Philox(key=_path_key(seed, tag, p)))
        out[p] = gen.standard_normal((step_count, mode_count)) * root
    return out

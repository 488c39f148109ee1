"""Finite-rank noise operators and the reproducible increment source.

A noise model maps a state to an operator from a finite mode space into
node-indexed densities.  Its Lipschitz constant with respect to the shifted
dual norms is estimated from sampled state pairs over a grid of shifts.
Brownian increments are derived counter-style: the block of increments for
a path is a pure function of (seed, coupling tag, path index), so runs that
share a tag consume identical noise regardless of evaluation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dirichlet import DirichletSpace

__all__ = [
    "NoiseModel",
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
        # A field the kind does not read keeps its default, so a model
        # equals the one its factory builds.  NaN fails every test here.
        if self.kind == "additive":
            if self.sigma != 0.0 or self.clip_at != 1e3:
                raise ValueError("additive reads no sigma or clip_at")
            columns = np.array(self.columns, dtype=float)
            if (columns.ndim != 2 or columns.shape[1] != self.mode_count
                    or not np.isfinite(columns).all()):
                raise ValueError("columns must form a finite (n, m) matrix "
                                 "with m = mode_count")
            object.__setattr__(self, "columns",
                               tuple(map(tuple, columns.tolist())))
            # The columns as one read-only array, built once for apply.
            columns.setflags(write=False)
            object.__setattr__(self, "_columns", columns)
        elif len(self.columns):
            raise ValueError(f"{self.kind} reads no columns")
        elif not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be nonnegative and finite")
        elif not self.clip_at >= 0:  # inf: no clipping
            raise ValueError("clip level must be nonnegative")

    def _diagonal(self, u: np.ndarray) -> np.ndarray:
        # Diagonal of a diagonal_multiplicative operator at ``u``.
        return self.sigma * np.clip(u, -self.clip_at, self.clip_at)

    def apply(self, u: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Increment ``B(u) dw``; batched over leading axes."""
        u = np.asarray(u, dtype=float)
        dw = np.asarray(dw, dtype=float)
        if self.kind == "diagonal_multiplicative":
            return self._diagonal(u) * dw
        # One product over all rows, flattened; _row_products keeps each
        # row's roundoff independent of how many rows are batched.
        rows = _row_products(dw.reshape(-1, dw.shape[-1]), self._columns.T)
        return rows.reshape(dw.shape[:-1] + rows.shape[-1:])


def additive_noise(columns) -> NoiseModel:
    return NoiseModel("additive", mode_count=np.shape(columns)[-1]
                      if np.ndim(columns) else 0, columns=columns)


def diagonal_noise(node_count: int, sigma: float, clip_at: float = 1e3) -> NoiseModel:
    return NoiseModel("diagonal_multiplicative", mode_count=node_count,
                      sigma=sigma, clip_at=clip_at)


def eigenmode_noise(space: DirichletSpace, modes: int,
                    amplitude: float) -> NoiseModel:
    """Additive noise whose columns are the lowest eigenfunctions."""
    if modes < 1:
        raise ValueError("need at least one mode")
    modes = min(modes, space.node_count)
    return additive_noise(amplitude * space.basis[:, :modes])


def _row_products(y: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``y @ matrix`` for a (rows, k) array ``y``, as one gemm.  With at
    least two rows each output row of the gemm depends on its own input
    row only, summed in a fixed order; numpy sends one row to gemv, which
    sums in another order, so a lone row is doubled."""
    if len(y) == 1:
        return (np.concatenate([y, y]) @ matrix)[:1]
    return y @ matrix


# -- certification -----------------------------------------------------------


def certify_noise(model: NoiseModel, space: DirichletSpace) -> float:
    """Lipschitz constant of the noise in the shifted dual norms: the worst
    ratio of the squared dual Hilbert-Schmidt distance of the operators to
    the squared dual distance of the states, over 128 state pairs (Gaussian,
    of random scale, from a fixed seed) and the shifts (1, 0.5, 0.1, 0.01).
    A worst sampled ratio, it is a lower bound of the constant.  Additive
    operators do not depend on the state, so their constant is 0."""
    if model.kind == "additive":
        return 0.0
    rng = np.random.default_rng(_PAIR_SEED)
    states = rng.standard_normal((2 * _PAIR_COUNT, space.node_count))
    states *= rng.uniform(0.2, 3.0, size=(2 * _PAIR_COUNT, 1))
    u, v = states[:_PAIR_COUNT], states[_PAIR_COUNT:]
    # Column k of a diagonal operator is b_k(u) times node k's indicator,
    # so its eigen-coefficients are b_k(u) times row k of the weighted
    # basis; their squares, summed over the columns and weighted by
    # 1 / (eigenvalues + shift), give the squared dual Hilbert-Schmidt norm.
    coef = ((model._diagonal(u) - model._diagonal(v))[..., :, None]
            * (space.measure[:, None] * space.basis))
    diff_energy = np.square(coef, out=coef).sum(axis=-2)
    by_shift = []
    for shift in _SHIFT_GRID:
        du = space.dual_norm(u - v, shift=shift) ** 2
        dB = diff_energy @ (1.0 / (space.eigenvalues + shift))
        good = du > 1e-14
        by_shift.append(float(np.max(dB[good] / du[good], initial=0.0)))
    return max(by_shift)


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

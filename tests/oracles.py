"""Reference formulas that only the tests use, kept apart from the package."""

from dataclasses import replace
from fractions import Fraction

import numpy as np


def breakpoints(potential) -> np.ndarray:
    """Points where the slope of ``potential`` jumps, excluded from
    smoothness-based checks."""
    if potential.kind == "piecewise":
        return np.asarray(potential.knots, dtype=float)
    return np.array([0.0])


def sampled_convexity_margins(knots, pieces, grid) -> tuple[float, float]:
    """The sampled convexity and monotone-subdifferential margins of the
    piecewise quadratic with ``knots`` and ``(a, b, c)`` rows ``pieces``,
    evaluated here so that a potential the constructor refuses can be
    checked too.  Convexity is read from 400 random convex combinations of
    grid points, ``(mix - value(mid)) / (1 + |mix|)``; monotonicity from the
    subdifferential intervals at neighbouring grid points.  A margin below
    about -1e-12 shows non-convexity; a nonnegative one proves nothing."""
    knots = np.asarray(knots, dtype=float)
    pieces = np.asarray(pieces, dtype=float)
    grid = np.sort(np.asarray(grid, dtype=float))

    def value(r):
        a, b, c = pieces[np.searchsorted(knots, r, side="right")].T
        return a * r**2 + b * r + c

    def slope(r, side):
        a, b, _ = pieces[np.searchsorted(knots, r, side=side)].T
        return 2.0 * a * r + b

    rng = np.random.default_rng(0xA55)
    x = rng.choice(grid, size=400)
    y = rng.choice(grid, size=400)
    lam = rng.uniform(0.0, 1.0, size=400)
    mix = lam * value(x) + (1 - lam) * value(y)
    mid = value(lam * x + (1 - lam) * y)
    convexity = float(((mix - mid) / (1.0 + np.abs(mix))).min())
    step = slope(grid[:-1], "right") - slope(grid[1:], "left")
    return convexity, float((-step).min(initial=0.0))


def sampled_space_invariants(space, rng=None, n_witness: int = 64) -> None:
    """Raise ``SpaceError`` where sampling refutes what the exact rules of
    ``check_space_invariants`` imply: the witness inequality
    ``sum(|u| g mu) <= energy(u)**0.5`` on ``n_witness`` standard normal
    functions drawn from ``rng`` (seed ``0x5EED`` by default), and entrywise
    positivity plus sup-norm contractivity of the semigroup at four times,
    each a dense transition matrix."""
    from graphspde.dirichlet import SpaceError

    mu = space.measure
    rng = np.random.default_rng(0x5EED) if rng is None else rng
    u = rng.standard_normal((n_witness, space.node_count))
    lhs = np.abs(u) @ (space.witness * mu)
    rhs = space.energy_norm(u)
    if np.any(lhs > rhs * (1 + 1e-10) + 1e-12):
        raise SpaceError("witness inequality fails on sampled functions")

    # Signs of M^(1/2) P M^(-1/2), scale-free unlike the roundoff of P.
    for t in (0.1, 0.5, 1.0, 2.0):
        P = space.transition_matrix(t)
        S = np.sqrt(mu)[:, None] * P / np.sqrt(mu)
        if S.min() < -1e-12 * S.max():
            raise SpaceError(f"semigroup not entrywise nonnegative at t={t}")
        if np.abs(P).sum(axis=1).max() > 1 + 1e-10:
            raise SpaceError(f"semigroup not sup-norm contractive at t={t}")


def gap_bound_pointwise(functional, eps: float, v) -> np.ndarray:
    """Integrated bound ``eps * minimal_section**2`` for the smoothing gap
    of an ``EnergyFunctional``."""
    return (eps * functional.potential.minimal_section(v) ** 2
            @ functional.space.measure)


def gap_bound_folded(functional, eps: float, v) -> np.ndarray:
    """State-size form of the gap bound with the linear-slope constant
    folded in; the potential must have a ``slope_bound``."""
    space = functional.space
    c = functional.potential.slope_bound
    l2sq = space.lp_norm(np.asarray(v, dtype=float), 2) ** 2
    return 2.0 * c**2 * eps * (l2sq + float(space.measure.sum()))


def certify_noise_dense(model, space) -> float:
    """``certify_noise`` from dense ``(samples, n, m)`` operator stacks for
    every noise kind: each sampled operator is built as a dense matrix and
    its columns are projected on the eigenbasis."""
    from graphspde.noise import _PAIR_COUNT, _PAIR_SEED, _SHIFT_GRID

    def dense(u):
        if model.kind == "additive":
            columns = np.asarray(model.columns)
            return np.broadcast_to(columns, u.shape[:-1] + columns.shape)
        out = np.zeros(u.shape + (u.shape[-1],))
        idx = np.arange(u.shape[-1])
        out[..., idx, idx] = model.sigma * np.clip(u, -model.clip_at,
                                                   model.clip_at)
        return out

    rng = np.random.default_rng(_PAIR_SEED)
    states = rng.standard_normal((2 * _PAIR_COUNT, space.node_count))
    states *= rng.uniform(0.2, 3.0, size=(2 * _PAIR_COUNT, 1))
    u, v = states[:_PAIR_COUNT], states[_PAIR_COUNT:]
    coef = (np.swapaxes(dense(u) - dense(v), -1, -2)
            @ (space.measure[:, None] * space.basis))
    diff_energy = (coef**2).sum(axis=-2)
    lip = []
    for shift in _SHIFT_GRID:
        du = space.dual_norm(u - v, shift=shift) ** 2
        dB = diff_energy @ (1.0 / (space.eigenvalues + shift))
        good = du > 1e-14
        lip.append(float(np.max(dB[good] / du[good], initial=0.0)))
    return max(lip)


def check_residual(smoother, r, s) -> None:
    """Raise ``ResolventError`` where ``r - s`` lies farther than
    ``1e-12 (1 + |r|)`` from ``eps * subdiff(s)`` at a finite ``r``, for a
    zhang or piecewise ``MoreauYosida`` ``smoother``, whose resolvent
    returns its closed form unchecked."""
    from graphspde.monotone import _refuse

    pot, eps = smoother.potential, smoother.eps
    with np.errstate(over="ignore"):
        lo, hi = pot.subdiff(s)
        gap = np.maximum(eps * lo - (r - s), (r - s) - eps * hi)
        over = gap == np.inf
        if over.any():
            # Near the top of the float range eps times the slope, and a
            # piecewise slope 2 a s + b itself, can overflow where the gap
            # does not: take four times the gap of a quarter of the
            # potential there.
            if pot.kind == "zhang":
                lo, hi = (b / 4.0 for b in pot.subdiff(s))
            else:
                lo, hi = replace(pot, pieces=tuple(
                    tuple(c / 4.0 for c in piece)
                    for piece in pot.pieces)).subdiff(s)
            d = (r - s) / 4.0
            gap = np.where(over, 4.0 * np.maximum(eps * lo - d,
                                                  d - eps * hi), gap)
    _refuse(gap, r)


def piecewise_resolvent_exact(potential, eps: float, r) -> np.ndarray:
    """Resolvent of a piecewise potential at each finite float of ``r``, in
    rational arithmetic on the float knots, coefficients and ``eps``,
    rounded once to the nearest float: the knot ``k`` whose band
    ``[k + eps left, k + eps right]`` of one-sided slopes holds ``r``, else
    the root ``(r - eps b) / (1 + 2 eps a)`` of the piece whose interval
    holds it.  Where the float coefficients are convex only to roundoff,
    two candidates can hold ``r``, within roundoff of each other; the first
    is taken."""
    eps = Fraction(float(eps))
    knots = [Fraction(k) for k in potential.knots]
    pieces = [tuple(map(Fraction, piece)) for piece in potential.pieces]
    ends = [None, *knots, None]

    def solve(x):
        for k, (a0, b0, _), (a1, b1, _) in zip(knots, pieces, pieces[1:]):
            if k + eps * (2 * a0 * k + b0) <= x <= k + eps * (2 * a1 * k + b1):
                return k
        for (a, b, _), lo, hi in zip(pieces, ends, ends[1:]):
            s = (x - eps * b) / (1 + 2 * eps * a)
            if (lo is None or lo <= s) and (hi is None or s <= hi):
                return s
        raise AssertionError(f"no band or piece holds {float(x)!r}")

    r = np.asarray(r, dtype=float)
    return np.array([float(solve(Fraction(x))) for x in r.ravel()]
                    ).reshape(r.shape)


def piecewise_rounding_ulp(potential, eps: float, r, s) -> np.ndarray:
    """One ulp of the size of the terms the piecewise resolvent formula
    rounds at ``r``, with resolvent ``s``: the largest of ``|r|``, ``|s|``
    and ``eps`` times either term ``|2 a s|``, ``|b|`` of the slope of each
    piece that meets ``s``.  ``2 eps a`` is taken first, so the product
    stays below ``|r|`` where the root does; the ulp is read from the
    exponent, so the largest float has one too."""
    pieces = np.asarray(potential.pieces)
    scale = np.maximum(np.abs(r), np.abs(s))
    for side in ("left", "right"):
        a, b, _ = pieces[potential._piece_index(s, side=side)].T
        scale = np.maximum.reduce([scale, (2.0 * eps * a) * np.abs(s),
                                   eps * np.abs(b)])
    return np.maximum(np.ldexp(1.0, np.frexp(scale)[1] - 53), 5e-324)


def power_root_bisection(p: float, eps: float, a: np.ndarray) -> np.ndarray:
    """Root of ``s + eps s**p = a`` for ``a >= 0``: the largest double ``s``
    in ``[0, a]`` with ``s + eps s**p <= a``, by bisection on the bit
    patterns of nonnegative doubles, which are ordered like their values.
    Where ``s**p`` overflows, ``eps s**p`` is compared with ``a - s`` in
    logarithms."""
    a = np.asarray(a, dtype=float)
    lo = np.zeros(a.shape, dtype=np.int64)
    hi = a.view(np.int64).copy()
    for _ in range(64):
        mid = lo + (hi - lo) // 2
        s = mid.view(np.float64)
        with np.errstate(over="ignore", divide="ignore"):
            power = s**p
            above = np.where(power == np.inf,
                             np.log(eps) + p * np.log(s) > np.log(a - s),
                             s + eps * power > a)
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return lo.view(np.float64)


def power_values(smoother, r, previous=None):
    """``(slope, slope_derivative, envelope)`` of a power kind at ``r``
    from its resolvent, by the formulas ``MoreauYosida.evaluate`` used
    before it took ``|s|`` and ``|s|^p`` once: three absolute values, a
    masked quotient and a masked derivative on every element."""
    r = np.asarray(r, dtype=float)
    p, eps = smoother.potential.exponent, smoother.eps
    s = smoother.resolvent(r, previous)
    slope = np.sign(s) * np.abs(s) ** p
    a = np.abs(s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = p * np.where(a > 0, np.abs(slope) / a, np.inf)
        derivative = np.where(
            np.isfinite(t), t / (1.0 + eps * t),
            np.where((a > 0) | (p < 1.0), 1.0 / eps, 0.0))
    envelope = ((r - s) ** 2 / (2.0 * eps)
                + np.abs(s) * np.abs(slope) / (p + 1.0))
    return slope, derivative, envelope


def dual_metric(space):
    """The dense dual metric ``M K^-1``, from the mu-orthonormal
    eigenbasis ``Phi`` of ``K``: ``M Phi Lambda^-1 Phi^T M``."""
    mu, basis = space.measure, space.basis
    return mu[:, None] * ((basis * (1.0 / space.eigenvalues))
                          @ (basis.T * mu))


def replayed_test_process(ensemble):
    """``build_test_process(ensemble, ensemble.config.initial,
    drift=ensemble)`` with the replayed drift from whole (paths, steps,
    nodes) arrays."""
    from graphspde.estimates import TestProcess
    from graphspde.monotone import MoreauYosida

    cfg = ensemble.config
    smoother = MoreauYosida(cfg.potential, cfg.eps)
    post = ensemble.states[:, 1:]    # drift is implicit in the next state
    w = smoother.yosida(post) + cfg.eps * post
    G = w @ cfg.space.generator.T
    Z = np.empty_like(ensemble.states)
    Z[:, 0] = cfg.initial
    for k in range(cfg.step_count):
        inc = cfg.noise.apply(Z[:, k], ensemble.increments[:, k])
        Z[:, k + 1] = Z[:, k] + cfg.dt * G[:, k] + inc
    return TestProcess(ensemble, G, Z, "from_regularized")


def svi_report(ensemble, test):
    """``check_svi(ensemble, [test])[0]`` from whole (paths, steps, nodes)
    arrays."""
    from graphspde.estimates import EnergyFunctional, _cum_trapz
    from graphspde.reports import EstimateReport, batch_mean_ci

    cfg = ensemble.config
    space = cfg.space
    dt = cfg.dt
    functional = EnergyFunctional(space, cfg.potential)
    int_phi_x = _cum_trapz(functional.value(ensemble.states), dt)
    X, Z = ensemble.states, test.states
    diff = X - Z
    dsq = space.dual_norm(diff) ** 2                    # (P, K+1)
    int_phi_z = _cum_trapz(functional.value(Z), dt)
    int_dsq = _cum_trapz(dsq, dt)

    if test.drift is None:
        int_pair = np.zeros_like(dsq)
    else:
        mid = 0.5 * (diff[:, :-1] + diff[:, 1:])
        pair = space.dual_inner(test.drift, mid)        # (P, K)
        int_pair = np.concatenate(
            [np.zeros((dsq.shape[0], 1)), dt * np.cumsum(pair, axis=1)], axis=1)

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
        constants={"fitted_constant": fitted, "used_constant": fitted,
                   "eps": cfg.eps},
        columns=("time", "lhs", "rhs", "margin", "ci"),
        series=series,
        notes=(f"test process mode = {test.mode}",),
    )

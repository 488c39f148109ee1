"""Reference formulas that only the tests use, kept apart from the package."""

import numpy as np


def breakpoints(potential) -> np.ndarray:
    """Points where the slope of ``potential`` jumps, excluded from
    smoothness-based checks."""
    if potential.kind == "piecewise":
        return np.asarray(potential.knots, dtype=float)
    return np.array([0.0])


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


def certify_noise_dense(model, space):
    """``certify_noise`` from dense ``(samples, n, m)`` operator stacks for
    every noise kind: each sampled operator is built with
    ``model.matrix`` and its columns are projected on the eigenbasis."""
    from graphspde.noise import (
        _PAIR_COUNT,
        _PAIR_SEED,
        _SHIFT_GRID,
        NoiseCertificate,
        _uniform_within,
    )

    def spectral_energy(B):
        c = np.swapaxes(B, -1, -2) @ (space.measure[:, None] * space.basis)
        return (c**2).sum(axis=-2)

    rng = np.random.default_rng(_PAIR_SEED)
    states = rng.standard_normal((2 * _PAIR_COUNT, space.node_count))
    states *= rng.uniform(0.2, 3.0, size=(2 * _PAIR_COUNT, 1))
    u, v = states[:_PAIR_COUNT], states[_PAIR_COUNT:]
    Bu = model.matrix(u)
    diff_energy = spectral_energy(Bu - model.matrix(v))
    u_energy = spectral_energy(Bu)
    lip, growth = [], []
    for shift in _SHIFT_GRID:
        weights = 1.0 / (space.eigenvalues + shift)
        du = space.dual_norm(u - v, shift=shift) ** 2
        dB = diff_energy @ weights
        good = du > 1e-14
        lip.append(float(np.max(dB[good] / du[good], initial=0.0)))
        growth.append(float(np.max(
            u_energy @ weights / (space.dual_norm(u, shift=shift) ** 2 + 1.0))))
    l2_energy = np.einsum("i,...im,...im->...", space.measure, Bu, Bu)
    return NoiseCertificate(
        lipschitz=max(lip),
        dual_growth=max(growth),
        l2_growth=float(np.max(l2_energy / (space.lp_norm(u, 2) ** 2 + 1.0))),
        lipschitz_by_shift=tuple(lip),
        dual_growth_by_shift=tuple(growth),
        uniform_lipschitz=_uniform_within(lip),
        uniform_dual_growth=_uniform_within(growth),
        sample_count=_PAIR_COUNT,
    )


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

"""Tests for the integrated functional, mollification, test processes and
the estimate experiments."""

from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    gap_bound_folded,
    gap_bound_pointwise,
    replayed_test_process,
    svi_report,
)

from graphspde.dirichlet import (
    BernsteinFunction,
    build_graph_space,
    complete_space,
    path_space,
    single_node_space,
    subordinate,
)
from graphspde import estimates
from graphspde.engine import (
    SimulationConfig,
    energy_budget,
    simulate,
    simulate_coupled,
)
from graphspde.estimates import (
    EnergyFunctional,
    _cum_trapz,
    build_test_process,
    check_svi,
    contraction_experiment,
    default_decay_rate,
    epsilon_convergence,
    mollify_sequence,
    pairwise_smoothing_gap,
    regularity_budget,
    energy_uniformity,
    regularity_uniformity,
)
from graphspde.monotone import (
    fast_diffusion,
    piecewise_quadratic,
    zhang,
)
from graphspde.noise import diagonal_noise, eigenmode_noise


def make_config(space, potential, sigma=0.2, eps=0.1, horizon=0.5, steps=16,
                paths=8, initial=None, seed=11, tag="est"):
    n = space.node_count
    if initial is None:
        initial = np.linspace(0.5, -0.5, n)
    return SimulationConfig(
        space=space, potential=potential,
        noise=diagonal_noise(n, sigma), eps=eps, horizon=horizon,
        step_count=steps, path_count=paths,
        initial=np.asarray(initial, dtype=float), seed=seed,
        coupling_tag=tag)


def simulate_ladder(config, eps_list):
    return [simulate(config.with_eps(eps)) for eps in eps_list]


# -- integrated functional -------------------------------------------------------


def test_functional_zero_state():
    func = EnergyFunctional(path_space(3), zhang())
    assert func.value(np.zeros(3)) == pytest.approx(0.0)
    assert func.smoothed(0.3, np.zeros(3)) == pytest.approx(0.0)


def test_functional_single_node_sandpile():
    func = EnergyFunctional(single_node_space(), zhang())
    assert func.value(np.array([2.0])) == pytest.approx(4.0)


def test_functional_two_node_fast_diffusion():
    space = build_graph_space([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], [1.0, 1.0])
    func = EnergyFunctional(space, fast_diffusion(0.5))
    assert func.value(np.array([1.0, 4.0])) == pytest.approx(6.0)


def test_smoothed_value_and_gap_single_node():
    func = EnergyFunctional(single_node_space(), zhang())
    v = np.array([2.0])
    assert func.smoothed(0.5, v) == pytest.approx(2.5)
    gap = func.value(v) - func.smoothed(0.5, v)
    assert gap == pytest.approx(1.5)
    assert gap <= gap_bound_pointwise(func, 0.5, v) + 1e-12
    assert gap_bound_pointwise(func, 0.5, v) == pytest.approx(0.5 * 9.0)


def test_smoothed_increases_toward_value():
    space = path_space(5)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(5) * 2
    for pot in (zhang(), fast_diffusion(0.5)):
        func = EnergyFunctional(space, pot)
        vals = [func.smoothed(e, v) for e in (0.5, 0.1, 0.01)]
        assert vals[0] <= vals[1] <= vals[2] <= func.value(v) + 1e-12


def test_functional_convexity_and_folded_gap_bound():
    space = path_space(6)
    rng = np.random.default_rng(3)
    for pot in (zhang(), fast_diffusion(0.5)):
        func = EnergyFunctional(space, pot)
        for _ in range(100):
            u = rng.standard_normal(6) * 2
            v = rng.standard_normal(6) * 2
            lam = rng.uniform()
            mix = lam * func.value(u) + (1 - lam) * func.value(v)
            assert func.value(lam * u + (1 - lam) * v) <= mix + 1e-10 * (1 + mix)
            for eps in (0.5, 0.1):
                gap = func.value(u) - func.smoothed(eps, u)
                assert 0 <= gap + 1e-12
                assert gap <= gap_bound_folded(func, eps, u) + 1e-10


# -- mollification ----------------------------------------------------------------


def test_mollify_zero_state():
    func = EnergyFunctional(path_space(3), zhang())
    seq = mollify_sequence(func, np.zeros(3), n_max=8)
    assert np.allclose(seq.states, 0.0)
    assert np.allclose(seq.values, 0.0)


def test_mollify_single_node_closed_form():
    func = EnergyFunctional(single_node_space(), zhang())
    seq = mollify_sequence(func, np.array([3.0]), n_max=16)
    expected = 3.0 * np.exp(-1.0 / seq.orders)
    assert np.allclose(seq.states[:, 0], expected, atol=1e-12)


def test_mollify_monotone_below_value():
    space = build_graph_space([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], [1.0, 1.0])
    func = EnergyFunctional(space, zhang())
    v = np.array([3.0, -1.0])
    seq = mollify_sequence(func, v, n_max=64)
    assert np.all(seq.values <= seq.value_at_state + 1e-12)
    assert np.all(np.diff(seq.values) >= -1e-12)
    assert np.all(np.diff(seq.dual_gaps) <= 1e-12)
    assert seq.dual_gaps[-1] <= 0.1 * seq.dual_gaps[0] + 1e-12


def test_mollify_converges_on_presets():
    # States are drawn through the order-3 Gamma-transform: mollification
    # convergence at a fixed ladder depth is quantitative only for states
    # carrying smoothness, and rough one-sided bumps would be erased.
    rng = np.random.default_rng(5)
    for space in (path_space(16), path_space(2)):
        for pot in (zhang(), fast_diffusion(0.5)):
            func = EnergyFunctional(space, pot)
            for _ in range(20):
                v = space.gamma_transform(3.0, rng.standard_normal(space.node_count))
                seq = mollify_sequence(func, v, n_max=64)
                assert np.all(seq.values <= seq.value_at_state + 1e-12)
                gap = abs(seq.values[-1] - seq.value_at_state)
                assert gap <= 0.05 * (1.0 + seq.value_at_state)


# -- test processes -----------------------------------------------------------------


def test_zero_drift_zero_noise_is_constant():
    space = path_space(3)
    cfg = make_config(space, zhang(), sigma=0.0, paths=2)
    ens = simulate(cfg)
    z0 = np.array([0.4, -0.2, 1.0])
    proc = build_test_process(ens, z0)
    assert np.allclose(proc.states, z0, atol=1e-14)
    assert proc.mode == "zero"


def test_constant_drift_is_linear_ramp():
    space = path_space(3)
    cfg = make_config(space, zhang(), sigma=0.0, paths=2, steps=10)
    ens = simulate(cfg)
    z0 = np.zeros(3)
    g = np.array([1.0, -2.0, 0.5])
    proc = build_test_process(ens, z0, drift=g)
    times = ens.times
    expected = times[None, :, None] * g[None, None, :]
    assert np.abs(proc.states - expected).max() <= 1e-12
    assert proc.mode == "constant"


def test_constant_drift_is_a_read_only_view():
    space = path_space(3)
    cfg = make_config(space, zhang(), sigma=0.0, paths=2, steps=10)
    ens = simulate(cfg)
    g = np.array([1.0, -2.0, 0.5])
    proc = build_test_process(ens, np.zeros(3), drift=g)
    assert proc.drift.shape == (2, 10, 3)
    assert not proc.drift.flags.writeable
    assert np.array_equal(proc.drift, np.broadcast_to(g, (2, 10, 3)))
    g[0] = 7.0    # the view is of the process's own copy
    assert np.all(proc.drift[..., 0] == 1.0)


def test_large_state_test_process_builds():
    # States near 1e4 once tripped a 1e-12 absolute self-check of the
    # recursion; the recursion itself must hold to relative roundoff.
    space = path_space(8)
    cfg = make_config(space, zhang(), paths=3, steps=8)
    ens = simulate(cfg)
    g = np.full(8, 0.1)
    proc = build_test_process(ens, np.full(8, 1e4), drift=g)
    Z = proc.states
    assert np.array_equal(Z[:, 0], np.full((3, 8), 1e4))
    for k in range(cfg.step_count):
        inc = cfg.noise.apply(Z[:, k], ens.increments[:, k])
        gap = Z[:, k + 1] - Z[:, k] - cfg.dt * g - inc
        assert np.abs(gap).max() <= 1e-12 * np.abs(Z[:, k]).max()


def test_replayed_drift_reproduces_the_run():
    space = path_space(4)
    cfg = make_config(space, fast_diffusion(0.5), sigma=0.2, paths=4, steps=32)
    ens = simulate(cfg)
    proc = build_test_process(ens, cfg.initial, drift=ens)
    gap = np.abs(proc.states - ens.states).max()
    assert gap <= 1e-8
    assert proc.mode == "from_regularized"


def test_test_process_tag_and_coupling_validation():
    space = path_space(3)
    cfg = make_config(space, zhang(), paths=2)
    ens = simulate(cfg)
    other = simulate(make_config(space, zhang(), paths=2, tag="different"))
    with pytest.raises(ValueError, match="not coupled"):
        build_test_process(ens, np.zeros(3), drift=other)
    with pytest.raises(ValueError, match="node-indexed"):
        build_test_process(ens, np.zeros(5))


# -- variational inequality ------------------------------------------------------------


def test_svi_self_test_degenerate():
    space = path_space(4)
    cfg = make_config(space, zhang(), sigma=0.2, paths=8, steps=16)
    ens = simulate(cfg)
    proc = build_test_process(ens, cfg.initial, drift=ens)
    (report,) = check_svi(ens, [proc])
    assert report.passed
    assert np.isfinite(report.constants["fitted_constant"])


def test_svi_linear_regime_closed_form():
    # Flat-region sandpile flow with zero noise and a constant test process:
    # the report's sides must match hand-computed spectral values.
    space = path_space(3)
    x0 = np.array([-1.0, -0.5, -2.0])
    cfg = make_config(space, zhang(), sigma=0.0, paths=1, steps=8,
                      horizon=0.4, initial=x0)
    ens = simulate(cfg)
    proc = build_test_process(ens, x0)
    (report,) = check_svi(ens, [proc])
    # closed-form reference: backward linear flow, potential vanishes on
    # nonpositive states
    dt = cfg.dt
    A = np.eye(3) - cfg.eps * dt * space.generator
    x = x0.copy()
    states = [x0]
    for _ in range(8):
        x = np.linalg.solve(A, x)
        states.append(x)
    states = np.array(states)
    dsq = space.dual_norm(states - x0) ** 2
    rows = report.series
    for k, row in enumerate(rows):
        time, lhs, rhs, margin, ci = row
        assert lhs == pytest.approx(dsq[k], abs=1e-10)  # potential term is 0
        assert ci == 0.0
    assert report.constants["fitted_constant"] < np.inf


def test_svi_generic_run_passes_with_fitted_constant():
    space = path_space(8)
    for pot in (zhang(), fast_diffusion(0.5)):
        cfg = make_config(space, pot, sigma=0.2, paths=40, steps=16,
                          eps=0.05, seed=21)
        ens = simulate(cfg)
        procs = [build_test_process(ens, np.zeros(8), drift=drift)
                 for drift in (None, np.full(8, 0.1), ens)]
        reports = check_svi(ens, procs)
        for proc, report in zip(procs, reports, strict=True):
            assert report.passed, (pot.kind, proc.mode)
            assert np.isfinite(report.constants["fitted_constant"])
            # The run's integral is shared; each report is that of its own
            # call.
            (alone,) = check_svi(ens, [proc])
            assert report.series == alone.series
            assert report.constants == alone.constants


def test_svi_replayed_drift_passes_for_every_builtin():
    from graphspde.monotone import piecewise_quadratic, porous_medium

    space = path_space(6)
    kinds = [zhang(), fast_diffusion(0.5), porous_medium(2.0),
             piecewise_quadratic([-1.0, 1.0],
                                 [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0),
                                  (2.0, -2.0, 0.0)])]
    for pot in kinds:
        for eps in (0.1, 0.05):
            cfg = make_config(space, pot, sigma=0.15, paths=24, steps=12,
                              eps=eps, seed=33,
                              initial=np.full(6, 0.4))
            ens = simulate(cfg)
            proc = build_test_process(ens, cfg.initial, drift=ens)
            (report,) = check_svi(ens, [proc])
            assert report.passed, (pot.kind, eps)


def test_svi_decoupled_rejected():
    space = path_space(3)
    ens = simulate(make_config(space, zhang(), paths=2))
    other = simulate(make_config(space, zhang(), paths=2, tag="zzz"))
    proc = build_test_process(other, np.zeros(3))
    with pytest.raises(ValueError, match="coupled"):
        check_svi(ens, [proc])


# -- blocks of paths --------------------------------------------------------------


def _bits(report):
    return np.array(report.series).view(np.int64), report.to_text()


@pytest.mark.parametrize("bernstein", [None, BernsteinFunction.power(0.5)],
                         ids=["tridiagonal", "subordinated"])
def test_svi_blocks_match_the_whole_run_oracle(bernstein, monkeypatch):
    # Every report and the replayed drift and states equal the whole-run
    # oracles bit for bit, whatever the block size: one path per block,
    # the default, and the whole run in one block.
    n, steps = 32, 63
    space = path_space(n)
    if bernstein is not None:
        space = subordinate(space, bernstein)
    # Paths per block at the default size, over grid rows and over steps.
    block = 16
    assert estimates._BLOCK_VALUES // ((steps + 1) * n) == block
    assert estimates._BLOCK_VALUES // (steps * n) == block
    for paths in (1, block - 1, block, block + 1, 3 * block + 2):
        cfg = make_config(space, zhang(), paths=paths, steps=steps, eps=0.05,
                          seed=17)
        ens = simulate(cfg)
        oracle = replayed_test_process(ens)
        for values in (1, 2**15, 2**40):
            monkeypatch.setattr(estimates, "_BLOCK_VALUES", values)
            procs = [build_test_process(ens, np.zeros(n)),
                     build_test_process(ens, np.zeros(n),
                                        drift=np.full(n, 0.3)),
                     build_test_process(ens, cfg.initial, drift=ens)]
            where = (paths, values)
            assert np.array_equal(procs[2].drift, oracle.drift), where
            assert np.array_equal(procs[2].states, oracle.states), where
            for proc, report in zip(procs, check_svi(ens, procs)):
                got, want = _bits(report), _bits(svi_report(ens, proc))
                assert np.array_equal(got[0], want[0]), (where, proc.mode)
                assert got[1] == want[1], (where, proc.mode)


def test_svi_estimators_hold_no_whole_run_temporary():
    import tracemalloc

    paths, n = 50, 64
    cfg = make_config(path_space(n), zhang(), paths=paths, steps=128,
                      eps=0.05, seed=19)
    ens = simulate(cfg)
    whole = ens.states.nbytes
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        procs = [build_test_process(ens, np.zeros(n)),
                 build_test_process(ens, np.zeros(n), drift=np.full(n, 0.3)),
                 build_test_process(ens, cfg.initial, drift=ens)]
        build_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        check_svi(ens, procs)
        check_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # The constant drift is a view; the replayed drift is an array.
    returned = sum(p.states.nbytes for p in procs) + procs[2].drift.nbytes
    assert build_peak < returned + whole
    assert check_peak < whole


# -- contraction -------------------------------------------------------------------


def test_contraction_identical_initials_degenerate():
    cfg = make_config(path_space(4), zhang(), paths=4)
    report = contraction_experiment(simulate(cfg), simulate(cfg),
                                    decay_rate=1.0)
    assert report.passed
    assert "degenerate" in report.notes[0]


def test_contraction_monotone_scalar_flow():
    # No noise: the scalar flow is a contraction, ratio stays at or below
    # one even with no exponential weighting.
    cfg = SimulationConfig(
        space=single_node_space(), potential=fast_diffusion(0.5),
        noise=diagonal_noise(1, 0.0), eps=0.2, horizon=1.0, step_count=32,
        path_count=1, initial=np.array([2.0]), seed=5, coupling_tag="c")
    report = contraction_experiment(
        simulate(cfg), simulate(cfg.with_initial([1.0])), decay_rate=0.0)
    assert report.passed
    assert report.constants["sup_ratio"] <= 1.0 + 1e-10


@pytest.mark.parametrize("make_space", [
    lambda: path_space(16),
    lambda: subordinate(path_space(16), BernsteinFunction.power(0.5)),
    lambda: complete_space(8),
], ids=["path_16", "path_16_power_0.5", "complete_8"])
def test_contraction_linear_gaussian_closed_form(make_space):
    # A quadratic potential a r^2 with additive noise makes the scheme the
    # linear recursion X_{k+1} = R (X_k + B dW_k), R = (I + dt c K)^-1,
    # c = 2a / (1 + 2a eps) + eps, K minus the generator, so the coupled
    # gap is X_k - Y_k = R^k (x0 - y0) on every path and the weighted ratio
    # has a closed form.  The dual norm is u . M K^-1 u.
    space = make_space()
    n, a, eps, rate = space.node_count, 1.5, 0.05, 0.7
    cfg = SimulationConfig(
        space=space, potential=piecewise_quadratic([0.0], [[a, 0, 0]] * 2),
        noise=eigenmode_noise(space, 3, 0.3), eps=eps, horizon=0.5,
        step_count=32, path_count=20, initial=np.cos(np.arange(n)),
        seed=3, coupling_tag="linear")
    y0 = np.full(n, -0.5)
    report = contraction_experiment(simulate(cfg),
                                    simulate(cfg.with_initial(y0)),
                                    decay_rate=rate)

    K = -space.generator
    c = 2 * a / (1 + 2 * a * eps) + eps
    R = np.linalg.inv(np.eye(n) + cfg.dt * c * K)
    dual = space.measure[:, None] * np.linalg.inv(K)
    gap = cfg.initial - y0
    expected = []
    for t in cfg.times:
        expected.append(np.exp(-rate * t) * (gap @ dual @ gap))
        gap = R @ gap
    expected = np.array(expected) / expected[0]
    times, ratio, _ = np.array(report.series).T
    assert np.array_equal(times, cfg.times)
    assert np.abs(ratio / expected - 1).max() <= 1e-12


def test_contraction_stochastic_path_graph():
    space = path_space(8)
    cfg = make_config(space, zhang(), sigma=0.2, paths=60, steps=16,
                      initial=np.full(8, 0.5), seed=9)
    y0 = cfg.initial + space.basis[:, 0] / space.dual_norm(space.basis[:, 0])
    report = contraction_experiment(simulate(cfg),
                                    simulate(cfg.with_initial(y0)))
    assert report.constants["initial_gap_sq"] == pytest.approx(1.0, rel=1e-10)
    assert report.passed


# -- smoothing-level convergence ---------------------------------------------------


def test_pairwise_gap_vanishes_at_equal_levels():
    cfg = make_config(path_space(4), zhang(), paths=4)
    gap = pairwise_smoothing_gap(simulate(cfg), simulate(cfg), decay_rate=1.0)
    assert np.allclose(gap, 0.0)


@pytest.mark.parametrize("change", [
    {"coupling_tag": "other"}, {"seed": 12}, {"path_count": 3},
    {"step_count": 8}, {"horizon": 0.25},
    {"space": path_space(3)}, {"potential": fast_diffusion(0.5)},
    {"noise": diagonal_noise(3, 0.3)},
], ids=["tag", "seed", "paths", "steps", "horizon", "space", "potential",
        "noise"])
def test_ladder_and_pair_estimators_refuse_uncoupled_runs(change):
    # The first five break the coupling of the increments: the estimators
    # and simulate_coupled refuse them.  The others keep the increments
    # coupled but cannot be stepped as one batch, so simulate_coupled alone
    # refuses them.
    space = path_space(3)
    cfg = make_config(space, zhang(), paths=2)
    other = replace(cfg, eps=0.05, **change)
    batch_only = set(change) & {"space", "potential", "noise"}
    with pytest.raises(ValueError, match=("must share" if batch_only
                                          else "not coupled")):
        simulate_coupled([cfg, other])
    if batch_only:
        return
    ens, off = simulate(cfg), simulate(other)
    with pytest.raises(ValueError, match="not coupled"):
        pairwise_smoothing_gap(ens, off, decay_rate=1.0)
    with pytest.raises(ValueError, match="not coupled"):
        epsilon_convergence([ens, off], decay_rate=1.0)
    with pytest.raises(ValueError, match="not coupled"):
        contraction_experiment(ens, off, decay_rate=1.0)


def test_epsilon_convergence_deterministic_scalar():
    cfg = SimulationConfig(
        space=single_node_space(), potential=fast_diffusion(0.5),
        noise=diagonal_noise(1, 0.0), eps=0.1, horizon=1.0, step_count=64,
        path_count=1, initial=np.array([2.0]), seed=7, coupling_tag="sc")
    report = epsilon_convergence(
        simulate_ladder(cfg, [0.2, 0.1, 0.05, 0.025]), decay_rate=0.0)
    assert report.constants["strictly_decreasing"]
    assert report.constants["slope"] >= 0.8
    assert report.passed


def test_epsilon_convergence_validation():
    cfg = make_config(path_space(3), zhang(), paths=2)
    with pytest.raises(ValueError, match="two smoothing"):
        epsilon_convergence(simulate_ladder(cfg, [0.1]), decay_rate=1.0)
    with pytest.raises(ValueError, match="decreasing"):
        epsilon_convergence(simulate_ladder(cfg, [0.1, 0.2]), decay_rate=1.0)


def test_epsilon_convergence_refuses_unbounded_slope_kind():
    from graphspde.monotone import porous_medium

    cfg = make_config(path_space(3), porous_medium(2.0), paths=2)
    with pytest.raises(ValueError, match="minimal-section"):
        epsilon_convergence(simulate_ladder(cfg, [0.2, 0.1]), decay_rate=1.0)


# -- regularity and uniformity ----------------------------------------------------


def test_regularity_budget_zero_run():
    cfg = make_config(path_space(3), zhang(), sigma=0.0,
                      initial=np.zeros(3), paths=2)
    report = regularity_budget(simulate(cfg))
    assert report.constants["budget"] == pytest.approx(0.0, abs=1e-14)


def test_regularity_budget_deterministic_quadrature():
    cfg = SimulationConfig(
        space=single_node_space(), potential=zhang(),
        noise=diagonal_noise(1, 0.0), eps=0.1, horizon=1.0, step_count=32,
        path_count=1, initial=np.array([2.0]), seed=3, coupling_tag="rb")
    ens = simulate(cfg)
    func = EnergyFunctional(cfg.space, cfg.potential)
    report = regularity_budget(ens)
    smoothed = func.smoothed(cfg.eps, ens.states)[0]
    expected = np.trapezoid(smoothed, ens.times)
    assert report.constants["budget"] == pytest.approx(expected, rel=1e-12)
    denom = cfg.space.dual_norm(cfg.initial) ** 2 + 1.0
    assert report.constants["implied_constant"] == pytest.approx(
        expected / denom, rel=1e-12)


def test_uniformity_bands():
    cfg = make_config(path_space(4), zhang(), sigma=0.1, paths=20, steps=16,
                      initial=np.full(4, 0.5))
    ladder = simulate_ladder(cfg, [0.2, 0.1, 0.05])
    rep_e = energy_uniformity([energy_budget(ens) for ens in ladder])
    rep_r = regularity_uniformity([regularity_budget(ens) for ens in ladder])
    assert [row[0] for row in rep_e.series] == [0.2, 0.1, 0.05]
    assert rep_e.constants["band_ratio"] < np.inf
    assert rep_r.constants["band_ratio"] < np.inf
    assert rep_e.passed
    assert rep_r.passed
    with pytest.raises(ValueError, match="regularity_budget"):
        regularity_uniformity([energy_budget(ens) for ens in ladder])


def test_default_decay_rate_uses_certificate():
    cfg = make_config(path_space(3), zhang(), sigma=0.0, paths=2)
    assert default_decay_rate(cfg) == pytest.approx(1.0)  # silent noise


@pytest.mark.parametrize("shape", [(50, 129), (3, 2), (7, 1), (1, 1000)])
@pytest.mark.parametrize("dt", [0.1, 1 / 128, 0.37])
def test_cum_trapz_bitwise_equals_scipy(shape, dt):
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(shape[0] * shape[1])
    magnitude = 10.0 ** rng.uniform(-5.0, 5.0, shape)
    f = rng.choice([-1.0, 1.0], shape) * magnitude
    expected = cumulative_trapezoid(f, dx=dt, axis=1, initial=0.0)
    assert np.array_equal(_cum_trapz(f, dt), expected)

"""Tests for the semi-implicit stepper, path simulation, noise
certification, the reproducible increment source and trajectory artifacts."""

import numpy as np
import pytest

from graphspde.dirichlet import (
    BernsteinFunction,
    build_graph_space,
    complete_space,
    path_space,
    single_node_space,
    subordinate,
)
from graphspde.engine import (
    SimulationConfig,
    StepSolverError,
    TrajectoryEnsemble,
    _implicit_step_batch,
    _NewtonSystem,
    energy_budget,
    simulate,
    step_semi_implicit,
    write_metadata,
    write_trajectories,
)
from graphspde.monotone import (
    MoreauYosida,
    fast_diffusion,
    piecewise_quadratic,
    zhang,
)
from graphspde.noise import (
    additive_noise,
    brownian_increments,
    certify_noise,
    diagonal_noise,
    eigenmode_noise,
    linear_combination_noise,
)


def base_config(**overrides):
    space = path_space(4)
    defaults = dict(
        space=space,
        potential=zhang(),
        noise=diagonal_noise(space.node_count, 0.2),
        eps=0.1,
        horizon=0.5,
        step_count=16,
        path_count=8,
        initial=np.array([1.0, -0.5, 0.25, 0.0]),
        seed=42,
        coupling_tag="test",
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


# -- increments ---------------------------------------------------------------


def test_increments_are_pure_functions_of_coordinates():
    a = brownian_increments(7, "tag", 5, 12, 3, 0.25)
    b = brownian_increments(7, "tag", 5, 12, 3, 0.25)
    assert np.array_equal(a, b)
    # the block for a path does not depend on how many paths are drawn
    c = brownian_increments(7, "tag", 3, 12, 3, 0.25)
    assert np.array_equal(a[:3], c)


def test_increments_scale_with_step_size():
    a = brownian_increments(7, "tag", 2, 6, 2, 1.0)
    b = brownian_increments(7, "tag", 2, 6, 2, 0.25)
    assert np.allclose(a * 0.5, b)


def test_increments_differ_across_tags_and_seeds():
    a = brownian_increments(7, "tag", 2, 6, 2, 1.0)
    assert not np.array_equal(a, brownian_increments(7, "other", 2, 6, 2, 1.0))
    assert not np.array_equal(a, brownian_increments(8, "tag", 2, 6, 2, 1.0))


def test_coupling_shares_noise_across_eps():
    cfg = base_config()
    e1 = simulate(cfg.with_eps(0.2))
    e2 = simulate(cfg.with_eps(0.05))
    assert np.array_equal(e1.increments, e2.increments)
    assert not np.array_equal(e1.states, e2.states)


# -- single implicit steps -------------------------------------------------------


def test_step_fixed_point_at_origin():
    space = path_space(3)
    smoother = MoreauYosida(zhang(), 0.2)
    noise = diagonal_noise(3, 0.5)
    out = step_semi_implicit(space, smoother, noise, np.zeros(3), 0.1,
                             np.zeros(3))
    assert np.allclose(out, 0.0, atol=1e-14)


def test_step_single_node_against_double_bisection():
    # Implicit equation 2 X + slope(X) = 4 where slope is the Yosida slope
    # at smoothing 1; solved here by nested bisection only.
    def inner(x):  # J with J + sqrt(J) = x
        lo, hi = 0.0, max(x, 1.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + np.sqrt(mid) > x:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def outer():
        lo, hi = 0.0, 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 2 * mid + (mid - inner(mid)) > 4.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    space = single_node_space()
    smoother = MoreauYosida(fast_diffusion(0.5), 1.0)
    noise = diagonal_noise(1, 0.0)
    got = step_semi_implicit(space, smoother, noise, np.array([4.0]), 1.0,
                             np.zeros(1))
    assert got[0] == pytest.approx(outer(), abs=1e-9)


def test_step_matches_exact_linear_solve_on_affine_branch():
    # With every component above the smoothing level the sandpile slope is
    # affine, so the implicit step has a closed linear form.
    space = build_graph_space([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.5], [1.0, 2.0])
    eps, dt = 0.3, 0.05
    smoother = MoreauYosida(zhang(), eps)
    state = np.array([5.0, 6.0])
    rhs = state  # no noise applied
    L = space.generator
    A = np.eye(2) - dt * (1.0 / (1.0 + eps) + eps) * L
    b = rhs + dt / (1.0 + eps) * (L @ np.ones(2))
    expected = np.linalg.solve(A, b)
    got = step_semi_implicit(space, smoother, diagonal_noise(2, 0.0), state,
                             dt, np.zeros(2))
    assert smoother.resolvent(got).min() > 0  # stayed on the affine branch
    assert np.abs(got - expected).max() <= 1e-10


def test_step_evaluates_the_step_taken_after_exhausted_line_search():
    # The first pass rejects all 40 halvings; the stepper must then take
    # and evaluate the once-more-halved step, not reuse the last trial.
    class RejectingSmoother:
        def __init__(self, inner):
            self.inner, self.eps, self.args = inner, inner.eps, []

        def evaluate(self, r):
            self.args.append(np.array(r))
            values = self.inner.evaluate(r)
            if 2 <= len(self.args) <= 41:
                return values._replace(envelope=values.envelope + 1e6)
            return values

    # Unit slope at the origin, so a zero right side is not yet solved and
    # every trial point is an exact power-of-two multiple of the step.
    linear = piecewise_quadratic([10.0], [(0.5, 1.0, 0.0), (0.5, 1.0, 0.0)])
    inner = MoreauYosida(linear, 0.1)
    space = path_space(4)
    rhs = np.zeros((1, 4))
    smoother = RejectingSmoother(inner)
    system = _NewtonSystem(space, 0.05)
    x, residual, _ = _implicit_step_batch(system, smoother, rhs, 1e-10, 100)
    delta = smoother.args[1]
    assert np.abs(delta).max() > 0
    assert np.array_equal(smoother.args[40], 0.5**39 * delta)
    assert np.array_equal(smoother.args[41], 0.5**40 * delta)
    expected, _, _ = _implicit_step_batch(system, inner, rhs, 1e-10, 100)
    assert residual[0] <= 1e-10
    assert np.abs(x - expected).max() <= 1e-9


@pytest.mark.parametrize("make_space, tridiagonal", [
    pytest.param(lambda: path_space(16), True, id="path_16"),
    pytest.param(lambda: path_space(96), True, id="path_96"),
    pytest.param(lambda: complete_space(8), False, id="complete_8"),
    pytest.param(lambda: subordinate(path_space(16),
                                     BernsteinFunction.power(0.5)),
                 False, id="path_16|power(0.5)"),
])
def test_newton_system_matches_dense_dual_metric_formulas(make_space,
                                                          tridiagonal):
    # Oracle: the dense dual-metric Newton system (MG + dt M D) delta = -MG F
    # and the dense products with MG and minus the generator.
    space = make_space()
    eps, dt, paths = 0.05, 0.02, 7
    system = _NewtonSystem(space, dt)
    assert system.tridiagonal is tridiagonal

    rng = np.random.default_rng(11)
    n = space.node_count
    F = rng.standard_normal((paths, n))
    d = np.exp(rng.uniform(np.log(eps), -np.log(eps), size=(paths, n)))
    MG, mu = space.dual_metric, space.measure
    expected = np.stack([
        np.linalg.solve(MG + dt * np.diag(mu * d[p]), -MG @ F[p])
        for p in range(paths)])

    def rel_err(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel_err(system.direction(F, d), expected) <= 1e-12
    assert rel_err(system.dual(F), F @ MG) <= 1e-12
    assert rel_err(system.apply_k(F), F @ (-space.generator).T) <= 1e-12


def test_step_rejects_bad_dt():
    space = single_node_space()
    with pytest.raises(ValueError, match="positive"):
        step_semi_implicit(space, MoreauYosida(zhang(), 0.5),
                           diagonal_noise(1, 0.0), np.zeros(1), 0.0,
                           np.zeros(1))


# -- simulation --------------------------------------------------------------


def test_simulate_is_deterministic_bitwise():
    cfg = base_config()
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)


def test_path_results_independent_of_batch_composition():
    # A path's trajectory is a pure function of its own increments: the
    # batched Newton solve must not leak information across paths.
    import dataclasses

    cfg = base_config(path_count=8)
    small = dataclasses.replace(cfg, path_count=3)
    a = simulate(cfg)
    b = simulate(small)
    assert np.array_equal(a.states[:3], b.states)

    # Bitwise, on tridiagonal and dense generators of several sizes, for
    # closed-form and scalar-Newton resolvents and for multiplicative and
    # additive noise, against a 40-path reference run.
    spaces = [(f"path_{n}", path_space(n)) for n in (4, 32, 64)] + [
        ("complete_8", complete_space(8)),
        ("path_16|power(0.5)",
         subordinate(path_space(16), BernsteinFunction.power(0.5)))]
    leaks = []
    for label, space in spaces:
        n = space.node_count
        for noise_name, noise in (("diagonal", diagonal_noise(n, 0.2)),
                                  ("eigenmode", eigenmode_noise(space, 3, 0.2))):
            for name, potential in (("zhang", zhang()),
                                    ("fd0.5", fast_diffusion(0.5)),
                                    ("fd0.3", fast_diffusion(0.3))):
                cfg = base_config(space=space, potential=potential,
                                  noise=noise,
                                  initial=np.linspace(1.0, -0.5, n),
                                  path_count=40)
                reference = simulate(cfg).states
                for count in (1, 3, 17):
                    part = simulate(dataclasses.replace(cfg, path_count=count))
                    if not np.array_equal(part.states, reference[:count]):
                        leaks.append((label, noise_name, name, count))
    assert not leaks, ("paths depend on the batch at "
                       f"(space, noise, potential, paths) {leaks}")


def test_simulate_zero_noise_zero_initial():
    cfg = base_config(noise=diagonal_noise(4, 0.0),
                      initial=np.zeros(4), path_count=2)
    ens = simulate(cfg)
    assert np.allclose(ens.states, 0.0, atol=1e-14)


def test_simulate_residuals_and_iterations_bounded():
    cfg = base_config(path_count=16)
    ens = simulate(cfg)
    bound = cfg.solver_tol * (1.0 + np.abs(ens.states).max() * 4)
    assert ens.residuals.max() <= bound
    assert ens.newton_iterations.max() <= cfg.max_newton


def test_zero_noise_sandpile_flat_region_is_linear_flow():
    # Nonpositive data stays in the flat region, so the step reduces to the
    # linear implicit flow with the eps-scaled generator, exactly.
    space = path_space(4)
    eps, steps, horizon = 0.1, 32, 1.0
    cfg = base_config(space=space, noise=diagonal_noise(4, 0.0), eps=eps,
                      step_count=steps, horizon=horizon, path_count=1,
                      initial=np.array([-1.0, -0.5, -2.0, 0.0]))
    ens = simulate(cfg)
    dt = cfg.dt
    A = np.eye(4) - eps * dt * space.generator
    x = cfg.initial.copy()
    for k in range(steps):
        x = np.linalg.solve(A, x)
        assert np.abs(ens.states[0, k + 1] - x).max() <= 1e-8


@pytest.mark.parametrize("make_space", [
    lambda: path_space(16),
    lambda: subordinate(path_space(16), BernsteinFunction("power", 0.5)),
    lambda: complete_space(8),
], ids=["path_16", "path_16_power_0.5", "complete_8"])
def test_linear_gaussian_scheme_is_the_closed_form_recursion(make_space):
    # A quadratic potential a r^2 smooths to the linear drift c x with
    # c = 2a / (1 + 2a eps) + eps, so with additive noise B the scheme is
    # X_{k+1} = R (X_k + B dW_k), R = (I + dt c K)^-1, K minus the
    # generator; each Newton solve is exact, one iteration per step.  The
    # three spaces cover the tridiagonal, subordinated and dense steps.
    space = make_space()
    n, a, eps = space.node_count, 1.5, 0.05
    noise = eigenmode_noise(space, 3, 0.3)
    cfg = base_config(space=space,
                      potential=piecewise_quadratic([0.0], [[a, 0, 0]] * 2),
                      noise=noise, eps=eps, step_count=32, path_count=20,
                      initial=np.cos(np.arange(n)))
    ens = simulate(cfg)
    c = 2 * a / (1 + 2 * a * eps) + eps
    R = np.linalg.inv(np.eye(n) - cfg.dt * c * space.generator)
    B = np.asarray(noise.columns)
    x = np.tile(cfg.initial, (cfg.path_count, 1))
    worst = 0.0
    for k in range(cfg.step_count):
        x = (x + ens.increments[:, k] @ B.T) @ R.T
        worst = max(worst, float(np.abs(ens.states[:, k + 1] - x).max()))
    assert worst <= 1e-13
    assert np.all(ens.newton_iterations == 1)


def test_zero_noise_linear_flow_refines_to_semigroup_first_order():
    # Against the exact flow through the eps-scaled semigroup the endpoint
    # error of the implicit scheme halves with the step size.
    space = path_space(4)
    eps = 0.1
    x0 = np.array([-1.0, -0.5, -2.0, 0.0])
    exact = space.semigroup(eps * 1.0, x0)
    errs = []
    for steps in (16, 32, 64):
        cfg = base_config(space=space, noise=diagonal_noise(4, 0.0), eps=eps,
                          step_count=steps, horizon=1.0, path_count=1,
                          initial=x0)
        ens = simulate(cfg)
        errs.append(np.abs(ens.states[0, -1] - exact).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.3)


def test_endpoint_first_order_convergence_nonlinear():
    # Richardson comparison of a deterministic scalar run against a
    # fine-step reference.
    space = single_node_space()
    reference = None
    endpoints = {}
    for steps in (16, 32, 1024):
        cfg = SimulationConfig(
            space=space, potential=fast_diffusion(0.5),
            noise=diagonal_noise(1, 0.0), eps=0.2, horizon=1.0,
            step_count=steps, path_count=1, initial=np.array([4.0]),
            seed=1, coupling_tag="det")
        endpoints[steps] = simulate(cfg).states[0, -1, 0]
    reference = endpoints[1024]
    e16 = abs(endpoints[16] - reference)
    e32 = abs(endpoints[32] - reference)
    assert e16 / e32 == pytest.approx(2.0, rel=0.35)


def test_simulate_single_node_decay_and_energy_budget():
    space = single_node_space()
    cfg = SimulationConfig(
        space=space, potential=zhang(), noise=diagonal_noise(1, 0.0),
        eps=0.1, horizon=1.0, step_count=32, path_count=1,
        initial=np.array([2.0]), seed=3, coupling_tag="decay")
    ens = simulate(cfg)
    traj = ens.states[0, :, 0]
    assert np.all(np.diff(traj) <= 1e-12)        # monotone decay
    report = energy_budget(ens)
    assert report.constants["sup_l2_sq"] == pytest.approx(4.0)
    assert report.constants["implied_constant"] <= 1.1
    assert report.passed


def test_config_validation():
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        base_config(eps=1.5)
    with pytest.raises(ValueError, match="horizon"):
        base_config(horizon=0.0)
    with pytest.raises(ValueError, match="node-indexed"):
        base_config(initial=np.zeros(7))
    with pytest.raises(ValueError, match="finite"):
        base_config(initial=np.array([np.nan, 0.0, 0.0, 0.0]))


def test_ensemble_rejects_non_finite_states():
    cfg = base_config()
    ens = simulate(cfg)
    broken = ens.states.copy()
    broken[0, 0, 0] = np.nan
    with pytest.raises(StepSolverError, match="non-finite"):
        TrajectoryEnsemble(cfg, broken, ens.increments, ens.residuals,
                           ens.newton_iterations)


# -- noise certification ---------------------------------------------------------


def test_certify_additive_noise_has_zero_lipschitz_constant():
    space = path_space(4)
    model = eigenmode_noise(space, 2, amplitude=0.5)
    cert = certify_noise(model, space)
    assert cert.lipschitz == pytest.approx(0.0, abs=1e-14)
    assert cert.dual_growth > 0
    assert cert.sample_count >= 100


def test_certify_silent_noise_is_all_zero():
    space = path_space(4)
    cert = certify_noise(diagonal_noise(4, 0.0), space)
    assert cert.lipschitz == 0.0
    assert cert.dual_growth == 0.0
    assert cert.l2_growth == 0.0
    assert cert.uniform_lipschitz and cert.uniform_dual_growth


def test_certify_diagonal_noise_two_node():
    space = build_graph_space([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.5], [1.0, 1.0])
    cert = certify_noise(diagonal_noise(2, 0.3), space)
    assert 0 < cert.lipschitz < np.inf
    assert 0 < cert.dual_growth < np.inf
    # the L2 growth of a clipped diagonal factor never exceeds sigma^2
    assert cert.l2_growth <= 0.3**2 + 1e-12
    assert len(cert.lipschitz_by_shift) == 4
    # the overall constants dominate every per-shift table entry
    assert cert.lipschitz >= max(cert.lipschitz_by_shift)
    assert cert.dual_growth >= max(cert.dual_growth_by_shift)
    names = [c.name for c in cert.checks]
    assert "lipschitz_uniform_over_shifts" in names


def test_linear_combination_noise_shapes():
    offsets = np.array([[0.1, 0.0], [0.0, 0.2], [0.0, 0.0]])
    gains = np.zeros((2, 3, 3))
    gains[0] = 0.05 * np.eye(3)
    model = linear_combination_noise(offsets, gains)
    u = np.ones(3)
    out = model.apply(u, np.array([1.0, -1.0]))
    expected = offsets @ np.array([1.0, -1.0]) + gains[0] @ u
    assert np.allclose(out, expected)
    space = path_space(3)
    cert = certify_noise(model, space)
    assert cert.lipschitz < np.inf


def test_additive_noise_validation():
    with pytest.raises(ValueError, match="matrix"):
        additive_noise(np.ones(3))
    with pytest.raises(ValueError, match="nonnegative"):
        diagonal_noise(3, 0.1, clip_at=-1.0)


# -- artifacts ---------------------------------------------------------------------


def test_trajectory_csv_and_metadata_roundtrip(tmp_path):
    cfg = base_config(path_count=2, step_count=4)
    ens = simulate(cfg)
    dump = tmp_path / "traj.npy"
    meta = tmp_path / "traj.meta"
    write_trajectories(ens, dump)
    write_metadata(ens, meta)
    assert np.load(dump, allow_pickle=False).shape == (2, 5, 4)
    body = meta.read_text()
    assert "run.seed = 42" in body
    assert "run.horizon = 0.5" in body
    assert "run.steps = 4" in body
    assert "solver.max_residual" in body
    # byte-identical on rerun
    write_trajectories(simulate(cfg), tmp_path / "traj2.npy")
    assert (tmp_path / "traj2.npy").read_bytes() == dump.read_bytes()


def test_trajectory_npy_roundtrip_is_exact(tmp_path):
    cfg = base_config(path_count=3, step_count=4)
    ens = simulate(cfg)
    # The file gets exactly the given name; np.save would append ".npy"
    # to a bare path.
    dump = tmp_path / "traj"
    write_trajectories(ens, dump)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj"]
    loaded = np.load(dump, allow_pickle=False)
    assert loaded.dtype == np.float64
    assert loaded.shape == (cfg.path_count, cfg.step_count + 1,
                            cfg.space.node_count)
    assert np.array_equal(loaded, ens.states)
    write_trajectories(simulate(cfg), tmp_path / "rerun")
    assert (tmp_path / "rerun").read_bytes() == dump.read_bytes()

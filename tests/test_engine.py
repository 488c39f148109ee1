"""Tests for the semi-implicit stepper, path simulation, noise
certification, the reproducible increment source and trajectory artifacts."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import certify_noise_dense, dual_metric, dual_rows

from graphspde.dirichlet import (
    BernsteinFunction,
    build_graph_space,
    complete_space,
    path_space,
    single_node_space,
    subordinate,
)
from graphspde import engine
from graphspde.engine import (
    _MAX_NEWTON,
    _SOLVER_TOL,
    SimulationConfig,
    StepSolverError,
    TrajectoryEnsemble,
    _implicit_step_batch,
    _NewtonSystem,
    energy_budget,
    simulate,
    simulate_coupled,
    write_metadata,
    write_trajectories,
)
from graphspde.monotone import (
    MoreauYosida,
    fast_diffusion,
    piecewise_quadratic,
    porous_medium,
    zhang,
)
from graphspde.noise import (
    NoiseModel,
    additive_noise,
    brownian_increments,
    certify_noise,
    diagonal_noise,
    eigenmode_noise,
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


def spy_solve_rows(monkeypatch):
    """Record the batch size of every ``np.linalg.solve`` call: the
    matrices of a stack, one for a lone matrix."""
    rows = []
    solve = np.linalg.solve

    def spy(A, b):
        rows.append(int(np.prod(A.shape[:-2])))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return rows


def spy_dense_routes(monkeypatch):
    """Record the rows of every call of the three dense direction routes:
    the eigenbasis, conjugate gradients and the LU fallback.  The fallback
    also takes each row whose right side starts with a positive entry, a
    property of the row alone, so all three routes share Newton passes."""
    routes = {"eigenbasis": [], "cg": [], "lu": []}
    eigenbasis, cg, lu = (_NewtonSystem._eigenbasis, _NewtonSystem._cg,
                          _NewtonSystem._lu)

    def spy_eigenbasis(self, F, c):
        routes["eigenbasis"].append(len(F))
        return eigenbasis(self, F, c)

    def spy_cg(self, b, inv_d):
        routes["cg"].append(len(b))
        z, unsolved = cg(self, b, inv_d)
        return z, np.union1d(unsolved, np.flatnonzero(b[:, 0] > 0))

    def spy_lu(self, b, inv_d):
        routes["lu"].append(1)    # one row per call
        return lu(self, b, inv_d)

    monkeypatch.setattr(_NewtonSystem, "_eigenbasis", spy_eigenbasis)
    monkeypatch.setattr(_NewtonSystem, "_cg", spy_cg)
    monkeypatch.setattr(_NewtonSystem, "_lu", spy_lu)
    return routes


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
    # Multiplicative noise vanishes at the origin, so one step from it is
    # noiseless.
    cfg = SimulationConfig(
        space=path_space(3), potential=zhang(), noise=diagonal_noise(3, 0.5),
        eps=0.2, horizon=0.1, step_count=1, path_count=1,
        initial=np.zeros(3))
    out = simulate(cfg).states[0, -1]
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

    # Smoothing 1 lies outside what SimulationConfig accepts, so the step
    # is solved directly.
    system = _NewtonSystem(single_node_space(), 1.0)
    smoother = MoreauYosida(fast_diffusion(0.5), 1.0)
    got, *_ = _implicit_step_batch(system, smoother, np.array([[4.0]]))
    assert got[0, 0] == pytest.approx(outer(), abs=1e-9)


def test_step_matches_exact_linear_solve_on_affine_branch():
    # With every component above the smoothing level the sandpile slope is
    # affine, so the implicit step has a closed linear form.
    space = build_graph_space([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.5], [1.0, 2.0])
    eps, dt = 0.3, 0.05
    state = np.array([5.0, 6.0])
    rhs = state  # no noise applied
    L = space.generator
    A = np.eye(2) - dt * (1.0 / (1.0 + eps) + eps) * L
    b = rhs + dt / (1.0 + eps) * (L @ np.ones(2))
    expected = np.linalg.solve(A, b)
    cfg = SimulationConfig(
        space=space, potential=zhang(), noise=diagonal_noise(2, 0.0),
        eps=eps, horizon=dt, step_count=1, path_count=1, initial=state)
    got = simulate(cfg).states[0, -1]
    # stayed on the affine branch
    assert MoreauYosida(zhang(), eps).resolvent(got).min() > 0
    assert np.abs(got - expected).max() <= 1e-10


def test_step_evaluates_the_step_taken_after_exhausted_line_search():
    # The first pass rejects all 40 halvings; the stepper must then take
    # and evaluate the once-more-halved step, not reuse the last trial.
    class RejectingSmoother:
        def __init__(self, inner):
            self.inner, self.eps, self.args = inner, inner.eps, []

        def evaluate(self, r, previous=None):
            self.args.append(np.array(r))
            values = self.inner.evaluate(r, previous)
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
    x, residual, *_ = _implicit_step_batch(system, smoother, rhs)
    delta = smoother.args[1]
    assert np.abs(delta).max() > 0
    assert np.array_equal(smoother.args[40], 0.5**39 * delta)
    assert np.array_equal(smoother.args[41], 0.5**40 * delta)
    expected, *_ = _implicit_step_batch(system, inner, rhs)
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
    MG, mu = dual_metric(space), space.measure
    expected = np.stack([
        np.linalg.solve(MG + dt * np.diag(mu * d[p]), -MG @ F[p])
        for p in range(paths)])

    def rel_err(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel_err(system.direction(F, d), expected) <= 1e-12
    assert rel_err(system.apply_k(F), F @ (-space.generator).T) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 17])
def test_tridiagonal_direction_weights_by_a_non_uniform_measure(n):
    # The path presets have unit measure, where the weighting M of the
    # symmetric system (M/d + dt E) z = -M F multiplies by exactly 1.
    # Oracle: (I + dt K diag(d)) delta = -F solved densely, on path graphs
    # with a random measure, conductances and killing (positive at node 0,
    # so the form is transient).  Each row of a batch is bitwise the row
    # solved alone.
    rng = np.random.default_rng(n)
    W = np.diag(rng.uniform(0.2, 5.0, n - 1), 1)
    killing = rng.uniform(0.0, 2.0, n)
    killing[0] += 0.5
    space = build_graph_space(W + W.T, killing, rng.uniform(0.1, 10.0, n))
    assert space.is_tridiagonal
    eps, dt = 1e-3, 0.05
    K = -space.generator
    system = _NewtonSystem(space, dt)
    for rows in (1, 9):
        F = rng.standard_normal((rows, n))
        d = np.exp(rng.uniform(np.log(eps), -np.log(eps), size=(rows, n)))
        got = system.direction(F, d)
        want = np.stack([np.linalg.solve(np.eye(n) + dt * K * d[r], -F[r])
                         for r in range(rows)])
        assert (np.abs(got - want).max(axis=1)
                <= 1e-13 * np.abs(want).max(axis=1)).all()
        alone = [system.direction(F[r:r + 1], d[r:r + 1]) for r in range(rows)]
        assert np.array_equal(np.concatenate(alone), got)


@pytest.mark.parametrize("make_space", [
    pytest.param(lambda: complete_space(8), id="complete_8"),
    pytest.param(lambda: subordinate(path_space(16),
                                     BernsteinFunction.power(0.5)),
                 id="path_16|power(0.5)"),
    pytest.param(lambda: subordinate(path_space(64),
                                     BernsteinFunction.power(0.5)),
                 id="path_64|power(0.5)"),
])
def test_uniform_slope_direction_matches_dense_solve(make_space,
                                                     monkeypatch):
    # Oracle: (I + dt K diag(d)) delta = -F solved densely from the
    # generator.  Rows with one slope derivative at every node take the
    # eigenbasis route (no LU solve); in a mixed batch every row is bitwise
    # the row solved alone.  Worst error measured: 1.6e-15 (1 + |F|).
    space = make_space()
    n, dt = space.node_count, 0.02
    K = -space.generator
    rng = np.random.default_rng(5)
    c = np.ravel([[e, 1 / (1 + e) + e, 1 / e + e] for e in (0.05, 0.1)])
    system = _NewtonSystem(space, dt)
    F = rng.standard_normal((c.size, n)) * np.logspace(-3, 3, c.size)[:, None]
    d = np.repeat(c[:, None], n, axis=1)

    solved = spy_solve_rows(monkeypatch)
    got = system.direction(F, d)
    assert solved == []
    expected = np.stack([
        np.linalg.solve(np.eye(n) + dt * K * d[p], -F[p])
        for p in range(c.size)])
    err = np.abs(got - expected).max(axis=1) / (1 + np.abs(F).max(axis=1))
    assert err.max() <= 1e-13

    mixed_d = np.concatenate([d, d * rng.uniform(0.5, 2.0, d.shape)])
    mixed_F = np.concatenate([F, F[::-1]])
    batch = system.direction(mixed_F, mixed_d)
    for p in range(len(mixed_F)):
        alone = system.direction(mixed_F[p:p + 1], mixed_d[p:p + 1])
        assert np.array_equal(batch[p], alone[0])


@pytest.mark.parametrize("make_space, most_iterations", [
    pytest.param(lambda: subordinate(path_space(64),
                                     BernsteinFunction.power(0.5)),
                 21, id="path_64|power(0.5)"),
    pytest.param(lambda: complete_space(64), 6, id="complete_64"),
])
def test_conjugate_gradient_direction_matches_dense_solve(
        make_space, most_iterations, monkeypatch):
    # Oracle: (I + dt K diag(d)) delta = -F solved densely from the
    # generator.  With E = M K and J = diag(E)^-1/2 E diag(E)^-1/2, the
    # Jacobi-preconditioned system has a condition number of at most
    # cond(J), 2.2 and 2.0 here, whatever d and dt are: rows whose d
    # spreads over up to twelve decades converge in a few iterations, with
    # no LU solve.  The iteration bounds are the largest measured.
    space = make_space()
    n, K = space.node_count, -space.generator
    rng = np.random.default_rng(3)
    rows = 24
    spread = np.log(np.logspace(0, 12, rows))[:, None]
    d = 0.05 * np.exp(spread * rng.uniform(0.0, 1.0, (rows, n)))
    F = rng.standard_normal((rows, n)) * np.logspace(-3, 3, rows)[:, None]
    solved = spy_solve_rows(monkeypatch)
    matvecs = []
    apply_k = _NewtonSystem.apply_k

    def spy_apply_k(self, y):
        matvecs.append(len(y))
        return apply_k(self, y)

    monkeypatch.setattr(_NewtonSystem, "apply_k", spy_apply_k)
    for dt in (0.02, 1.0):
        system = _NewtonSystem(space, dt)
        expected = np.stack([
            np.linalg.solve(np.eye(n) + dt * K * d[p], -F[p])
            for p in range(rows)])
        del solved[:]
        batch = system.direction(F, d)
        assert solved == []
        err = (np.abs(batch - expected).max(axis=1)
               / (1 + np.abs(F).max(axis=1)))
        assert err.max() <= 1e-13
        for p in range(rows):
            # One product for the start's residual, one per iteration.
            del matvecs[:]
            alone = system.direction(F[p:p + 1], d[p:p + 1])
            assert len(matvecs) - 1 <= most_iterations
            assert np.array_equal(batch[p], alone[0])


def test_unconverged_conjugate_gradient_rows_fall_back_to_lu(monkeypatch):
    # With a tolerance of zero no row of this batch converges in n
    # iterations, so every row takes the LU fallback, one row per solve,
    # and gets the dense solve's direction.
    space = subordinate(path_space(64), BernsteinFunction.power(0.5))
    n, dt, K = space.node_count, 1.0, -space.generator
    rng = np.random.default_rng(4)
    d = 0.05 * np.exp(rng.uniform(0.0, np.log(1e6), (5, n)))
    F = rng.standard_normal((5, n))
    monkeypatch.setattr(engine, "_CG_TOL", 0.0)
    solved = spy_solve_rows(monkeypatch)
    got = _NewtonSystem(space, dt).direction(F, d)
    assert solved == [1] * 5
    expected = np.stack([np.linalg.solve(np.eye(n) + dt * K * d[p], -F[p])
                         for p in range(5)])
    assert np.abs(got - expected).max() <= 1e-13 * (1 + np.abs(F).max())


# -- simulation --------------------------------------------------------------


def test_simulate_is_deterministic_bitwise():
    cfg = base_config()
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)


def test_path_results_independent_of_batch_composition(monkeypatch):
    # A path's trajectory is a pure function of its own increments: the
    # batched Newton solve must not leak information across paths.
    cfg = base_config(path_count=8)
    small = replace(cfg, path_count=3)
    a = simulate(cfg)
    b = simulate(small)
    assert np.array_equal(a.states[:3], b.states)

    # Bitwise, on tridiagonal and dense generators of several sizes, for
    # closed-form and scalar-Newton resolvents and for multiplicative and
    # additive noise, against a 40-path reference run.  On the dense
    # generators, zhang from the constant 0.5 is the svi regime: rows with
    # one slope derivative at every node (eigenbasis route) and rows with
    # several (conjugate gradients, and the LU fallback) share a Newton
    # step.
    solved = spy_solve_rows(monkeypatch)
    routes = spy_dense_routes(monkeypatch)
    directions = []
    direction = _NewtonSystem.direction

    def spy_direction(self, F, d):
        directions.append(len(F))
        return direction(self, F, d)

    monkeypatch.setattr(_NewtonSystem, "direction", spy_direction)
    spaces = [(f"path_{n}", path_space(n)) for n in (4, 32, 64)] + [
        ("complete_8", complete_space(8)),
        ("path_16|power(0.5)",
         subordinate(path_space(16), BernsteinFunction.power(0.5)))]
    leaks = []
    for label, space in spaces:
        n = space.node_count
        cases = [(name, potential, np.linspace(1.0, -0.5, n))
                 for name, potential in (("zhang", zhang()),
                                         ("fd0.5", fast_diffusion(0.5)),
                                         ("fd0.3", fast_diffusion(0.3)))]
        if not space.is_tridiagonal:
            cases.append(("zhang@0.5", zhang(), np.full(n, 0.5)))
        for noise_name, noise in (("diagonal", diagonal_noise(n, 0.2)),
                                  ("eigenmode", eigenmode_noise(space, 3, 0.2))):
            for name, potential, initial in cases:
                cfg = base_config(space=space, potential=potential,
                                  noise=noise, initial=initial,
                                  path_count=40)
                del directions[:]
                for rows in routes.values():
                    del rows[:]
                reference = simulate(cfg).states
                if name == "zhang@0.5":
                    assert all(map(sum, routes.values())), (
                        f"{label}, {noise_name}: all dense routes run")
                    assert sum(routes["eigenbasis"]) + sum(routes["cg"]) \
                        == sum(directions)
                for count in (1, 3, 17):
                    part = simulate(replace(cfg, path_count=count))
                    if not np.array_equal(part.states, reference[:count]):
                        leaks.append((label, noise_name, name, count))
    assert not leaks, ("paths depend on the batch at "
                       f"(space, noise, potential, paths) {leaks}")

    # Coupled runs stepped as one batch, an eps ladder and a pair of initial
    # states: each ensemble equals its run simulated alone, on the
    # tridiagonal route and all three dense ones.  Only rows still
    # iterating get a direction, and the LU fallback solves one row at a
    # time.
    piecewise = piecewise_quadratic(
        [-0.5, 0.5], [[1.0, 0.0, -0.125], [0.5, 0.0, 0.0], [1.5, -0.5, 0.0]])
    mismatches = []
    for label, space in (
            ("path_16", path_space(16)), ("complete_8", complete_space(8)),
            ("path_16|power(0.5)",
             subordinate(path_space(16), BernsteinFunction.power(0.5)))):
        n = space.node_count
        for noise_name, noise in (("diagonal", diagonal_noise(n, 0.2)),
                                  ("eigenmode", eigenmode_noise(space, 3, 0.2))):
            for name, potential in (("fd0.3", fast_diffusion(0.3)),
                                    ("pm2.5", porous_medium(2.5)),
                                    ("zhang", zhang()),
                                    ("piecewise", piecewise)):
                cfg = base_config(space=space, potential=potential,
                                  noise=noise, initial=np.linspace(1.0, -0.5, n),
                                  step_count=8)
                ladder = [cfg.with_eps(eps) for eps in (0.2, 0.1, 0.05)]
                pair = [cfg, cfg.with_initial(np.full(n, 0.5))]
                for runs in (ladder, pair):
                    del solved[:], directions[:]
                    batch = simulate_coupled(runs)
                    assert max(solved, default=0) <= 1
                    assert sum(directions) == sum(
                        e.newton_iterations.sum() for e in batch)
                    for run, ens in zip(runs, batch):
                        alone = simulate(run)
                        for field in ("states", "residuals",
                                      "newton_iterations", "increments"):
                            if not np.array_equal(getattr(ens, field),
                                                  getattr(alone, field)):
                                mismatches.append(
                                    (label, noise_name, name, run.eps,
                                     float(run.initial[0]), field))
    assert not mismatches, f"coupled runs differ from single runs: {mismatches}"

    # Byte for byte, zero signs included: a run at rest in -0.0 keeps its
    # state while the other run of its batch iterates.
    cfg = base_config(noise=diagonal_noise(4, 0.0), initial=np.full(4, -0.0))
    rest, moving = simulate_coupled(
        [cfg, cfg.with_initial(np.linspace(1.0, -0.5, 4))])
    assert np.signbit(rest.states).any() and moving.newton_iterations.any()
    assert rest.states.tobytes() == simulate(cfg).states.tobytes()


@pytest.mark.parametrize("make_space", [
    lambda: complete_space(8),
    lambda: subordinate(path_space(64), BernsteinFunction.power(0.5)),
    lambda: subordinate(path_space(128), BernsteinFunction.power(0.5)),
], ids=["complete_8", "path_64|power(0.5)", "path_128|power(0.5)"])
def test_dense_products_independent_of_batch_composition(make_space,
                                                         monkeypatch):
    # Each dense product is one gemm over all rows, a lone row doubled:
    # every row of apply_k and direction is bit for bit the same in
    # a 40-row batch as in subsets of 1, 2, 3 and 17 of its rows.  Every
    # other row of d is uniform (the eigenbasis route), the rest vary
    # across nodes (conjugate gradients and the LU fallback).
    space = make_space()
    n, rows = space.node_count, 40
    rng = np.random.default_rng(5)
    y = rng.standard_normal((rows, n)) * np.logspace(-2, 2, rows)[:, None]
    d = 0.05 * np.exp(rng.uniform(0.0, 3.0, (rows, n)))
    d[::2] = d[::2, :1]
    routes = spy_dense_routes(monkeypatch)
    system = _NewtonSystem(space, 0.02)

    def products(subset):
        return {"apply_k": system.apply_k(y[subset]),
                "direction": system.direction(y[subset], d[subset])}

    full = products(slice(None))
    assert all(map(sum, routes.values()))
    for count in (1, 2, 3, 17):
        subset = np.sort(rng.choice(rows, count, replace=False))
        for name, part in products(subset).items():
            assert np.array_equal(part, full[name][subset]), (name, count)


# A dense run whose products are large enough for OpenBLAS to split them
# over threads; it defines ``states``.
_THREADED_RUN = """
import numpy as np
from graphspde.dirichlet import BernsteinFunction, path_space, subordinate
from graphspde.engine import SimulationConfig, simulate
from graphspde.monotone import zhang
from graphspde.noise import diagonal_noise

space = subordinate(path_space(128), BernsteinFunction.power(0.5))
states = simulate(SimulationConfig(
    space=space, potential=zhang(), noise=diagonal_noise(128, 0.2),
    eps=0.05, horizon=0.5, step_count=6, path_count=40,
    initial=np.full(128, 0.5), seed=9, coupling_tag="threads")).states
"""


def test_dense_run_independent_of_blas_threads(tmp_path):
    # The bench runs with one BLAS thread, the tests with the default
    # count: the states of a dense run are the same bit for bit.
    out = tmp_path / "states.npy"
    src = Path(engine.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run(
        [sys.executable, "-c",
         _THREADED_RUN + f"np.save({str(out)!r}, states)\n"],
        env=env, timeout=120, check=True)
    namespace = {}
    exec(_THREADED_RUN, namespace)
    assert np.array_equal(np.load(out), namespace["states"])


@pytest.mark.parametrize("space", [
    path_space(16),
    subordinate(path_space(16), BernsteinFunction.power(0.5)),
], ids=["tridiagonal", "dense"])
def test_no_dual_solve_in_a_newton_pass(monkeypatch, space):
    # The objective is tracked by its changes alone, and its gradient along
    # the direction comes from the Newton equation, so no pass solves the
    # dual metric: the system has no such solve, and each pass makes one
    # direction solve.
    assert not hasattr(_NewtonSystem, "dual")
    calls = {"direction": 0}
    direction = _NewtonSystem.direction

    def spy_direction(self, F, d):
        calls["direction"] += 1
        return direction(self, F, d)

    monkeypatch.setattr(_NewtonSystem, "direction", spy_direction)
    n = space.node_count
    cfg = base_config(space=space, potential=fast_diffusion(0.3),
                      noise=diagonal_noise(n, 0.3),
                      initial=np.linspace(1.0, -0.5, n), path_count=12)
    ens = simulate(cfg)
    # A pass runs while any path of the step still iterates.
    passes = int(ens.newton_iterations.max(axis=0).sum())
    assert calls["direction"] == passes > 2 * cfg.step_count


@pytest.mark.parametrize("potential", [fast_diffusion(0.3), zhang()],
                         ids=["fd0.3", "zhang"])
@pytest.mark.parametrize("space", [
    path_space(16),
    subordinate(path_space(16), BernsteinFunction.power(0.5)),
], ids=["tridiagonal", "dense"])
def test_step_starts_from_the_previous_drift_increment(monkeypatch, space,
                                                       potential):
    # A step hands the next its solution x_k, right side, residual F_k,
    # drift, slope derivative plus eps d_k, and the objective gradient
    # dual(x - rhs) that its loop tracked.  A power kind starts at
    # rhs + (x_k - rhs_k), its drift increment, with that gradient.  The
    # sandpile's Yosida slope is piecewise linear, so it starts one Newton
    # step from x_k with x_k's own linearization, at x_k + delta with
    # (I + dt K D_k) delta = -(F_k - (rhs - rhs_k)); the Newton equation
    # gives that start's gradient -dt M (drift_k + d_k delta), and the
    # step counts as an iteration.  Started either way, each step solves
    # the same system as from its right side, and over a run of 64 steps
    # in fewer Newton iterations.
    evaluated = []
    evaluate = MoreauYosida.evaluate

    def spy_evaluate(self, r, previous=None):
        evaluated.append(np.array(r))
        return evaluate(self, r, previous)

    monkeypatch.setattr(MoreauYosida, "evaluate", spy_evaluate)
    n, steps, tol, eps = space.node_count, 64, _SOLVER_TOL, 0.05
    dt = 1.0 / steps
    system = _NewtonSystem(space, dt)
    smoother = MoreauYosida(potential, eps)
    noise = diagonal_noise(n, 0.3)
    dW = brownian_increments(5, "warm", 12, steps, n, dt)
    x = np.tile(np.linspace(1.0, -0.5, n), (12, 1))
    start, warm_total, cold_total = None, 0, 0
    for k in range(steps):
        rhs = x + noise.apply(x, dW[:, k])
        before = start
        del evaluated[:]
        x, residual, warm_its, start = _implicit_step_batch(
            system, smoother, rhs, start=before)
        x0 = evaluated[0]
        if before is None:
            assert np.array_equal(x0, rhs)
        elif potential.kind == "zhang":
            delta = system.direction(before.F - (rhs - before.rhs), before.d)
            assert np.array_equal(x0, before.x + delta)
            g0 = -dt * system.mu * (before.drift + before.d * delta)
            dual_shift = dual_rows(space, x0 - rhs)
            assert np.abs(g0 - dual_shift).max() <= (
                1e-12 * np.abs(dual_shift).max())
            assert np.all(warm_its >= 1)
        else:
            assert np.array_equal(x0, rhs + (before.x - before.rhs))
        cold, _, cold_its, _ = _implicit_step_batch(system, smoother, rhs)
        assert start.x is x and start.rhs is rhs
        assert np.array_equal(start.F,
                              x + dt * system.apply_k(start.drift) - rhs)
        if potential.kind == "zhang":
            my = smoother.evaluate(x)
            assert np.array_equal(start.drift, my.slope + eps * x)
            assert np.array_equal(start.d, my.slope_derivative + eps)
        dual_shift = dual_rows(space, x - rhs)
        assert np.abs(start.g - dual_shift).max() <= (
            1e-12 * np.abs(dual_shift).max())
        assert np.all(residual <= tol * (1.0 + np.abs(rhs).max() * n))
        assert np.abs(x - cold).max() <= 1e-9
        warm_total += warm_its.sum()
        cold_total += cold_its.sum()
    assert warm_total < cold_total


@pytest.mark.parametrize("steps", [16, 64])
@pytest.mark.parametrize("space", [
    path_space(16),
    subordinate(path_space(16), BernsteinFunction.power(0.5)),
], ids=["path_16", "path_16|power(0.5)"])
def test_sandpile_steps_correct_their_start_less_than_cold_steps(
        monkeypatch, space, steps):
    # Each sandpile step after the first starts one Newton step from the
    # previous solution.  Counted in direction rows solved after a step's
    # first evaluate, the Newton passes that correct that start are fewer
    # than a cold step's passes from its right side, at 16 steps as at 64.
    count = {"started": False, "rows": 0}
    evaluate, direction = MoreauYosida.evaluate, _NewtonSystem.direction

    def spy_evaluate(self, r, previous=None):
        count["started"] = True
        return evaluate(self, r, previous)

    def spy_direction(self, F, d):
        count["rows"] += len(F) if count["started"] else 0
        return direction(self, F, d)

    monkeypatch.setattr(MoreauYosida, "evaluate", spy_evaluate)
    monkeypatch.setattr(_NewtonSystem, "direction", spy_direction)

    def passes_after_start(rhs, start=None):
        count.update(started=False, rows=0)
        out = _implicit_step_batch(system, smoother, rhs, start=start)
        return out, count["rows"]

    n, paths = space.node_count, 12
    dt = 1.0 / steps
    system = _NewtonSystem(space, dt)
    smoother = MoreauYosida(zhang(), 0.05)
    noise = diagonal_noise(n, 0.3)
    dW = brownian_increments(5, "warm", paths, steps, n, dt)
    totals = {}
    for name, initial in (("linspace", np.linspace(1.0, -0.5, n)),
                          ("constant", np.full(n, 0.5))):
        x, start, warm, cold = np.tile(initial, (paths, 1)), None, 0, 0
        for k in range(steps):
            rhs = x + noise.apply(x, dW[:, k])
            (x, _, _, start), rows = passes_after_start(rhs, start)
            warm += rows
            cold += passes_after_start(rhs)[1]
        totals[name] = (warm, cold)
    assert all(warm < cold for warm, cold in totals.values()), totals


@pytest.mark.parametrize("potential", [
    zhang(),
    piecewise_quadratic([0.0], [(0.0, 0.0, 0.0), (1.0, 0.5, 0.0)]),
], ids=["zhang", "piecewise"])
@pytest.mark.parametrize("space", [
    path_space(16),
    subordinate(path_space(16), BernsteinFunction.power(0.5)),
], ids=["path_16", "path_16|power(0.5)"])
def test_sandpile_predictor_is_exact_away_from_the_knots(monkeypatch, space,
                                                         potential):
    # States near 2 stay on one linear piece of the Yosida slope, so the
    # Newton step from the previous solution with its own linearization
    # is the next solution: every step after the first converges at the
    # predictor, with one evaluate at its start and no line search, where
    # a cold solve lands too, and a row is independent of its batch.
    calls = {"evaluate": 0}
    evaluate = MoreauYosida.evaluate

    def spy_evaluate(self, r, previous=None):
        calls["evaluate"] += 1
        return evaluate(self, r, previous)

    monkeypatch.setattr(MoreauYosida, "evaluate", spy_evaluate)
    n = space.node_count
    cfg = base_config(space=space, potential=potential,
                      noise=diagonal_noise(n, 0.05), initial=np.full(n, 2.0),
                      path_count=9)
    ens = simulate(cfg)
    assert np.all(ens.newton_iterations[:, 1:] == 1)
    # The first step evaluates its start and one trial.
    assert calls["evaluate"] == cfg.step_count + 1
    system = _NewtonSystem(space, cfg.dt)
    smoother = MoreauYosida(potential, cfg.eps)
    for k in range(cfg.step_count):
        x = ens.states[:, k]
        rhs = x + cfg.noise.apply(x, ens.increments[:, k])
        cold, *_ = _implicit_step_batch(system, smoother, rhs)
        assert np.abs(ens.states[:, k + 1] - cold).max() <= 1e-14
    alone = simulate(replace(cfg, path_count=1))
    assert np.array_equal(alone.states, ens.states[:1])


@pytest.mark.parametrize("potential, eps", [
    (piecewise_quadratic([-1.0, 1.0], [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0),
                                       (2.0, -2.0, 0.0)]), 1e-3),
    (zhang(), 1e-4),
], ids=["kinked-1e-3", "zhang-1e-4"])
@pytest.mark.parametrize("space", [
    path_space(16),
    subordinate(path_space(16), BernsteinFunction.power(0.5)),
], ids=["tridiagonal", "dense"])
def test_tracked_gradient_is_the_dual_metric_through_halvings(
        monkeypatch, space, potential, eps):
    # The loop takes the objective's gradient along each direction from
    # the Newton equation, dual(delta) = -(g + dt M (d delta + drift)),
    # and solves no dual metric.  At small eps the kinks make the line
    # search halve; after every step the tracked g still equals
    # dual(x - rhs) from the dense dual metric (at most 6e-15 of its
    # largest entry here).
    calls = {"evaluate": 0, "direction": 0}
    evaluate, direction = MoreauYosida.evaluate, _NewtonSystem.direction

    def spy_evaluate(self, r, previous=None):
        calls["evaluate"] += 1
        return evaluate(self, r, previous)

    def spy_direction(self, F, d):
        calls["direction"] += 1
        return direction(self, F, d)

    monkeypatch.setattr(MoreauYosida, "evaluate", spy_evaluate)
    monkeypatch.setattr(_NewtonSystem, "direction", spy_direction)
    n, steps, paths = space.node_count, 16, 12
    dt = 0.5 / steps
    system = _NewtonSystem(space, dt)
    smoother = MoreauYosida(potential, eps)
    noise = diagonal_noise(n, 0.5)
    dW = brownian_increments(42, "halving", paths, steps, n, dt)
    x = np.tile(3.0 * np.linspace(-2.0, 2.0, n), (paths, 1))
    start = None
    for k in range(steps):
        rhs = x + noise.apply(x, dW[:, k])
        x, _, _, start = _implicit_step_batch(system, smoother, rhs,
                                              start=start)
        dual_shift = dual_rows(space, x - rhs)
        assert np.abs(start.g - dual_shift).max() <= (
            1e-12 * np.abs(dual_shift).max())
    # One evaluate per step start and one per trial; one direction per pass
    # and one for the predictor of each step after the first: 150 to 488
    # trials were rejected here.
    predictors = steps - 1
    rejected = calls["evaluate"] - steps - (calls["direction"] - predictors)
    assert rejected > 50


def test_simulate_zero_noise_zero_initial():
    cfg = base_config(noise=diagonal_noise(4, 0.0),
                      initial=np.zeros(4), path_count=2)
    ens = simulate(cfg)
    assert np.allclose(ens.states, 0.0, atol=1e-14)


def test_simulate_against_a_steep_wall():
    # The wall a (r - 1)^2 beyond 1: each step's resolvents are the
    # piecewise formula, which no residual check refuses.  Its value read
    # as a r^2 - 2 a r + a cancelled near the knot, by 1e-9 at 1 + 1e-6
    # when a = 1e7, far above the Armijo slack, and the line search
    # stalled: at a = 1e7 with tag w at step 11, at a = 1e9 at step 14.
    for a, tag in ((1e5, "test"), (1e7, "w"), (1e9, "test")):
        pot = piecewise_quadratic([0.0, 1.0], [(0.0, 0.0, 0.0),
                                               (0.0, 0.0, 0.0),
                                               (a, -2.0 * a, a)])
        cfg = base_config(space=path_space(16), potential=pot,
                          noise=diagonal_noise(16, 0.2), horizon=1.0,
                          step_count=32, path_count=20,
                          initial=np.full(16, 1.5), coupling_tag=tag)
        ens = simulate(cfg)
        bound = _SOLVER_TOL * (1.0 + np.abs(ens.states).max() * 4)
        assert ens.residuals.max() <= bound
        assert ens.newton_iterations.max() <= 4


def test_simulate_residuals_and_iterations_bounded():
    cfg = base_config(path_count=16)
    ens = simulate(cfg)
    bound = _SOLVER_TOL * (1.0 + np.abs(ens.states).max() * 4)
    assert ens.residuals.max() <= bound
    assert ens.newton_iterations.max() <= _MAX_NEWTON


# At these states the envelope and the line search's objective changes
# overflow; the sandpile's Newton step is exact, so the full step is taken.
def assert_large_states_step_like_small_ones(space, profile):
    # The step's mu-norms square the state; from about 1.3e154 the squares
    # overflow, and the tolerance with them.  The sandpile step with
    # multiplicative noise is homogeneous in the state up to its unit
    # offset, which is below the roundoff of these states.
    def run(x0):
        cfg = base_config(space=space, noise=diagonal_noise(len(profile), 0.2),
                          eps=0.05, horizon=1.0, step_count=4, path_count=2,
                          initial=profile * x0)
        ens = simulate(cfg)
        assert np.all(ens.newton_iterations >= 1)
        return ens.states / x0, ens.newton_iterations

    small, iterations = run(1e100)
    for x0 in (1e200, 1e300):
        ratios, its = run(x0)
        assert np.all(np.abs(ratios - small) <= 1e-12 * np.abs(small))
        assert np.array_equal(its, iterations)


# At these states the envelope and the line search's objective changes
# overflow; the sandpile's Newton step is exact, so the full step is taken.
@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_large_states_step_like_small_ones():
    assert_large_states_step_like_small_ones(path_space(4), np.ones(4))


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_large_states_on_the_conjugate_gradient_route():
    # States on both sides of the sandpile's kink give rows with several
    # slope derivatives, whose conjugate gradients square the right side
    # in their inner products.
    assert_large_states_step_like_small_ones(
        subordinate(path_space(16), BernsteinFunction.power(0.5)),
        np.linspace(1.0, -0.5, 16))


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


@pytest.mark.parametrize("make_space", [
    lambda: path_space(8),
    lambda: path_space(32),
    lambda: complete_space(4),
    lambda: complete_space(12),
    lambda: subordinate(path_space(8), BernsteinFunction("power", 0.5)),
    lambda: subordinate(path_space(24), BernsteinFunction("power", 0.5)),
], ids=["path_8", "path_32", "complete_4", "complete_12", "path_8_power_0.5",
        "path_24_power_0.5"])
def test_dual_norm_energy_identity_per_path(make_space):
    # The step X_{k+1} = X_k + dt L w(X_{k+1}) + B(X_k) dW_k + F_k, with
    # w = slope + eps id and F_k its Newton residual, gives per path
    #   |X_N|_*^2 - |X_0|_*^2 + sum_k |X_{k+1} - X_k|_*^2
    #     + 2 dt sum_k <w(X_{k+1}), X_{k+1}>_mu
    #     = 2 sum_k <B(X_k) dW_k, X_{k+1}>_* + 2 sum_k <F_k, X_{k+1}>_*
    # from <L w, v>_* = -<w, v>_mu and 2 <a - b, a> = |a|^2 - |b|^2
    # + |a - b|^2.  |F|_* <= |F|_mu / sqrt(lambda_min), and |F_k|_mu is the
    # residual the ensemble records, so the defect is bounded by the
    # recorded residuals plus the roundoff of the terms, which sum about
    # steps + nodes rounded products each.
    space = make_space()
    n = space.node_count
    for potential in (zhang(), fast_diffusion(0.3), porous_medium(2.5)):
        cfg = base_config(space=space, potential=potential,
                          noise=diagonal_noise(n, 0.4), eps=0.05,
                          horizon=1.0, step_count=32, path_count=12,
                          initial=np.linspace(-2.0, 2.0, n), seed=5,
                          coupling_tag="identity")
        ens = simulate(cfg)
        X = ens.states
        before, after = X[:, :-1], X[:, 1:]
        noise = cfg.noise.apply(before, ens.increments)
        rhs_size = np.sqrt(space.inner(before + noise, before + noise))
        assert np.all(ens.residuals <= _SOLVER_TOL * (1.0 + rhs_size))
        w = MoreauYosida(potential, cfg.eps).yosida(after) + cfg.eps * after
        dual = space.dual_norm
        terms = (dual(X[:, -1]) ** 2, -dual(X[:, 0]) ** 2,
                 (dual(after - before) ** 2).sum(1),
                 2.0 * cfg.dt * space.inner(w, after).sum(1),
                 -2.0 * space.dual_inner(noise, after).sum(1))
        defect = np.abs(sum(terms))
        newton = (2.0 * (ens.residuals * dual(after)).sum(1)
                  / np.sqrt(space.eigenvalues.min()))
        roundoff = ((cfg.step_count + n) * np.finfo(float).eps
                    * sum(np.abs(t) for t in terms))
        assert np.all(defect <= newton + roundoff), potential.kind


@pytest.mark.parametrize("space", [
    pytest.param(path_space(4), id="path_4"),
    pytest.param(complete_space(8), id="complete_8"),
])
def test_newton_limit_raises_typed_error_with_context(monkeypatch, space):
    # The same run with a one-iteration limit fails at the first step that
    # needs a second Newton iteration, and says where.  From the constant
    # 0.5 the first steps stay on one linear piece and take one iteration.
    import re

    n = space.node_count
    cfg = base_config(space=space, noise=diagonal_noise(n, 0.2),
                      initial=np.full(n, 0.5))
    its = simulate(cfg).newton_iterations
    k = int(np.argmax(its.max(axis=0) >= 2))
    assert k > 0 and its[:, k].max() >= 2
    monkeypatch.setattr(engine, "_MAX_NEWTON", 1)
    with pytest.raises(StepSolverError) as info:
        simulate(cfg)
    match = re.fullmatch(
        r"step (\d+) \(t = (\S+)\): implicit step did not converge: "
        r"path (\d+), residual (\S+) after 1 iterations", str(info.value))
    assert match, str(info.value)
    assert int(match[1]) == k
    assert float(match[2]) == pytest.approx(k * cfg.dt)
    assert its[int(match[3]), k] >= 2
    assert float(match[4]) > _SOLVER_TOL


@pytest.mark.parametrize("space", [
    pytest.param(path_space(4), id="path_4"),
    pytest.param(complete_space(8), id="complete_8"),
])
def test_coupled_newton_limit_names_the_failing_level(monkeypatch, space):
    # A ladder stepped as one batch under a one-iteration limit fails at the
    # first step where any level needs a second iteration, and names that
    # level's eps and the path within the level, not the batch row.
    import re

    n = space.node_count
    cfg = base_config(space=space, noise=diagonal_noise(n, 0.2),
                      initial=np.full(n, 0.5))
    ladder = [cfg.with_eps(eps) for eps in (0.2, 0.1, 0.05)]
    its = [e.newton_iterations for e in simulate_coupled(ladder)]
    first = [int(np.argmax(i.max(axis=0) >= 2)) for i in its]
    k = min(first)
    assert k > 0 and len(set(first)) > 1
    monkeypatch.setattr(engine, "_MAX_NEWTON", 1)
    with pytest.raises(StepSolverError) as info:
        simulate_coupled(ladder)
    match = re.fullmatch(
        r"step (\d+) \(t = (\S+)\): implicit step did not converge: "
        r"eps (\S+) \(run (\d+)\), path (\d+), residual (\S+) after 1 "
        r"iterations", str(info.value))
    assert match, str(info.value)
    assert int(match[1]) == k
    assert float(match[2]) == pytest.approx(k * cfg.dt)
    run, path = int(match[4]), int(match[5])
    assert float(match[3]) == ladder[run].eps
    assert path < cfg.path_count and its[run][path, k] >= 2
    assert float(match[6]) > _SOLVER_TOL


@pytest.mark.parametrize("space", [
    pytest.param(path_space(16), id="path_16"),
    pytest.param(subordinate(path_space(16), BernsteinFunction.power(0.5)),
                 id="path_16|power(0.5)"),
])
def test_newton_limit_is_exact_at_the_most_iterations_taken(monkeypatch,
                                                            space):
    # With m the most Newton iterations any step of a run takes, the limit
    # m changes nothing and the limit m - 1 fails.
    n = space.node_count
    cfg = base_config(space=space, potential=fast_diffusion(0.3),
                      noise=diagonal_noise(n, 0.3),
                      initial=np.linspace(-1.0, 1.5, n))
    ens = simulate(cfg)
    m = int(ens.newton_iterations.max())
    assert 1 < m < _MAX_NEWTON
    monkeypatch.setattr(engine, "_MAX_NEWTON", m)
    limited = simulate(cfg)
    for name in ("states", "increments", "residuals", "newton_iterations"):
        assert np.array_equal(getattr(limited, name), getattr(ens, name))
    monkeypatch.setattr(engine, "_MAX_NEWTON", m - 1)
    with pytest.raises(StepSolverError, match=f"after {m - 1} iterations"):
        simulate(cfg)


def test_lapack_failure_is_a_typed_error_naming_routine_and_info():
    # A generator with diagonal 10 at dt 0.1 and d = 1 makes the first
    # pivot of 1/d + dt K exactly zero, where dptsv stops.
    space = SimpleNamespace(is_tridiagonal=True, measure=np.ones(3),
                            generator=10.0 * np.eye(3))
    system = _NewtonSystem(space, 0.1)
    with pytest.raises(StepSolverError,
                       match=r"^LAPACK dptsv failed with info = 1 "):
        system.direction(np.ones((1, 3)), np.ones((1, 3)))
    # At dt 1/2 and d = 1 the diagonal 1, 3/4, 1/2, 1 and the couplings
    # -1/2 give the pivots 1, 3/4 - 1/4 and 1/2 - 1/4 / (1/2), exactly 0:
    # the first pivot that is not positive is the third.
    generator = np.diag([0.0, 0.5, 1.0, 0.0])
    generator[[0, 1], [1, 2]] = generator[[1, 2], [0, 1]] = 1.0
    space = SimpleNamespace(is_tridiagonal=True, measure=np.ones(4),
                            generator=generator)
    system = _NewtonSystem(space, 0.5)
    with pytest.raises(StepSolverError,
                       match=r"^LAPACK dptsv failed with info = 3 "):
        system.direction(np.ones((1, 4)), np.ones((1, 4)))


def test_lapack_wrapper_loader_names_what_it_missed(monkeypatch, tmp_path):
    wrapper = engine.lapack
    assert engine._load_flapack(tmp_path) is wrapper
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError) as info:
        engine._load_flapack(tmp_path)
    assert info.value.name == "scipy.linalg._flapack"
    assert str(info.value) == f"cannot find scipy.linalg._flapack in {tmp_path}"


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
    for horizon in (0.0, np.nan, np.inf):
        # Refused at construction, not after simulating every step.
        with pytest.raises(ValueError, match="horizon"):
            base_config(horizon=horizon)
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
    # The operator does not depend on the state: the constant is +0.0,
    # with no sampling, on every kind of space.
    for space in (path_space(4), complete_space(8), single_node_space(),
                  subordinate(path_space(16), BernsteinFunction.power(0.5))):
        lipschitz = certify_noise(eigenmode_noise(space, 2, 0.5), space)
        assert type(lipschitz) is float
        assert np.copysign(1.0, lipschitz) == 1.0 and lipschitz == 0.0


def test_additive_noise_builds_its_column_array_once():
    # apply reads one read-only array of the columns, built with the
    # model; it equals the product with the array rebuilt from the tuple,
    # bit for bit: apply is one product over the flattened rows.
    model = eigenmode_noise(path_space(8), 3, amplitude=0.5)
    assert model._columns is model._columns
    assert not model._columns.flags.writeable
    B = np.asarray(model.columns)
    dw = np.random.default_rng(2).standard_normal((5, 7, 3))
    u = np.zeros((5, 7, 8))
    assert np.array_equal(model.apply(u, dw),
                          (dw.reshape(-1, 3) @ B.T).reshape(5, 7, 8))
    # The caller's array is copied, not frozen.
    columns = np.ones((4, 2))
    additive_noise(columns)
    assert columns.flags.writeable


def test_certify_silent_noise_is_all_zero():
    space = path_space(4)
    assert certify_noise(diagonal_noise(4, 0.0), space) == 0.0


def test_certify_diagonal_noise_two_node():
    space = build_graph_space([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.5], [1.0, 1.0])
    assert 0 < certify_noise(diagonal_noise(2, 0.3), space) < np.inf


# The constants of sigma 0.2 at the default clip and sigma 0.3 at clip 1
# as certified when certify_noise also sampled growth constants.  The
# dense oracle checks the bits; these values, to well within LAPACK's
# platform roundoff, keep the two from drifting together.
PINNED_LIPSCHITZ = {
    "path_16": (0.06937887562370183, 0.10427404354313727),
    "path_64": (0.05138426911037583, 0.09935706200757481),
    "complete_8": (0.044950493691575624, 0.10099917293394856),
    "path_64|power(0.5)": (0.04517784868254084, 0.09431727407430833),
}


@pytest.mark.parametrize("name, make_space", [
    pytest.param(name, make, id=name) for name, make in (
        ("path_16", lambda: path_space(16)),
        ("path_64", lambda: path_space(64)),
        ("complete_8", lambda: complete_space(8)),
        ("path_64|power(0.5)", lambda: subordinate(
            path_space(64), BernsteinFunction.power(0.5))))])
def test_certify_diagonal_noise_matches_dense_stacks(name, make_space):
    # Diagonal noise is certified from its clipped diagonal alone; the
    # constant equals the dense-stack one bit for bit, also with a clip
    # level that the sampled states (sizes up to about 10) exceed.
    space = make_space()
    n = space.node_count
    default, clipped = (diagonal_noise(n, 0.2),
                        diagonal_noise(n, 0.3, clip_at=1.0))
    assert certify_noise(clipped, space) != certify_noise(
        diagonal_noise(n, 0.3, clip_at=np.inf), space)
    for model in (default, clipped, eigenmode_noise(space, 3, 0.2)):
        assert certify_noise(model, space) == certify_noise_dense(model, space)
    got = (certify_noise(default, space), certify_noise(clipped, space))
    assert got == pytest.approx(PINNED_LIPSCHITZ[name], rel=1e-12, abs=0.0)


def test_noise_model_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown noise kind 'affine'"):
        NoiseModel("affine", mode_count=2)


def test_additive_noise_validation():
    with pytest.raises(ValueError, match="matrix"):
        additive_noise(np.ones(3))
    with pytest.raises(ValueError, match="nonnegative"):
        diagonal_noise(3, 0.1, clip_at=-1.0)


def test_noise_model_holds_its_kinds_rules():
    # The constructor refuses what the factories refused, NaN included,
    # and a field the kind does not read, so a model built directly
    # equals the one its factory builds.
    columns = ((1.0, 2.0), (3.0, 4.0))
    for make, message in (
            (lambda: diagonal_noise(4, np.nan), "sigma must be nonnegative"),
            (lambda: diagonal_noise(4, np.inf), "sigma must be nonnegative"),
            (lambda: diagonal_noise(4, 0.2, clip_at=np.nan),
             "clip level must be nonnegative"),
            (lambda: NoiseModel("diagonal_multiplicative", 4, sigma=-0.2),
             "sigma must be nonnegative"),
            (lambda: NoiseModel("diagonal_multiplicative", 4, sigma=0.2,
                                clip_at=-1.0),
             "clip level must be nonnegative"),
            (lambda: NoiseModel("diagonal_multiplicative", 2, sigma=0.2,
                                columns=columns),
             "diagonal_multiplicative reads no columns"),
            (lambda: NoiseModel("additive", 5, columns=((1.0, 2.0),)),
             "matrix"),
            (lambda: NoiseModel("additive", 2, columns=(1.0, 2.0)), "matrix"),
            (lambda: additive_noise([[1.0, np.inf]]), "finite"),
            (lambda: NoiseModel("additive", 2, sigma=0.2, columns=columns),
             "additive reads no sigma"),
            (lambda: NoiseModel("additive", 2, clip_at=1.0, columns=columns),
             "additive reads no sigma or clip_at")):
        with pytest.raises(ValueError, match=message):
            make()
    assert diagonal_noise(4, 0.2, clip_at=np.inf).clip_at == np.inf
    assert NoiseModel("additive", 2, columns=np.array(columns)) \
        == additive_noise(columns)
    assert NoiseModel("diagonal_multiplicative", 4, sigma=0.2) \
        == diagonal_noise(4, 0.2)


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

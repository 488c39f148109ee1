"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Every tolerance is
pinned here; nothing defers to later calibration.  Monte Carlo criteria run
at their stated sizes on the 16-node path preset with coupled noise.
"""

import time

import numpy as np
import pytest
from oracles import breakpoints

from graphspde.cli import main as cli_main
from graphspde.dirichlet import (
    BernsteinFunction,
    complete_space,
    gamma_transform_quadrature,
    path_space,
    single_node_space,
    subordinate,
)
from graphspde.engine import SimulationConfig, energy_budget, simulate
from graphspde.estimates import (
    EnergyFunctional,
    build_test_process,
    check_svi,
    contraction_experiment,
    default_decay_rate,
    energy_uniformity,
    epsilon_convergence,
    mollify_sequence,
    regularity_budget,
    regularity_uniformity,
)
from graphspde.monotone import (
    MoreauYosida,
    fast_diffusion,
    piecewise_quadratic,
    porous_medium,
    zhang,
)
from graphspde.noise import diagonal_noise

SLACK = -1e-10


def announce(number: int, label: str, passed: bool, detail: str = ""):
    state = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} [{label}]: {state}" +
          (f"  ({detail})" if detail else ""))
    assert passed, f"criterion {number:02d} {label}: {detail}"


def sample_piecewise():
    return piecewise_quadratic(
        knots=[-1.0, 1.0],
        pieces=[(1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (2.0, -2.0, 0.0)])


BUILTINS = {
    "fast_diffusion": fast_diffusion(0.5),
    "porous_medium": porous_medium(2.0),
    "zhang": zhang(),
    "piecewise": sample_piecewise(),
}


@pytest.fixture(scope="module")
def presets():
    return [single_node_space(), path_space(2), path_space(16),
            complete_space(8)]


@pytest.fixture(scope="module")
def accept_space():
    return path_space(16)


@pytest.fixture(scope="module")
def accept_noise(accept_space):
    return diagonal_noise(accept_space.node_count, 0.2)


@pytest.fixture(scope="module")
def noise_decay_rate(accept_space, accept_noise):
    return default_decay_rate(
        accept_config(accept_space, zhang(), accept_noise, 0.1))


def accept_config(space, potential, noise, eps):
    return SimulationConfig(
        space=space, potential=potential, noise=noise, eps=eps,
        horizon=1.0, step_count=64, path_count=200,
        initial=np.full(space.node_count, 0.5), seed=314,
        coupling_tag="accept")


def accept_ladder(space, potential, noise, eps_values):
    # one coupled run per smoothing level
    return [simulate(accept_config(space, potential, noise, eps))
            for eps in eps_values]


# -- criterion 1: smoothing inequality suite -----------------------------------


def test_criterion_01_moreau_yosida_suite():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = {}
    for kind, pot in BUILTINS.items():
        slacks = {"bound_by_section": np.inf, "envelope_sandwich": np.inf,
                  "envelope_gap": np.inf, "cross_monotone": np.inf,
                  "cross_growth": np.inf}
        for _ in range(100):  # 100 smoothing pairs x 100 points = 1e4 samples
            e1, e2 = rng.uniform(0.02, 0.98, size=2)
            r = rng.uniform(-10, 10, size=100)
            rp = rng.uniform(-10, 10, size=100)
            one, two = MoreauYosida(pot, e1), MoreauYosida(pot, e2)
            y1, y2 = one.yosida(r), two.yosida(rp)
            env = one.envelope(r)
            val, val_j = pot.value(r), pot.value(one.resolvent(r))
            ms = pot.minimal_section(r)

            def push(name, slack, scale):
                slacks[name] = min(slacks[name],
                                   float((slack / scale).min()))

            push("bound_by_section", ms - np.abs(y1), 1.0 + ms)
            push("envelope_sandwich",
                 np.minimum(env - val_j, val - env), 1.0 + val)
            push("envelope_gap", e1 * ms**2 - np.abs(val - env), 1.0 + val)
            prod = (y1 - y2) * (r - rp)
            bound = -0.5 * (e1 + e2) * (y1**2 + y2**2)
            push("cross_monotone", prod - bound,
                 1.0 + np.abs(prod) + np.abs(bound))
            if pot.slope_bound is not None:
                growth = -2.0 * pot.slope_bound**2 * (e1 + e2) \
                    * (r**2 + rp**2 + 1.0)
                push("cross_growth", prod - growth,
                     1.0 + np.abs(prod) + np.abs(growth))
        if pot.slope_bound is None:
            slacks.pop("cross_growth")  # no linear bound exists for this kind
        worst[kind] = min(slacks.values())
    elapsed = time.perf_counter() - started
    ok = all(v >= SLACK for v in worst.values()) and elapsed < 5.0
    announce(1, "moreau-yosida inequality suite", ok,
             f"worst slack {min(worst.values()):.2e}, {elapsed:.2f}s")


# -- criterion 2: prox oracle ----------------------------------------------------


def test_criterion_02_prox_grid_oracle():
    rng = np.random.default_rng(102)
    grid = np.arange(-20.0, 20.0 + 1e-4, 1e-4)
    worst = 0.0
    for pot in BUILTINS.values():
        values = pot.value(grid)
        for _ in range(1000):
            eps = float(rng.uniform(0.02, 0.98))
            r = float(rng.uniform(-10, 10))
            objective = (r - grid) ** 2 / (2 * eps) + values
            oracle = grid[int(np.argmin(objective))]
            got = float(MoreauYosida(pot, eps).resolvent(r))
            worst = max(worst, abs(got - oracle))
    announce(2, "prox oracle within grid resolution", worst <= 1.000001e-4,
             f"worst gap {worst:.2e} vs grid step 1e-4")


# -- criterion 3: gradient of the envelope ------------------------------------------


def test_criterion_03_envelope_gradient():
    rng = np.random.default_rng(103)
    h = 1e-6
    worst = 0.0
    for pot in BUILTINS.values():
        pts = rng.uniform(-10, 10, size=2000)
        keep = np.min(np.abs(pts[:, None] - breakpoints(pot)[None, :]),
                      axis=1) >= 1e-2
        pts = pts[keep][:1000]
        for eps in (0.1, 0.5):
            my = MoreauYosida(pot, eps)
            fd = (my.envelope(pts + h) - my.envelope(pts - h)) / (2 * h)
            worst = max(worst, float(np.abs(fd - my.yosida(pts)).max()))
    announce(3, "finite differences of envelope match slope", worst <= 1e-4,
             f"worst deviation {worst:.2e}")


# -- criterion 4: vanishing-shift dual-norm limit -------------------------------------


def test_criterion_04_dual_norm_limit():
    rng = np.random.default_rng(104)
    worst_mono, worst_rel = 0.0, 0.0
    for space in (path_space(2), path_space(16)):
        for _ in range(100):
            v = rng.standard_normal(space.node_count)
            shifts = [10.0 ** -k for k in range(0, 7)]
            series = [space.dual_norm(v, s) for s in shifts]
            worst_mono = max(worst_mono,
                             max(a - b for a, b in zip(series, series[1:])))
            limit = space.dual_norm(v)
            worst_rel = max(worst_rel, abs(series[-1] - limit) / limit)
    ok = worst_mono <= 1e-12 and worst_rel <= 1e-6
    announce(4, "dual norms increase to the vanishing-shift limit", ok,
             f"monotonicity defect {worst_mono:.2e}, "
             f"relative gap {worst_rel:.2e}")


# -- criterion 5: generator pairing identity -------------------------------------------


def test_criterion_05_pairing_identity(presets):
    rng = np.random.default_rng(105)
    worst = 0.0
    for space in presets:
        u = rng.standard_normal((1000, space.node_count))
        v = rng.standard_normal((1000, space.node_count))
        lhs = space.dual_inner(space.apply_generator(u), v)
        rhs = -space.inner(u, v)
        scale = np.maximum(space.lp_norm(u, 2) * space.lp_norm(v, 2), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    announce(5, "generator pairing identity", worst <= 1e-10,
             f"worst scaled defect {worst:.2e}")


# -- criterion 6: Gamma-transform oracle ---------------------------------------------


def test_criterion_06_gamma_transform_oracle(presets):
    rng = np.random.default_rng(106)
    worst = 0.0
    for space in presets:
        for r in (1.0, 2.0, 3.0):
            for _ in range(5):
                w = rng.standard_normal(space.node_count)
                spectral = space.gamma_transform(r, w)
                quad = gamma_transform_quadrature(space, r, w)
                worst = max(worst, float(
                    np.linalg.norm(spectral - quad)
                    / np.linalg.norm(spectral)))
    announce(6, "spectral vs quadrature Gamma-transform", worst <= 1e-6,
             f"worst relative gap {worst:.2e}")


# -- criterion 7: ultracontractivity identity ------------------------------------------


def test_criterion_07_ultracontractivity(presets):
    worst_id, worst_law = 0.0, 0.0
    rng = np.random.default_rng(107)
    spaces = list(presets)
    for alpha in (0.3, 0.5, 0.8):
        for base in (path_space(16), complete_space(8)):
            spaces.append(subordinate(base, BernsteinFunction.power(alpha)))
    for space in spaces:
        for t in (0.1, 0.5, 1.0, 2.0):
            sq = space.opnorm(t, 1, 2) ** 2
            flat = space.opnorm(2 * t, 1, np.inf)
            worst_id = max(worst_id, abs(sq - flat) / flat)
        f = rng.standard_normal(space.node_count)
        gap = np.abs(space.semigroup(0.4, space.semigroup(0.6, f))
                     - space.semigroup(1.0, f)).max()
        worst_law = max(worst_law, float(gap))
    ok = worst_id <= 1e-8 and worst_law <= 1e-10
    announce(7, "ultracontractivity norm identity", ok,
             f"identity {worst_id:.2e}, semigroup law {worst_law:.2e}")


# -- criterion 8: smoothing-level convergence -------------------------------------------


def test_criterion_08_epsilon_convergence(accept_space, accept_noise,
                                          noise_decay_rate):
    started = time.perf_counter()
    ladder = [0.2, 0.1, 0.05, 0.025]
    results = {}
    for kind in ("zhang", "fast_diffusion"):
        runs = accept_ladder(accept_space, BUILTINS[kind], accept_noise,
                             ladder)
        rep = epsilon_convergence(runs, decay_rate=noise_decay_rate)
        results[kind] = rep
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in results.values()) and elapsed < 120.0
    detail = ", ".join(
        f"{k}: slope {r.constants['slope']:.2f}+-{r.constants['slope_ci']:.2f}"
        for k, r in results.items()) + f", {elapsed:.1f}s"
    announce(8, "gap decay across smoothing levels", ok, detail)


# -- criterion 9: contraction -------------------------------------------------------


def test_criterion_09_contraction(accept_space, accept_noise,
                                  noise_decay_rate):
    cfg = accept_config(accept_space, zhang(), accept_noise, 0.1)
    direction = np.ones(accept_space.node_count)
    direction /= accept_space.dual_norm(direction)
    second = cfg.initial + direction
    assert accept_space.dual_norm(cfg.initial - second) == pytest.approx(1.0)
    rep = contraction_experiment(simulate(cfg),
                                 simulate(cfg.with_initial(second)),
                                 decay_rate=noise_decay_rate)
    announce(9, "initial-condition contraction", rep.passed,
             f"sup ratio {rep.constants['sup_ratio']:.3f} <= 2, "
             f"decay rate {rep.constants['decay_rate']:.3f}")


# -- criterion 10: energy and regularity uniformity ---------------------------------------


def test_criterion_10_budget_uniformity(accept_space, accept_noise):
    ladder = [0.2, 0.1, 0.05]
    bands = {}
    for kind in ("zhang", "fast_diffusion"):
        functional = EnergyFunctional(accept_space, BUILTINS[kind])
        runs = accept_ladder(accept_space, BUILTINS[kind], accept_noise,
                             ladder)
        e = energy_uniformity([energy_budget(ens) for ens in runs])
        r = regularity_uniformity([regularity_budget(ens, functional)
                                   for ens in runs])
        bands[kind] = (e, r)
    ok = all(e.passed and r.passed for e, r in bands.values())
    detail = ", ".join(
        f"{k}: energy x{e.constants['band_ratio']:.2f}, "
        f"regularity x{r.constants['band_ratio']:.2f}"
        for k, (e, r) in bands.items())
    announce(10, "implied constants uniform in the smoothing", ok, detail)


# -- criterion 11: variational inequality ---------------------------------------------


def test_criterion_11_svi(accept_space, accept_noise):
    n = accept_space.node_count
    failures, fitted = [], []
    for kind in ("zhang", "fast_diffusion"):
        functional = EnergyFunctional(accept_space, BUILTINS[kind])
        for ens in accept_ladder(accept_space, BUILTINS[kind], accept_noise,
                                 [0.1, 0.05]):
            cases = (
                ("zero", build_test_process(ens, np.zeros(n))),
                ("constant", build_test_process(ens, np.zeros(n),
                                                drift=np.full(n, 0.1))),
                ("replayed", build_test_process(ens, ens.config.initial,
                                                drift=ens)),
            )
            reps = check_svi(ens, [proc for _, proc in cases], functional)
            for (tag, _), rep in zip(cases, reps):
                fitted.append(rep.constants["fitted_constant"])
                if not (rep.passed and np.isfinite(fitted[-1])):
                    failures.append((kind, ens.config.eps, tag))
    announce(11, "variational inequality with fitted constant",
             not failures,
             f"12 cases, largest fitted constant {max(fitted):.3g}"
             + (f", failures {failures}" if failures else ""))


# -- criterion 12: mollification ----------------------------------------------------


def test_criterion_12_mollification(presets):
    rng = np.random.default_rng(112)
    worst_mono, worst_rel = -np.inf, 0.0
    for space in presets:
        for pot in (zhang(), fast_diffusion(0.5)):
            functional = EnergyFunctional(space, pot)
            for _ in range(100):
                # smooth random states: rough one-sided bumps would be
                # erased outright, not approximated
                v = space.gamma_transform(
                    3.0, rng.standard_normal(space.node_count))
                seq = mollify_sequence(functional, v, n_max=64)
                worst_mono = max(worst_mono,
                                 float((seq.values - seq.value_at_state).max()))
                gap = abs(seq.values[-1] - seq.value_at_state)
                worst_rel = max(worst_rel,
                                gap / (0.05 * (1.0 + seq.value_at_state)))
    ok = worst_mono <= 1e-12 and worst_rel <= 1.0
    announce(12, "semigroup mollification of the functional", ok,
             f"domination defect {worst_mono:.2e}, "
             f"worst gap at {100 * 0.05 * worst_rel:.2f}% of (1 + value)")


# -- criterion 13: determinism ------------------------------------------------------


def test_criterion_13_determinism(tmp_path):
    config_text = (
        "experiment.kind = eps_convergence\n"
        "space.preset = path_4\n"
        "potential.kind = zhang\n"
        "noise.kind = diagonal\n"
        "noise.sigma = 0.2\n"
        "run.epsilon_list = 0.2, 0.1, 0.05\n"
        "run.horizon = 0.5\n"
        "run.steps = 16\n"
        "run.paths = 24\n"
        "run.seed = 7\n"
        "run.x0 = constant:0.5\n")
    cfg_file = tmp_path / "accept.cfg"
    cfg_file.write_text(config_text)
    outs = []
    for name, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / name
        status = cli_main(["run", str(cfg_file), "--out-dir", str(out),
                           "--threads", threads])
        assert status == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = True
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        for fname in names:
            if (outs[0] / fname).read_bytes() != (other / fname).read_bytes():
                identical = False
    announce(13, "bitwise-identical artifacts across reruns and thread "
                 "counts", identical, f"{len(names)} artifacts compared")

"""Tests for config parsing, validation, experiment dispatch, artifact
determinism and the command line interface."""

import dataclasses
import math

import numpy as np
import pytest

from graphspde.cli import main
from graphspde.config import (
    ConfigError,
    parse_config,
    preset_space,
    run_experiment,
)

MINIMAL = "space.preset = single\n"

EPS_CONV = """
# smoothing-ladder experiment on a small preset, sized for test speed
experiment.kind = eps_convergence
space.preset = path_4
potential.kind = zhang
noise.kind = diagonal
noise.sigma = 0.2
run.epsilon_list = 0.2, 0.1, 0.05
run.horizon = 0.5
run.steps = 16
run.paths = 24
run.seed = 7
run.tag = cli
run.x0 = constant:0.5
"""


# -- parsing -----------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.experiment == "norms"
    assert cfg.get("run", "seed") == "0"
    assert cfg.get("run", "paths") == "100"
    assert cfg.get("potential", "kind") == "fast_diffusion"


def test_parsed_config_is_read_only():
    cfg = parse_config(MINIMAL)
    with pytest.raises(TypeError):
        cfg.entries[("run", "seed")] = "1"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.run = cfg.run.with_eps(0.2)


def test_epsilon_out_of_range_message():
    with pytest.raises(ConfigError, match=r"epsilon must lie in \(0,1\)"):
        parse_config(MINIMAL + "run.epsilon = 1.5\n")


def test_contraction_requires_second_initial():
    with pytest.raises(ConfigError, match="y0"):
        parse_config(MINIMAL + "experiment.kind = contraction\n"
                               "noise.kind = diagonal\n")


def test_svi_requires_explicit_noise_block():
    with pytest.raises(ConfigError, match="noise: block required"):
        parse_config(MINIMAL + "experiment.kind = svi\n")


def test_syntax_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("space.preset = single\nthis is not a pair\n")


def test_all_violations_reported_together():
    bad = ("experiment.kind = bogus\n"
           "run.epsilon = 2.0\n"
           "run.steps = 0\n"
           "potential.kind = nothing\n")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = str(err.value)
    assert "unknown experiment" in text
    assert "epsilon must lie in" in text
    assert "at least one step" in text
    assert "unknown kind" in text


@pytest.mark.parametrize("line, message", [
    ("run.horizon = abc", "run.horizon: expected a number, got 'abc'"),
    ("run.steps = 1.5", "run.steps: expected an integer, got '1.5'"),
    ("run.paths = ", "run.paths: expected an integer, got ''"),
    ("run.epsilon = x", "run.epsilon: expected a number, got 'x'"),
    ("potential.theta = x", "potential.theta: expected a number, got 'x'"),
    ("noise.sigma = abc", "noise.sigma: expected a number, got 'abc'"),
    ("noise.sigma = -1", "noise: sigma must be nonnegative"),
    ("noise.kind = bogus", "noise: unknown kind 'bogus'"),
    ("noise.kind = additive\nnoise.modes = 0", "noise: need at least one mode"),
    ("run.x0 = spike:5", "run.x0: spike node 5 is outside 0..0"),
    ("run.x0 = spike:-1", "run.x0: spike node -1 is outside 0..0"),
    ("run.x0 = constant:nan", "run.x0: expected a finite number, got 'nan'"),
    ("run.x0 = spike:x", "run.x0: expected an integer, got 'x'"),
    ("run.x0 = constant:", "run.x0: expected a number, got ''"),
    ("run.y0 = spike:x", "run.y0: expected an integer, got 'x'"),
    ("run.y0 = constant:", "run.y0: expected a number, got ''"),
    ("run.y0 = inf", "run.y0: expected a finite number, got 'inf'"),
    ("run.epsilon = 0.3\nrun.epsilon_list = 0.2, 0.1",
     "run.epsilon: cannot be combined with run.epsilon_list"),
    ("space.bernstein = custom(0.5)",
     "space.bernstein: cannot parse 'custom(0.5)'"),
    ("space.bernstein = power(1.5)",
     "space.bernstein: alpha must lie in (0, 1), got 1.5"),
    ("space.bernstein = power(x)",
     "space.bernstein: expected a number, got 'x'"),
    ("space.bernstein = shifted_power(0)",
     "space.bernstein: alpha must lie in (0, 1), got 0.0"),
    ("experiment.kind = eps_convergence\nrun.epsilon_list = 0.1, 0.2",
     "run.epsilon_list: eps_convergence needs at least two strictly"),
    ("experiment.kind = eps_convergence\nrun.epsilon_list = 0.1, 0.1",
     "run.epsilon_list: eps_convergence needs at least two strictly"),
    ("run.horizon = nan", "run.horizon: expected a finite number, got 'nan'"),
    ("run.horizon = inf", "run.horizon: expected a finite number, got 'inf'"),
    ("run.horizon = 1e400",
     "run.horizon: expected a finite number, got '1e400'"),
    ("noise.sigma = nan", "noise.sigma: expected a finite number, got 'nan'"),
    ("noise.clip = nan", "noise.clip: expected a finite number, got 'nan'"),
    ("noise.clip = -inf", "noise: clip level must be nonnegative"),
    ("run.decay_rate = inf",
     "run.decay_rate: expected a finite number, got 'inf'"),
    ("run.seed = -1", "run.seed: seed must be nonnegative"),
    ("potential.kind = piecewise\npotential.knots = inf\n"
     "potential.pieces = 1:0:0, 1:0:3",
     "potential.knots: expected a finite number, got 'inf'"),
])
def test_invalid_values_are_config_errors(tmp_path, capsys, line, message):
    # Each probe used to pass validation or escape as a raw exception.
    text = MINIMAL + line + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any(p.startswith(message) for p in err.value.problems)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_infinite_clip_means_no_clipping():
    cfg = parse_config(MINIMAL + "noise.clip = inf\n")
    assert cfg.run.noise.clip_at == np.inf


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("space.preset = single\nrun.bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("widget.x = 1\n")


def test_normalize_round_trip_idempotent():
    cfg = parse_config(EPS_CONV)
    once = cfg.normalize()
    again = parse_config(once).normalize()
    assert once == again


def test_custom_graph_block():
    cfg = parse_config(
        "space.nodes = 3\n"
        "space.edges = 0-1:1.0, 1-2:2.0\n"
        "space.killing = 1, 0, 0\n"
        "space.measure = 1, 1, 1\n")
    space = cfg.run.space
    assert space.node_count == 3
    assert space.generator[0, 1] == pytest.approx(1.0)
    assert space.generator[1, 2] == pytest.approx(2.0)


@pytest.mark.parametrize("text, message", [
    ("space.preset = path_4\nspace.nodes = 3\nspace.killing = 1, 1, 1",
     "space.preset: cannot be combined with a custom graph (space.nodes, "
     "space.killing)"),
    ("space.preset = path_4\nspace.edges = 0-1:1.0",
     "space.preset: cannot be combined with a custom graph (space.edges)"),
    ("space.edges = 0-1:1.0\nspace.killing = 1, 1",
     "space.nodes: a custom graph needs its node count"),
    ("space.nodes = 0\nspace.killing = 1", "space.nodes: need at least one node"),
    ("space.nodes = -2", "space.nodes: need at least one node"),
    ("space.nodes = 2\nspace.edges = 0-1:1, 0-1:2\nspace.killing = 1, 1",
     "space.edges: edge 0-1 is given twice"),
    ("space.nodes = 2\nspace.edges = 0-1:1, 1-0:1\nspace.killing = 1, 1",
     "space.edges: edge 1-0 is given twice"),
], ids=["preset_and_nodes", "preset_and_edges", "edges_without_nodes",
        "zero_nodes", "negative_nodes", "repeated_edge", "reversed_edge"])
def test_custom_graph_refusals(text, message):
    # Keys that would otherwise be dropped or overwritten unread.
    with pytest.raises(ConfigError) as err:
        parse_config(text + "\n")
    assert message in err.value.problems


def test_subordinated_preset_block():
    cfg = parse_config("space.preset = path_4\n"
                       "space.bernstein = power(0.5)\n")
    space = cfg.run.space
    base = preset_space("path_4")
    assert np.allclose(space.eigenvalues, np.sqrt(base.eigenvalues))


def test_preset_names():
    assert preset_space("single").node_count == 1
    assert preset_space("path_16").node_count == 16
    assert preset_space("complete_8").node_count == 8
    with pytest.raises(ValueError, match="unknown preset"):
        preset_space("torus_9")


def test_state_specs():
    cfg = parse_config(MINIMAL + "run.x0 = spike:0\n")
    assert np.allclose(cfg.run.initial, [1.0])
    cfg = parse_config("space.preset = path_2\nrun.x0 = 0.5, -0.5\n")
    assert np.allclose(cfg.run.initial, [0.5, -0.5])
    with pytest.raises(ConfigError, match="run.x0"):
        parse_config("space.preset = path_2\nrun.x0 = 1, 2, 3\n")
    with pytest.raises(ConfigError, match="space: edge"):
        parse_config("space.nodes = 2\nspace.edges = 0:1\n"
                     "space.killing = 1, 1\n")


# -- experiment dispatch ----------------------------------------------------------


def test_run_assumptions_experiment(tmp_path):
    cfg = parse_config("space.preset = single\n"
                       "experiment.kind = assumptions\n"
                       "potential.kind = fast_diffusion\n"
                       "potential.theta = 0.5\n")
    status = run_experiment(cfg, tmp_path)
    assert status == 0
    assert (tmp_path / "report_assumptions.txt").exists()
    assert (tmp_path / "manifest.txt").exists()


def test_run_assumptions_flags_superlinear_slope_kind(tmp_path):
    cfg = parse_config("space.preset = single\n"
                       "experiment.kind = assumptions\n"
                       "potential.kind = porous_medium\n"
                       "potential.gamma = 2\n")
    status = run_experiment(cfg, tmp_path)
    assert status == 1  # the linear minimal-section bound genuinely fails
    text = (tmp_path / "report_assumptions.txt").read_text()
    assert "FAIL" in text


def test_run_norms_experiment(tmp_path):
    cfg = parse_config("space.preset = path_4\nexperiment.kind = norms\n")
    status = run_experiment(cfg, tmp_path)
    assert status == 0
    body = (tmp_path / "report_norms.txt").read_text()
    assert "passed = true" in body


@pytest.mark.parametrize("space", [
    "space.preset = path_4",
    "space.preset = path_8\nspace.bernstein = shifted_power(0.5)",
], ids=["path_4", "path_8_shifted_power"])
def test_norms_shift_limit_bound_follows_bottom_eigenvalue(tmp_path, space):
    # dual_norm(v, s)**2 = sum c**2 / (lam + s) bounds the relative gap at
    # shift s by 1 - sqrt(lam_min / (lam_min + s)); a fixed 1e-6 would be
    # below that whenever lam_min < 0.5, as on the subordinated path_8.
    cfg = parse_config(space + "\nexperiment.kind = norms\n")
    assert run_experiment(cfg, tmp_path) == 0
    rows = (tmp_path / "report_norms.csv").read_text().splitlines()
    row = next(r.split(",") for r in rows
               if r.startswith("dual_norm_vanishing_shift_limit,"))
    assert row[1] == "true"
    built = cfg.run.space
    lam, shift = built.eigenvalues.min(), 1e-6
    bound = 1.0 - math.sqrt(lam / (lam + shift)) + 1e-12
    rng = np.random.default_rng(0)
    gap = 0.0
    for _ in range(100):
        c = built.to_spectral(rng.standard_normal(built.node_count))
        shifted = math.sqrt(c**2 @ (1.0 / (built.eigenvalues + shift)))
        limit = math.sqrt(c**2 @ (1.0 / built.eigenvalues))
        gap = max(gap, (limit - shifted) / limit)
    assert 0.0 < gap < bound
    assert float(row[2]) == pytest.approx(bound - gap, abs=1e-14)
    assert (bound < 1e-6) == (lam > 0.5)


def test_run_eps_convergence_artifacts(tmp_path):
    cfg = parse_config(EPS_CONV)
    status = run_experiment(cfg, tmp_path)
    assert status == 0
    csv = (tmp_path / "report_eps_convergence.csv").read_text()
    assert csv.splitlines()[0] == "eps_pair,D,slope_fit,ci"
    assert len(csv.splitlines()) == 3  # two consecutive pairs
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "config_sha256" in manifest
    assert "all_passed = true" in manifest


def test_run_energy_and_svi_artifacts(tmp_path):
    base = ("space.preset = path_4\n"
            "potential.kind = zhang\n"
            "noise.kind = diagonal\n"
            "noise.sigma = 0.2\n"
            "run.epsilon_list = 0.2, 0.1\n"
            "run.horizon = 0.5\n"
            "run.steps = 8\n"
            "run.paths = 20\n"
            "run.x0 = constant:0.5\n")
    status = run_experiment(parse_config(base + "experiment.kind = energy\n"),
                            tmp_path / "energy")
    assert status == 0
    assert (tmp_path / "energy" / "trajectories_eps0p2.npy").exists()
    assert (tmp_path / "energy" / "report_energy_uniformity.txt").exists()

    status = run_experiment(parse_config(base + "experiment.kind = svi\n"),
                            tmp_path / "svi")
    assert status == 0
    for tag in ("zero", "constant", "replayed"):
        assert (tmp_path / "svi" / f"report_svi_{tag}_eps0p1.txt").exists()


@pytest.mark.parametrize("kind", ["energy", "regularity", "eps_convergence",
                                  "contraction"])
def test_ladder_experiment_simulates_each_level_once(tmp_path, monkeypatch,
                                                      kind):
    # Each (smoothing level, initial state) is simulated once and each
    # level's budget report is computed once, wherever they are called.
    import graphspde.config
    import graphspde.estimates
    from graphspde.engine import energy_budget, simulate_coupled
    from graphspde.estimates import regularity_budget

    runs, budgets = [], []

    def counted(fn, log, keys):
        def wrapper(*args):
            log.extend(keys(*args))
            return fn(*args)
        return wrapper

    wrappers = {
        simulate_coupled: counted(
            simulate_coupled, runs,
            lambda cs: [(c.eps, tuple(c.initial)) for c in cs]),
        energy_budget: counted(energy_budget, budgets,
                               lambda e: [("energy", e.config.eps)]),
        regularity_budget: counted(
            regularity_budget, budgets,
            lambda e: [("regularity", e.config.eps)]),
    }
    for module in (graphspde.config, graphspde.estimates):
        for fn, wrapper in wrappers.items():
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)
    assert "simulate" not in vars(graphspde.estimates)

    text = ("space.preset = path_4\n"
            f"experiment.kind = {kind}\n"
            "potential.kind = zhang\n"
            "run.horizon = 0.5\n"
            "run.steps = 8\n"
            "run.paths = 12\n")
    x0, y0 = (1.0,) * 4, (1.5,) * 4
    if kind == "contraction":
        text += ("noise.kind = diagonal\n"
                 "run.epsilon = 0.1\n"
                 "run.y0 = constant:1.5\n")
        expected_runs = [(0.1, x0), (0.1, y0)]
    else:
        text += "run.epsilon_list = 0.2, 0.1, 0.05\n"
        expected_runs = [(0.05, x0), (0.1, x0), (0.2, x0)]
    assert run_experiment(parse_config(text), tmp_path) == 0
    assert sorted(runs) == expected_runs
    if kind in ("energy", "regularity"):
        assert sorted(budgets) == [(kind, 0.05), (kind, 0.1), (kind, 0.2)]
        assert (tmp_path / f"report_{kind}_uniformity.txt").exists()
    else:
        assert budgets == []


def test_run_contraction_experiment(tmp_path):
    cfg = parse_config("space.preset = path_4\n"
                       "experiment.kind = contraction\n"
                       "potential.kind = zhang\n"
                       "noise.kind = diagonal\n"
                       "noise.sigma = 0.2\n"
                       "run.epsilon = 0.1\n"
                       "run.horizon = 0.5\n"
                       "run.steps = 8\n"
                       "run.paths = 24\n"
                       "run.x0 = constant:0.5\n"
                       "run.y0 = constant:1.5\n")
    assert run_experiment(cfg, tmp_path) == 0
    assert (tmp_path / "report_contraction.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(EPS_CONV)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(parse_config(EPS_CONV), tmp_path / "b")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


# -- command line -------------------------------------------------------------------


def test_cli_presets(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "single" in out and "path_<n>" in out


def test_cli_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(EPS_CONV)
    assert main(["validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert "configuration ok" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("run.epsilon = 7\n")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "epsilon must lie in" in err


def test_cli_missing_file(capsys):
    assert main(["validate", "no/such/file.cfg"]) == 2


def test_cli_run_with_overrides_and_thread_independence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(EPS_CONV)
    a = tmp_path / "outa"
    b = tmp_path / "outb"
    assert main(["run", str(cfg_file), "--out-dir", str(a),
                 "--seed", "99", "--paths", "30"]) == 0
    assert main(["run", str(cfg_file), "--out-dir", str(b),
                 "--seed", "99", "--paths", "30"]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    manifest = (a / "manifest.txt").read_text()
    assert "seed = 99" in manifest
    assert "paths = 30" in manifest


def test_cli_run_single_piece_potential(tmp_path, capsys):
    # A piecewise potential of one quadratic piece has no knots.
    cfg_file = tmp_path / "single.cfg"
    cfg_file.write_text("experiment.kind = energy\n"
                        "space.preset = path_4\n"
                        "potential.kind = piecewise\n"
                        "potential.pieces = 1.5:0:0\n"
                        "noise.kind = diagonal\n"
                        "noise.sigma = 0.2\n"
                        "run.epsilon_list = 0.2, 0.1\n"
                        "run.steps = 8\n"
                        "run.paths = 10\n"
                        "run.x0 = constant:0.5\n")
    assert main(["validate", str(cfg_file)]) == 0
    assert main(["run", str(cfg_file), "--out-dir",
                 str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report_energy_uniformity.txt").exists()


def test_cli_run_crash_has_its_own_exit_status(tmp_path, monkeypatch,
                                               capsys):
    # A crash is not a failed check (status 1): one stderr line, status 3.
    import graphspde.cli
    from graphspde.engine import StepSolverError

    def crash(*args, **kwargs):
        raise StepSolverError("step 3 (t = 0.1): did not converge")

    monkeypatch.setattr(graphspde.cli, "run_experiment", crash)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(EPS_CONV)
    assert main(["run", str(cfg_file), "--out-dir",
                 str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: StepSolverError: step 3 (t = 0.1): "
                            "did not converge\n")
    assert captured.out == ""


CONCAVE = ("space.preset = path_4\n"
           "potential.kind = piecewise\n"
           "potential.knots = 0\n"
           "potential.pieces = 1:0:0, -1:0:0\n")


@pytest.mark.parametrize("text, override, message", [
    ("experiment.kind = energy\nspace.preset = path_4\n", ("paths", "0"),
     "run.paths: need at least one path"),
    ("experiment.kind = energy\nspace.preset = path_4\n", ("seed", "-1"),
     "run.seed: seed must be nonnegative"),
    ("experiment.kind = norms\nspace.preset = path_4\nrun.seed = -1\n", None,
     "run.seed: seed must be nonnegative"),
    ("experiment.kind = energy\n" + CONCAVE, None,
     "potential: resolvent needs a convex potential: concave piece present"),
], ids=["paths_override_0", "seed_override_-1", "norms_seed_-1",
        "energy_concave_potential"])
def test_run_refuses_what_validate_refuses(tmp_path, capsys, text, override,
                                           message):
    # Overrides are config lines, and validation builds what the run uses,
    # so no config passes validation only to crash in the run.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text + ("run.{} = {}\n".format(*override)
                                if override else ""))
    assert main(["validate", str(cfg_file)]) == 2
    assert message in capsys.readouterr().err
    cfg_file.write_text(text)
    args = [f"--{override[0]}", override[1]] if override else []
    out = tmp_path / "out"
    assert main(["run", str(cfg_file), "--out-dir", str(out)] + args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_assumptions_report_a_concave_potential(tmp_path, capsys):
    # Only the simulation experiments need a resolvent; the assumption
    # checks report the concave piece as a failure.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("experiment.kind = assumptions\n" + CONCAVE)
    assert main(["validate", str(cfg_file)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(cfg_file), "--out-dir", str(out)]) == 1
    assert "FAIL" in (out / "report_assumptions.txt").read_text()


def test_cli_run_crash_leaves_no_out_dir(tmp_path, monkeypatch, capsys):
    import graphspde.config
    from graphspde.engine import StepSolverError

    def crash(configs):
        raise StepSolverError("step 0 (t = 0): did not converge")

    monkeypatch.setattr(graphspde.config, "simulate_coupled", crash)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(EPS_CONV)
    out = tmp_path / "out"
    assert main(["run", str(cfg_file), "--out-dir", str(out)]) == 3
    assert "error: StepSolverError" in capsys.readouterr().err
    assert not out.exists()


def test_eps_convergence_refuses_a_potential_without_linear_bound(
        tmp_path, capsys):
    # The smoothing-gap comparison needs the potential's linear
    # minimal-section bound; without it, run used to certify the noise and
    # simulate the ladder before the estimator refused it with exit 3.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("experiment.kind = eps_convergence\n"
                        "space.preset = path_4\n"
                        "potential.kind = porous_medium\n"
                        "potential.gamma = 2\n"
                        "run.epsilon_list = 0.2, 0.1\n"
                        "run.paths = 4\n"
                        "run.steps = 4\n")
    message = ("potential: eps_convergence needs a linear minimal-section "
               "bound, which porous_medium does not have")
    out = tmp_path / "out"
    assert main(["validate", str(cfg_file)]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", str(cfg_file), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_each_space_is_built_once_per_run(tmp_path, monkeypatch):
    import graphspde.dirichlet

    calls = []
    build = graphspde.dirichlet.build_graph_space

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(graphspde.dirichlet, "build_graph_space", counted)
    cfg = parse_config("experiment.kind = energy\n"
                       "space.preset = path_4\n"
                       "run.epsilon_list = 0.2, 0.1\n"
                       "run.steps = 4\n"
                       "run.paths = 3\n")
    assert run_experiment(cfg, tmp_path) == 0
    assert len(calls) == 1


def test_cli_out_dir_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("GRAPHSPDE_OUT_DIR", str(tmp_path / "envout"))
    from graphspde.cli import _default_out_dir

    assert _default_out_dir() == str(tmp_path / "envout")

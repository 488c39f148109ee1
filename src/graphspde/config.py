"""Line-oriented experiment configuration and the experiment dispatcher.

Configs are plain text, one ``section.key = value`` pair per line with ``#``
comments.  Parsing validates everything and reports every violation at
once, syntax errors with their line number and semantic ones with the field
path.  Artifacts (text reports with fixed float formatting, binary ``.npy``
trajectory dumps, manifest) carry no wall-clock data, so identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dirichlet import (
    BernsteinFunction,
    DirichletSpace,
    build_graph_space,
    complete_space,
    gamma_transform_quadrature,
    path_space,
    single_node_space,
    subordinate,
)
from .engine import (
    SimulationConfig,
    energy_budget,
    simulate,
    write_metadata,
    write_trajectories,
)
from .estimates import (
    EnergyFunctional,
    build_test_process,
    check_svi,
    contraction_experiment,
    default_decay_rate,
    epsilon_convergence,
    energy_uniformity,
    regularity_budget,
    regularity_uniformity,
)
from .monotone import (
    check_assumptions,
    fast_diffusion,
    piecewise_quadratic,
    porous_medium,
    zhang,
)
from .noise import diagonal_noise, eigenmode_noise
from .reports import CheckResult, EstimateReport, bundle_report, format_value

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "preset_space",
    "preset_names",
    "run_experiment",
]

EXPERIMENTS = ("svi", "contraction", "eps_convergence", "energy",
               "regularity", "assumptions", "norms")
_SIM_EXPERIMENTS = ("svi", "contraction", "eps_convergence", "energy",
                    "regularity")

_KNOWN_KEYS = {
    "experiment": {"kind"},
    "space": {"preset", "nodes", "edges", "killing", "measure", "bernstein"},
    "potential": {"kind", "theta", "gamma", "knots", "pieces"},
    "noise": {"kind", "sigma", "clip", "modes", "amplitude"},
    "run": {"epsilon", "epsilon_list", "horizon", "steps", "paths", "seed",
            "tag", "x0", "y0", "drift_const", "decay_rate"},
}

_DEFAULTS = {
    ("experiment", "kind"): "norms",
    ("potential", "kind"): "fast_diffusion",
    ("potential", "theta"): "0.5",
    ("potential", "gamma"): "2",
    ("noise", "kind"): "diagonal",
    ("noise", "sigma"): "0.2",
    ("noise", "clip"): "1000",
    ("noise", "modes"): "4",
    ("noise", "amplitude"): "0.2",
    ("run", "epsilon"): "0.1",
    ("run", "horizon"): "1",
    ("run", "steps"): "64",
    ("run", "paths"): "100",
    ("run", "seed"): "0",
    ("run", "tag"): "default",
    ("run", "x0"): "constant:1",
    ("run", "drift_const"): "0.1",
}


class ConfigError(ValueError):
    """Carries every violation found while parsing a config."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ExperimentConfig:
    """Validated key-value configuration, keyed by (section, key)."""

    entries: dict = field(default_factory=dict)

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.entries.get((section, key), default)

    @property
    def experiment(self) -> str:
        return self.entries[("experiment", "kind")]

    def normalize(self) -> str:
        lines = [f"{s}.{k} = {v}" for (s, k), v in sorted(self.entries.items())]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.normalize().encode()).hexdigest()

    def _number(self, section: str, key: str, kind=float):
        return _parse_number(f"{section}.{key}", self.get(section, key), kind)

    def _numbers(self, section: str, key: str) -> list[float]:
        return [_parse_number(f"{section}.{key}", part)
                for part in _split_list(self.get(section, key))]

    # -- builders -------------------------------------------------------

    def build_space(self) -> DirichletSpace:
        if ("space", "preset") in self.entries:
            space = preset_space(self.get("space", "preset"))
        else:
            n = self._number("space", "nodes", int)
            W = np.zeros((n, n))
            for part in _split_list(self.get("space", "edges", "")):
                m = re.fullmatch(r"(\d+)-(\d+):(\S+)", part)
                if not m:
                    raise ValueError(f"edge {part!r} is not of the form "
                                     "'i-j:weight'")
                i, j = int(m.group(1)), int(m.group(2))
                w = _parse_number("space.edges", m.group(3))
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"edge {part!r} references a node "
                                     f"outside 0..{n - 1}")
                W[i, j] = W[j, i] = w
            killing = self._numbers("space", "killing")
            measure = self._numbers("space", "measure") or [1.0] * n
            space = build_graph_space(W, killing, measure, label="custom")
        bernstein = self.get("space", "bernstein", "").strip()
        if bernstein:
            m = re.fullmatch(r"(power|shifted_power)\(([^)]+)\)", bernstein)
            if not m:
                raise ValueError(f"cannot parse Bernstein spec {bernstein!r}")
            space = subordinate(space, BernsteinFunction(
                m.group(1), _parse_number("space.bernstein", m.group(2))))
        return space

    def build_potential(self):
        kind = self.get("potential", "kind")
        if kind == "fast_diffusion":
            return fast_diffusion(self._number("potential", "theta"))
        if kind == "porous_medium":
            return porous_medium(self._number("potential", "gamma"))
        if kind == "zhang":
            return zhang()
        if kind == "piecewise":
            pieces = [tuple(_parse_number("potential.pieces", x)
                            for x in p.split(":"))
                      for p in _split_list(self.get("potential", "pieces"))]
            return piecewise_quadratic(self._numbers("potential", "knots"),
                                       pieces)
        raise ValueError(f"unknown kind {kind!r}")

    def build_noise(self, space: DirichletSpace):
        kind = self.get("noise", "kind")
        if kind == "diagonal":
            return diagonal_noise(space.node_count,
                                  self._number("noise", "sigma"),
                                  clip_at=self._number("noise", "clip"))
        if kind == "additive":
            return eigenmode_noise(space, self._number("noise", "modes", int),
                                   self._number("noise", "amplitude"))
        raise ValueError(f"unknown kind {kind!r}")

    def initial_state(self, space: DirichletSpace, key: str = "x0") -> np.ndarray:
        return _parse_state(self.get("run", key), space.node_count)

    def epsilon_values(self) -> list[float]:
        if self.get("run", "epsilon_list"):
            return self._numbers("run", "epsilon_list")
        return [self._number("run", "epsilon")]

    def sim_config(self, space, potential, noise, eps: float) -> SimulationConfig:
        return SimulationConfig(
            space=space, potential=potential, noise=noise, eps=eps,
            horizon=self._number("run", "horizon"),
            step_count=self._number("run", "steps", int),
            path_count=self._number("run", "paths", int),
            initial=self.initial_state(space),
            seed=self._number("run", "seed", int),
            coupling_tag=self.get("run", "tag"),
        )


# -- preset spaces -------------------------------------------------------------


def preset_names() -> list[str]:
    return ["single", "path_<n>", "complete_<n>"]


def preset_space(name: str) -> DirichletSpace:
    """Build a named preset: ``single``, ``path_<n>`` or ``complete_<n>``."""
    if name == "single":
        return single_node_space()
    m = re.fullmatch(r"path_(\d+)", name)
    if m:
        return path_space(int(m.group(1)))
    m = re.fullmatch(r"complete_(\d+)", name)
    if m:
        return complete_space(int(m.group(1)))
    raise ValueError(f"unknown preset {name!r}")


# -- parsing ----------------------------------------------------------------------


def _split_list(text: str | None) -> list[str]:
    if not text:
        return []
    return [p.strip() for p in text.split(",") if p.strip()]


def _parse_number(name: str, text: str | None, kind=float):
    # The one parser of config numbers; failures name the field.
    try:
        value = kind(text)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError([f"{name}: expected {what}, got {text!r}"]) from None
    # NaN never; inf only as noise.clip, where it means no clipping.
    if math.isnan(value) or (math.isinf(value) and name != "noise.clip"):
        raise ConfigError([f"{name}: expected a finite number, got {text!r}"])
    return value


def _parse_state(text: str, n: int) -> np.ndarray:
    text = text.strip()
    if text.startswith("spike:"):
        j = int(text.split(":", 1)[1])
        if not 0 <= j < n:
            raise ValueError(f"spike node {j} is outside 0..{n - 1}")
        out = np.zeros(n)
        out[j] = 1.0
        return out
    if text.startswith("constant:"):
        values = np.full(n, float(text.split(":", 1)[1]))
    else:
        values = np.array([float(p) for p in _split_list(text)])
        if values.size != n:
            raise ValueError(f"state has {values.size} entries, space has "
                             f"{n} nodes")
    if not np.all(np.isfinite(values)):
        raise ValueError("state values must be finite")
    return values


_LINE = re.compile(r"([A-Za-z_]+)\.([A-Za-z0-9_]+)\s*=\s*(.*)")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config; raise ``ConfigError`` with every
    violation when anything is wrong."""
    problems: list[str] = []
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.fullmatch(line)
        if not m:
            problems.append(f"line {lineno}: expected 'section.key = value', "
                            f"got {line!r}")
            continue
        section, key, value = m.group(1), m.group(2), m.group(3).strip()
        if section not in _KNOWN_KEYS:
            problems.append(f"line {lineno}: unknown section {section!r}")
            continue
        if key not in _KNOWN_KEYS[section]:
            problems.append(f"line {lineno}: unknown key {section}.{key}")
            continue
        entries[(section, key)] = value

    provided = frozenset(entries)
    has_custom_space = ("space", "nodes") in entries
    for (section, key), value in _DEFAULTS.items():
        entries.setdefault((section, key), value)
    if ("space", "preset") not in entries and not has_custom_space:
        entries[("space", "preset")] = "single"

    cfg = ExperimentConfig(entries)
    problems.extend(_semantic_problems(cfg, provided))
    if problems:
        raise ConfigError(problems)
    return cfg


def _semantic_problems(cfg: ExperimentConfig,
                       provided: frozenset = frozenset()) -> list[str]:
    """Every violation of a defaulted config, each as ``<field>: <reason>``.

    The space, potential and noise blocks are valid exactly when their
    builders succeed, so their rules live there; the noise block is checked
    only when the space builds.  Kept here are the rules no builder owns:
    the experiment kind, the run block and the noise block that ``svi`` and
    ``contraction`` require.
    """
    problems = []

    def attempt(section: str, build, *args):
        # The builder's value, or None with its failure recorded.
        try:
            return build(*args)
        except ConfigError as err:
            problems.extend(err.problems)
        except ValueError as err:
            problems.append(f"{section}: {err}")
        return None

    exp = cfg.get("experiment", "kind")
    if exp not in EXPERIMENTS:
        problems.append(f"experiment.kind: unknown experiment {exp!r}, "
                        f"expected one of {', '.join(EXPERIMENTS)}")

    eps_values = attempt("run", cfg.epsilon_values)
    if eps_values is not None:
        for eps in eps_values or [np.nan]:
            if not 0.0 < eps < 1.0:
                problems.append("run.epsilon: epsilon must lie in (0,1), "
                                f"got {eps:g}")
    horizon = attempt("run", cfg._number, "run", "horizon")
    if horizon is not None and horizon <= 0:
        problems.append("run.horizon: horizon must be positive")
    for key, noun in (("steps", "step"), ("paths", "path")):
        count = attempt("run", cfg._number, "run", key, int)
        if count is not None and count < 1:
            problems.append(f"run.{key}: need at least one {noun}")
    attempt("run", cfg._number, "run", "seed", int)
    for key in ("drift_const", "decay_rate"):
        if cfg.get("run", key):
            attempt("run", cfg._number, "run", key)

    if exp in _SIM_EXPERIMENTS:
        if ("noise", "kind") not in provided and exp in ("svi", "contraction"):
            # These verdicts depend on the certified noise constants, so the
            # noise block must be intentional rather than defaulted.
            problems.append(f"noise: block required for experiment {exp!r} "
                            "(set noise.kind, noise.sigma, ...)")
        if exp == "contraction" and not cfg.get("run", "y0"):
            problems.append("run.y0: contraction experiment needs a second "
                            "initial state")
        if exp == "eps_convergence" and eps_values is not None and (
                len(eps_values) < 2
                or any(b >= a for a, b in zip(eps_values, eps_values[1:]))):
            problems.append("run.epsilon_list: eps_convergence needs at "
                            "least two strictly decreasing levels")

    attempt("potential", cfg.build_potential)
    space = attempt("space", cfg.build_space)
    if space is not None:
        attempt("noise", cfg.build_noise, space)
        for key in ("x0", "y0"):
            if cfg.get("run", key):
                attempt(f"run.{key}", cfg.initial_state, space, key)
    return problems


# -- experiment dispatch -------------------------------------------------------------


def _norms_checks(space: DirichletSpace, seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    checks = []

    shifts = [10.0 ** -k for k in range(0, 7)]
    vals, limits = [], []
    for _ in range(100):
        v = rng.standard_normal(space.node_count)
        series = [space.dual_norm(v, s) for s in shifts]
        vals.append(min(b - a for a, b in zip(series, series[1:])))
        limit = space.dual_norm(v)
        limits.append(abs(series[-1] - limit) / limit)
    checks.append(CheckResult("dual_norm_monotone_in_shift",
                              min(vals) >= -1e-12, float(min(vals))))
    # dual_norm(v, s)**2 = sum c**2 / (lam + s) and lam / (lam + s) grows
    # with lam, so the relative gap is at most 1 - sqrt(a) with
    # a = lam_min / (lam_min + s), written (1 - a) / (1 + sqrt(a)) to avoid
    # cancellation; 1e-12 allows for the roundoff of the two norms.
    lam, s = float(space.eigenvalues.min()), shifts[-1]
    bound = s / (lam + s) / (1.0 + math.sqrt(lam / (lam + s))) + 1e-12
    checks.append(CheckResult("dual_norm_vanishing_shift_limit",
                              max(limits) <= bound, float(bound - max(limits)),
                              detail="relative gap at shift 1e-6"))

    u = rng.standard_normal((1000, space.node_count))
    v = rng.standard_normal((1000, space.node_count))
    lhs = space.dual_inner(space.apply_generator(u), v)
    rhs = -space.inner(u, v)
    scale = np.maximum(space.lp_norm(u, 2) * space.lp_norm(v, 2), 1e-30)
    worst = float(np.max(np.abs(lhs - rhs) / scale))
    checks.append(CheckResult("generator_pairing_identity", worst <= 1e-10,
                              1e-10 - worst))

    gamma_worst = 0.0
    for r in (1.0, 2.0, 3.0):
        w = rng.standard_normal(space.node_count)
        spectral = space.gamma_transform(r, w)
        quad = gamma_transform_quadrature(space, r, w)
        gamma_worst = max(gamma_worst, float(
            np.linalg.norm(spectral - quad) / np.linalg.norm(spectral)))
    checks.append(CheckResult("gamma_transform_quadrature_oracle",
                              gamma_worst <= 1e-6, 1e-6 - gamma_worst))

    op_worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        a = space.opnorm(t, 1, 2) ** 2
        b = space.opnorm(2 * t, 1, np.inf)
        op_worst = max(op_worst, abs(a - b) / b)
    checks.append(CheckResult("ultracontractivity_identity",
                              op_worst <= 1e-8, 1e-8 - op_worst))

    u = rng.standard_normal((1000, space.node_count))
    slack = space.energy_norm(u) - np.abs(u) @ (space.witness * space.measure)
    checks.append(CheckResult("witness_inequality", float(slack.min()) >= -1e-10,
                              float(slack.min())))
    return checks


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int = 1) -> int:
    """Execute the configured experiment and write artifacts.

    Returns 0 exactly when every report passes.  ``threads`` is accepted
    for interface compatibility; path evaluation is already vectorized and
    results never depend on it.
    """
    del threads
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exp = cfg.experiment
    space = cfg.build_space()
    potential = cfg.build_potential()
    reports: list[EstimateReport] = []

    if exp == "assumptions":
        grid = np.linspace(-10.0, 10.0, 2001)
        rep = check_assumptions(potential, grid)
        (out / "report_assumptions.txt").write_text(rep.to_text())
        reports.append(EstimateReport(
            name="assumptions", passed=rep.passed,
            worst_margin=min(e.margin for e in rep.entries),
            columns=("check", "passed", "margin"),
            series=tuple((e.name, e.passed, e.margin) for e in rep.entries)))
        reports[-1].write(out, "report_assumptions_summary")
    elif exp == "norms":
        checks = _norms_checks(space, cfg._number("run", "seed", int))
        rep = bundle_report("norms", checks)
        rep.write(out, "report_norms")
        reports.append(rep)
    else:
        noise = cfg.build_noise(space)
        eps_values = cfg.epsilon_values()
        base = cfg.sim_config(space, potential, noise, eps_values[0])
        decay_rate = (cfg._number("run", "decay_rate")
                      if cfg.get("run", "decay_rate") else None)
        if decay_rate is None and exp in ("contraction", "eps_convergence"):
            # Certify the noise before any run is held: the certificate's
            # scratch arrays would otherwise add to the runs' peak memory.
            decay_rate = default_decay_rate(base)

        # Every run is simulated here, each smoothing level or initial
        # state once; the estimators only read the ensembles.
        if exp == "eps_convergence":
            ladder = [simulate(base.with_eps(eps)) for eps in eps_values]
            rep = epsilon_convergence(ladder, decay_rate=decay_rate)
            rep.write(out, "report_eps_convergence")
            reports.append(rep)
        elif exp == "contraction":
            y0 = cfg.initial_state(space, key="y0")
            rep = contraction_experiment(simulate(base),
                                         simulate(base.with_initial(y0)),
                                         decay_rate=decay_rate)
            rep.write(out, "report_contraction")
            reports.append(rep)
        elif exp in ("energy", "regularity"):
            functional = EnergyFunctional(space, potential)
            budgets = []
            for eps in eps_values:
                ens = simulate(base.with_eps(eps))
                rep = (energy_budget(ens) if exp == "energy"
                       else regularity_budget(ens, functional))
                rep.write(out, f"report_{exp}_eps{_eps_tag(eps)}")
                budgets.append(rep)
                _dump_run(ens, out, f"trajectories_eps{_eps_tag(eps)}")
            reports.extend(budgets)
            if len(budgets) >= 2:
                uniformity = (energy_uniformity if exp == "energy"
                              else regularity_uniformity)
                rep = uniformity(budgets)
                rep.write(out, f"report_{exp}_uniformity")
                reports.append(rep)
        else:  # svi
            functional = EnergyFunctional(space, potential)
            drift_const = cfg._number("run", "drift_const")
            for eps in eps_values:
                ens = simulate(base.with_eps(eps))
                _dump_run(ens, out, f"trajectories_eps{_eps_tag(eps)}")
                zero_z0 = np.zeros(space.node_count)
                cases = [
                    ("zero", build_test_process(ens, zero_z0)),
                    ("constant", build_test_process(
                        ens, zero_z0,
                        drift=np.full(space.node_count, drift_const))),
                    ("replayed", build_test_process(ens, base.initial,
                                                    drift=ens)),
                ]
                for tag, proc in cases:
                    rep = check_svi(ens, proc, functional)
                    rep.write(out, f"report_svi_{tag}_eps{_eps_tag(eps)}")
                    reports.append(rep)

    _write_manifest(cfg, out, reports)
    return 0 if all(r.passed for r in reports) else 1


def _eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


def _dump_run(ensemble, out: Path, stem: str) -> None:
    write_trajectories(ensemble, out / f"{stem}.npy")
    write_metadata(ensemble, out / f"{stem}.meta")


def _write_manifest(cfg: ExperimentConfig, out: Path, reports) -> None:
    lines = [
        f"config_sha256 = {cfg.digest()}",
        f"experiment = {cfg.experiment}",
        f"seed = {cfg.get('run', 'seed')}",
        f"steps = {cfg.get('run', 'steps')}",
        f"paths = {cfg.get('run', 'paths')}",
        f"package_version = {__version__}",
        f"numpy_version = {np.__version__}",
        f"reports = {len(reports)}",
        f"all_passed = {format_value(all(r.passed for r in reports))}",
        "",
        "# normalized configuration",
    ]
    lines += ["# " + line for line in cfg.normalize().strip().splitlines()]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")

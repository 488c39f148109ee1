"""Line-oriented experiment configuration and the experiment dispatcher.

Configs are plain text, one ``section.key = value`` pair per line with ``#``
comments.  Parsing builds everything a config names, once, and reports
every violation at once, syntax errors with their line number and semantic
ones with the field path; the dispatcher runs what parsing built.  Artifacts (text reports with fixed float formatting, binary ``.npy``
trajectory dumps, manifest) carry no wall-clock data, so identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

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
    simulate_coupled,
    write_metadata,
    write_trajectories,
)
from .estimates import (
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
    "PRESETS",
    "preset_space",
    "run_experiment",
]

EXPERIMENTS = ("svi", "contraction", "eps_convergence", "energy",
               "regularity", "assumptions", "norms")
_SIM_EXPERIMENTS = ("svi", "contraction", "eps_convergence", "energy",
                    "regularity")

# Every key a config may set, with the text it defaults to (None: no
# default).
_KNOWN_KEYS = {
    "experiment": {"kind": "norms"},
    "space": {"preset": None, "nodes": None, "edges": None, "killing": None,
              "measure": None, "bernstein": None},
    "potential": {"kind": "fast_diffusion", "theta": "0.5", "gamma": "2",
                  "knots": None, "pieces": None},
    "noise": {"kind": "diagonal", "sigma": "0.2", "clip": "1000",
              "modes": "4", "amplitude": "0.2"},
    "run": {"epsilon": "0.1", "epsilon_list": None, "horizon": "1",
            "steps": "64", "paths": "100", "seed": "0", "tag": "default",
            "x0": "constant:1", "y0": None, "drift_const": "0.1",
            "decay_rate": None},
}
# The space keys of a custom graph, given instead of space.preset.
_GRAPH_KEYS = ("nodes", "edges", "killing", "measure")


class ConfigError(ValueError):
    """Carries every violation found while parsing a config."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A validated config and everything it names, built once.

    ``run`` is the base run: the space, potential and noise, the first
    smoothing level of ``eps_values``, the grid, ``x0``, seed and tag.
    ``y0`` is the second initial state (``contraction``), ``decay_rate``
    is None when unset.  ``entries`` keeps the defaulted text values, keyed
    by (section, key), read-only, for the normalized form and the manifest.
    """

    entries: MappingProxyType
    run: SimulationConfig
    eps_values: tuple
    y0: np.ndarray | None
    drift_const: float
    decay_rate: float | None

    def get(self, section: str, key: str) -> str | None:
        return self.entries.get((section, key))

    @property
    def experiment(self) -> str:
        return self.entries[("experiment", "kind")]

    def normalize(self) -> str:
        lines = [f"{s}.{k} = {v}" for (s, k), v in sorted(self.entries.items())]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.normalize().encode()).hexdigest()


# -- preset spaces -------------------------------------------------------------


# Name pattern of each preset space -> one line of help.
PRESETS = {
    "single": "one absorbing node, unit rate and mass",
    "path_<n>": "path graph, unit conductances, unit killing on every node",
    "complete_<n>": "complete graph with conductance 1/n and unit killing",
}


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


def _parse_state(name: str, text: str, n: int) -> np.ndarray:
    text = text.strip()
    if text.startswith("spike:"):
        j = _parse_number(name, text.split(":", 1)[1], int)
        if not 0 <= j < n:
            raise ValueError(f"spike node {j} is outside 0..{n - 1}")
        out = np.zeros(n)
        out[j] = 1.0
        return out
    if text.startswith("constant:"):
        return np.full(n, _parse_number(name, text.split(":", 1)[1]))
    values = np.array([_parse_number(name, p) for p in _split_list(text)])
    if values.size != n:
        raise ValueError(f"state has {values.size} entries, space has "
                         f"{n} nodes")
    return values


def _number(entries: dict, name: str, kind=float):
    return _parse_number(name, entries.get(tuple(name.split("."))), kind)


def _numbers(entries: dict, name: str) -> list[float]:
    return [_parse_number(name, part)
            for part in _split_list(entries.get(tuple(name.split("."))))]


def _epsilon_values(entries: dict) -> list[float]:
    if entries.get(("run", "epsilon_list")):
        # A ladder config carries the defaulted run.epsilon (as does its
        # normalized form); any other value would be dropped unread.
        if entries[("run", "epsilon")] != _KNOWN_KEYS["run"]["epsilon"]:
            raise ConfigError(["run.epsilon: cannot be combined with "
                               "run.epsilon_list, which sets the levels"])
        return _numbers(entries, "run.epsilon_list")
    return [_number(entries, "run.epsilon")]


def _build_space(entries: dict) -> DirichletSpace:
    custom = [f"space.{key}" for key in _GRAPH_KEYS if ("space", key) in entries]
    if ("space", "preset") in entries:
        if custom:
            raise ConfigError([f"space.preset: cannot be combined with a "
                               f"custom graph ({', '.join(custom)})"])
        space = preset_space(entries[("space", "preset")])
    else:
        if ("space", "nodes") not in entries:
            raise ConfigError(["space.nodes: a custom graph needs its "
                               "node count"])
        n = _number(entries, "space.nodes", int)
        if n < 1:
            raise ConfigError(["space.nodes: need at least one node"])
        W = np.zeros((n, n))
        seen = set()
        for part in _split_list(entries.get(("space", "edges"), "")):
            m = re.fullmatch(r"(\d+)-(\d+):(\S+)", part)
            if not m:
                raise ValueError(f"edge {part!r} is not of the form "
                                 "'i-j:weight'")
            i, j = int(m.group(1)), int(m.group(2))
            w = _parse_number("space.edges", m.group(3))
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {part!r} references a node "
                                 f"outside 0..{n - 1}")
            pair = frozenset((i, j))
            if pair in seen:
                raise ConfigError([f"space.edges: edge {i}-{j} is given "
                                   "twice"])
            seen.add(pair)
            W[i, j] = W[j, i] = w
        killing = _numbers(entries, "space.killing")
        measure = _numbers(entries, "space.measure") or [1.0] * n
        space = build_graph_space(W, killing, measure, label="custom")
    bernstein = entries.get(("space", "bernstein"), "").strip()
    if bernstein:
        m = re.fullmatch(r"(power|shifted_power)\(([^)]+)\)", bernstein)
        if not m:
            raise ConfigError([f"space.bernstein: cannot parse "
                               f"{bernstein!r}, expected power(<alpha>) or "
                               "shifted_power(<alpha>)"])
        alpha = _parse_number("space.bernstein", m.group(2))
        try:
            fn = BernsteinFunction(m.group(1), alpha)
        except ValueError as err:
            raise ConfigError([f"space.bernstein: {err}"]) from None
        space = subordinate(space, fn)
    return space


def _build_potential(entries: dict):
    kind = entries[("potential", "kind")]
    if kind == "fast_diffusion":
        return fast_diffusion(_number(entries, "potential.theta"))
    if kind == "porous_medium":
        return porous_medium(_number(entries, "potential.gamma"))
    if kind == "zhang":
        return zhang()
    if kind == "piecewise":
        pieces = [tuple(_parse_number("potential.pieces", x)
                        for x in p.split(":"))
                  for p in _split_list(entries.get(("potential", "pieces")))]
        return piecewise_quadratic(_numbers(entries, "potential.knots"),
                                   pieces)
    raise ValueError(f"unknown kind {kind!r}")


def _build_noise(entries: dict, space: DirichletSpace):
    kind = entries[("noise", "kind")]
    if kind == "diagonal":
        return diagonal_noise(space.node_count, _number(entries, "noise.sigma"),
                              clip_at=_number(entries, "noise.clip"))
    if kind == "additive":
        return eigenmode_noise(space, _number(entries, "noise.modes", int),
                               _number(entries, "noise.amplitude"))
    raise ValueError(f"unknown kind {kind!r}")


_LINE = re.compile(r"([A-Za-z_]+)\.([A-Za-z0-9_]+)\s*=\s*(.*)")


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config and build everything it names, once; raise
    ``ConfigError`` with every violation when anything is wrong."""
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
    for section, keys in _KNOWN_KEYS.items():
        for key, value in keys.items():
            if value is not None:
                entries.setdefault((section, key), value)
    if not any(("space", key) in provided
               for key in ("preset",) + _GRAPH_KEYS):
        entries[("space", "preset")] = "single"
    return _build(entries, provided, problems)


def _build(entries: dict, provided: frozenset,
           problems: list[str]) -> ExperimentConfig:
    """Build the run of a defaulted config, or raise ``ConfigError`` with
    ``problems`` plus every violation, each as ``<field>: <reason>``.

    The space, potential and noise blocks are valid exactly when their
    builders succeed, so their rules live there, the potential's convexity
    among them; the noise block is built only when the space builds.  Kept
    here are the rules no builder owns: the experiment kind, the run block,
    the noise block that ``svi`` and ``contraction`` require and the linear
    minimal-section bound of the potential that ``eps_convergence``
    requires.
    """

    def attempt(section: str, build, *args):
        # The builder's value, or None with its failure recorded.
        try:
            return build(*args)
        except ConfigError as err:
            problems.extend(err.problems)
        except ValueError as err:
            problems.append(f"{section}: {err}")
        return None

    exp = entries[("experiment", "kind")]
    if exp not in EXPERIMENTS:
        problems.append(f"experiment.kind: unknown experiment {exp!r}, "
                        f"expected one of {', '.join(EXPERIMENTS)}")

    eps_values = attempt("run", _epsilon_values, entries)
    if eps_values is not None:
        # Each level's artifacts and eps_pair label carry its tag, so two
        # levels with one tag would overwrite each other.
        tagged = {}
        for eps in eps_values or [np.nan]:
            if not 0.0 < eps < 1.0:
                problems.append("run.epsilon: epsilon must lie in (0,1), "
                                f"got {eps:g}")
            tag = _eps_tag(eps)
            if tag in tagged:
                problems.append(f"run.epsilon_list: levels {tagged[tag]!r} "
                                f"and {eps!r} share the artifact tag "
                                f"eps{tag}")
            else:
                tagged[tag] = eps
    horizon = attempt("run", _number, entries, "run.horizon")
    if horizon is not None and horizon <= 0:
        problems.append("run.horizon: horizon must be positive")
    counts = {}
    for key, noun in (("steps", "step"), ("paths", "path")):
        counts[key] = attempt("run", _number, entries, f"run.{key}", int)
        if counts[key] is not None and counts[key] < 1:
            problems.append(f"run.{key}: need at least one {noun}")
    seed = attempt("run", _number, entries, "run.seed", int)
    if seed is not None and seed < 0:
        problems.append("run.seed: seed must be nonnegative")
    drift_const = attempt("run", _number, entries, "run.drift_const")
    decay_rate = (attempt("run", _number, entries, "run.decay_rate")
                  if entries.get(("run", "decay_rate")) else None)

    if exp in _SIM_EXPERIMENTS:
        if ("noise", "kind") not in provided and exp in ("svi", "contraction"):
            # These verdicts depend on the certified noise constants, so the
            # noise block must be intentional rather than defaulted.
            problems.append(f"noise: block required for experiment {exp!r} "
                            "(set noise.kind, noise.sigma, ...)")
        if exp == "contraction" and not entries.get(("run", "y0")):
            problems.append("run.y0: contraction experiment needs a second "
                            "initial state")
        if exp == "eps_convergence" and eps_values is not None and (
                len(eps_values) < 3
                or any(b >= a for a, b in zip(eps_values, eps_values[1:]))):
            # Two levels give one pair, and a slope through one point.
            problems.append("run.epsilon_list: eps_convergence needs at "
                            "least three strictly decreasing levels")

    potential = attempt("potential", _build_potential, entries)
    if (potential is not None and exp == "eps_convergence"
            and potential.slope_bound is None):
        problems.append("potential: eps_convergence needs a linear "
                        f"minimal-section bound, which {potential.kind} "
                        "does not have")
    space = attempt("space", _build_space, entries)
    noise = x0 = y0 = None
    if space is not None:
        noise = attempt("noise", _build_noise, entries, space)
        x0 = attempt("run.x0", _parse_state, "run.x0",
                     entries[("run", "x0")], space.node_count)
        if entries.get(("run", "y0")):
            y0 = attempt("run.y0", _parse_state, "run.y0",
                         entries[("run", "y0")], space.node_count)
    if problems:
        raise ConfigError(problems)
    run = SimulationConfig(
        space=space, potential=potential, noise=noise, eps=eps_values[0],
        horizon=horizon, step_count=counts["steps"],
        path_count=counts["paths"], initial=x0, seed=seed,
        coupling_tag=entries[("run", "tag")])
    return ExperimentConfig(MappingProxyType(entries), run, tuple(eps_values),
                            y0, drift_const, decay_rate)


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

    # The best constant of sum |u| g mu <= energy(u)**0.5 is exactly
    # dual_norm(g), attained at u = K^-1 g.
    margin = 1.0 - float(space.dual_norm(space.witness))
    checks.append(CheckResult("witness_inequality", margin >= -1e-10, margin))
    return checks


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int = 1) -> int:
    """Execute the experiment of a parsed config and write artifacts.

    Returns 0 exactly when every report passes.  The first report written
    creates ``out_dir``, so a run that fails before it leaves no directory
    behind.  ``threads`` selects nothing: path evaluation is vectorized and
    results never depend on it.  It is accepted only because the benchmark
    worker (``bench/worker.py``) passes it.
    """
    del threads
    out = Path(out_dir)
    exp, base = cfg.experiment, cfg.run
    reports: list[EstimateReport] = []

    if exp in ("assumptions", "norms"):
        rep = bundle_report(exp, check_assumptions(base.potential)
                            if exp == "assumptions"
                            else _norms_checks(base.space, base.seed))
        rep.write(out, f"report_{exp}")
        reports.append(rep)
    else:
        decay_rate = cfg.decay_rate
        if decay_rate is None and exp in ("contraction", "eps_convergence"):
            # Certify the noise before any run is held: the certificate's
            # scratch arrays would otherwise add to the runs' peak memory.
            decay_rate = default_decay_rate(base)

        # Every run is simulated here, each smoothing level or initial
        # state once, all of them as one coupled batch; the estimators only
        # read the ensembles.
        runs = ([base, base.with_initial(cfg.y0)] if exp == "contraction"
                else [base.with_eps(eps) for eps in cfg.eps_values])
        ensembles = simulate_coupled(runs)
        if exp == "eps_convergence":
            rep = epsilon_convergence(ensembles, decay_rate=decay_rate)
            rep.write(out, "report_eps_convergence")
            reports.append(rep)
        elif exp == "contraction":
            rep = contraction_experiment(*ensembles, decay_rate=decay_rate)
            rep.write(out, "report_contraction")
            reports.append(rep)
        elif exp in ("energy", "regularity"):
            budgets = []
            for eps, ens in zip(cfg.eps_values, ensembles):
                rep = (energy_budget(ens) if exp == "energy"
                       else regularity_budget(ens))
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
            # The levels share one increment array, so the test processes
            # without the run's own drift are built once, from the first.
            n, first = base.space.node_count, ensembles[0]
            shared = {
                "zero": build_test_process(first, np.zeros(n)),
                "constant": build_test_process(
                    first, np.zeros(n), drift=np.full(n, cfg.drift_const)),
            }
            for eps, ens in zip(cfg.eps_values, ensembles):
                procs = {**shared, "replayed": build_test_process(
                    ens, base.initial, drift=ens)}
                reps = check_svi(ens, procs.values())
                for tag, rep in zip(procs, reps):
                    rep.write(out, f"report_svi_{tag}_eps{_eps_tag(eps)}")
                    reports.append(rep)
                _dump_run(ens, out, f"trajectories_eps{_eps_tag(eps)}")

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

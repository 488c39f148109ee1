"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

Tracing wraps functions from outside the package: each public function is
replaced at every module attribute that names it (``graphspde.config.simulate``
as well as ``graphspde.engine.simulate``), class methods are replaced on the
class, and ``numpy.linalg.solve`` / ``numpy.einsum`` are wrapped so that
their cost is attributed to the nearest traced parent.  Spans stay in memory
while the experiment runs; ``restore`` puts every original back.

``graphspde.reports.format_value`` is deliberately not wrapped: it runs
about a million times per artifact dump, and wrapping it would make the
tracing overhead dominate the trace.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy

LAYERS = ("dirichlet", "noise", "monotone", "engine", "estimates", "config")

# Module-level functions: span name -> (defining module, function name).
_FUNCTIONS = {
    "config.parse_config": ("graphspde.config", "parse_config"),
    "config.run_experiment": ("graphspde.config", "run_experiment"),
    "config.write_manifest": ("graphspde.config", "_write_manifest"),
    "config.write_trajectories": ("graphspde.engine", "write_trajectories"),
    "config.write_metadata": ("graphspde.engine", "write_metadata"),
    "dirichlet.build": ("graphspde.dirichlet", "build_graph_space"),
    "dirichlet.subordinate": ("graphspde.dirichlet", "subordinate"),
    "dirichlet.invariants": ("graphspde.dirichlet", "check_space_invariants"),
    "noise.increments": ("graphspde.noise", "brownian_increments"),
    "noise.certify": ("graphspde.noise", "certify_noise"),
    "engine.simulate": ("graphspde.engine", "simulate"),
    "estimates.energy_budget": ("graphspde.engine", "energy_budget"),
    "estimates.regularity_budget": ("graphspde.estimates", "regularity_budget"),
    "estimates.energy_uniformity": ("graphspde.estimates", "energy_uniformity"),
    "estimates.regularity_uniformity": ("graphspde.estimates",
                                        "regularity_uniformity"),
    "estimates.epsilon_convergence": ("graphspde.estimates",
                                      "epsilon_convergence"),
    "estimates.contraction": ("graphspde.estimates", "contraction_experiment"),
    "estimates.test_process": ("graphspde.estimates", "build_test_process"),
    "estimates.check_svi": ("graphspde.estimates", "check_svi"),
}

# Methods: span name -> (module, class, method names).
_METHODS = {
    "monotone.resolvent": ("graphspde.monotone", "MoreauYosida", ("resolvent",)),
    "monotone.yosida": ("graphspde.monotone", "MoreauYosida", ("yosida",)),
    "monotone.yosida_slope": ("graphspde.monotone", "MoreauYosida",
                              ("yosida_slope",)),
    "monotone.envelope": ("graphspde.monotone", "MoreauYosida", ("envelope",)),
    "noise.apply": ("graphspde.noise", "NoiseModel", ("apply",)),
    "config.report_write": ("graphspde.reports", "EstimateReport", ("write",)),
    "dirichlet.norm": ("graphspde.dirichlet", "DirichletSpace", (
        "integrate", "inner", "lp_norm", "to_spectral", "from_spectral",
        "energy", "energy_norm", "bessel_norm", "bessel_norm_shifted",
        "pairing", "dual_norm", "dual_inner", "apply_generator",
        "solve_generator", "semigroup", "transition_matrix",
        "gamma_transform", "opnorm")),
}

# Library kernels, attributed to the layer of their nearest traced parent.
_KERNELS = {
    "numpy.linalg.solve": (numpy.linalg, "solve"),
    "numpy.einsum": (numpy, "einsum"),
}

_ARTIFACT_SPANS = ("config.write_trajectories", "config.write_metadata",
                   "config.report_write", "config.write_manifest")


def _resolvent_elements(args, result):
    return int(numpy.size(result))


def _solve_shape(args, result):
    a = numpy.asarray(args[0])
    batch = int(numpy.prod(a.shape[:-2], dtype=numpy.int64))
    n = a.shape[-1]
    return (batch, n)


def _path_newton_iterations(args, result):
    return int(result.newton_iterations.sum())


_EXTRAS = {
    "monotone.resolvent": _resolvent_elements,
    "numpy.linalg.solve": _solve_shape,
    "engine.simulate": _path_newton_iterations,
}


class SpanRecorder:
    """In-memory spans ``[name, start_ns, end_ns, parent, run_id, extra]``.

    ``parent`` is the index of the enclosing span, or -1 at the top.  The
    benchmark is single-threaded, so one stack gives the nesting.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        extra = _EXTRAS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[5] = extra(args, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _replace(self, owner, attr, value):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function where callers look it up."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "graphspde" or name.startswith("graphspde.")]
        for span_name, (module, attr) in _FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(original, span_name)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, traced)
        for span_name, (module, cls, methods) in _METHODS.items():
            owner = getattr(sys.modules[module], cls)
            for method in methods:
                self._replace(owner, method,
                              self._wrap(owner.__dict__[method], span_name))
        for span_name, (owner, attr) in _KERNELS.items():
            self._replace(owner, attr, self._wrap(getattr(owner, attr),
                                                  span_name))

    def restore(self) -> None:
        """Put every original function back, last replaced first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def records(self) -> list[dict]:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p,
                 "run_id": r, "extra": x}
                for n, s, e, p, r, x in self.spans]


def layer_metrics(spans: list[list], levels: int) -> dict:
    """Per-layer metrics of one traced repetition.

    ``*_s`` values are seconds; "self" time is a span's duration minus the
    durations of its direct children.  ``levels`` is the number of
    smoothing levels the config requires.
    """
    count = len(spans)
    duration = [(s[2] - s[1]) * 1e-9 for s in spans]
    child_time = [0.0] * count
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += duration[i]
    self_time = [d - c for d, c in zip(duration, child_time)]

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    # Layer of each span: its name prefix, or for library kernels the layer
    # of the nearest traced parent.
    layer = []
    for i, span in enumerate(spans):
        prefix = span[0].split(".", 1)[0]
        if prefix == "numpy":
            p = span[3]
            prefix = layer[p] if p >= 0 else "config"
        layer.append(prefix)

    # Whether each span runs inside simulate / inside run_experiment.
    in_simulate, in_experiment = [False] * count, [False] * count
    for i, span in enumerate(spans):
        p = span[3]
        if p >= 0:
            in_simulate[i] = in_simulate[p] or spans[p][0] == "engine.simulate"
            in_experiment[i] = (in_experiment[p]
                                or spans[p][0] == "config.run_experiment")

    def total(names, values=duration, where=None):
        return sum(values[i] for i in range(count) if spans[i][0] in names
                   and (where is None or where(i)))

    def calls(names, where=None):
        return sum(1 for i in range(count) if spans[i][0] in names
                   and (where is None or where(i)))

    def under_simulate(i):
        return parent_name(i) == "engine.simulate"

    def from_estimates_or_noise(i):
        p = spans[i][3]
        return p >= 0 and layer[p] in ("estimates", "noise")

    experiment = total(("config.run_experiment",))
    simulate_calls = calls(("engine.simulate",))
    newton = calls(("monotone.yosida_slope",), under_simulate)
    solves = [spans[i][5] for i in range(count)
              if spans[i][0] == "numpy.linalg.solve" and under_simulate(i)]
    builds = ("dirichlet.build", "dirichlet.subordinate")

    metrics = {
        "dirichlet.build_s": total(builds, self_time),
        "dirichlet.build_calls": calls(builds),
        "dirichlet.invariants_s": total(("dirichlet.invariants",)),
        "dirichlet.norms_s": total(("dirichlet.norm",),
                                   where=from_estimates_or_noise),
        "dirichlet.norm_calls": calls(("dirichlet.norm",),
                                      from_estimates_or_noise),
        "noise.increments_s": total(("noise.increments",)),
        "noise.apply_s": total(("noise.apply",)),
        "noise.apply_calls": calls(("noise.apply",)),
        "noise.certify_s": total(("noise.certify",)),
        "monotone.resolvent_s": total(("monotone.resolvent",)),
        "monotone.resolvent_calls": calls(("monotone.resolvent",)),
        "monotone.resolvent_elements": sum(
            s[5] for s in spans if s[0] == "monotone.resolvent"),
        "monotone.slope_s": total(("monotone.yosida",), self_time),
        "monotone.slope_derivative_s": total(("monotone.yosida_slope",),
                                             self_time),
        "monotone.envelope_s": total(("monotone.envelope",), self_time),
        "monotone.resolvents_per_newton_iteration": (
            calls(("monotone.resolvent",), lambda i: in_simulate[i])
            / max(newton, 1)),
        "engine.simulate_s": total(("engine.simulate",)),
        "engine.simulate_calls": simulate_calls,
        "engine.duplicate_simulations": simulate_calls - levels,
        "engine.linear_solve_s": total(("numpy.linalg.solve",),
                                       where=under_simulate),
        "engine.linear_solve_calls": len(solves),
        "engine.linear_solve_gflop": sum(b * 2.0 / 3.0 * n**3
                                         for b, n in solves) * 1e-9,
        "engine.merit_einsum_s": total(("numpy.einsum",),
                                       where=under_simulate),
        "engine.self_s": total(("engine.simulate",), self_time),
        "engine.newton_iterations": newton,
        "engine.path_newton_iterations": sum(
            s[5] for s in spans if s[0] == "engine.simulate"),
        "engine.line_search_halvings": (
            calls(("monotone.envelope",), under_simulate) - 2 * newton),
        "estimates.self_s": sum(self_time[i] for i in range(count)
                                if spans[i][0].startswith("estimates.")),
        "estimates.test_process_s": total(("estimates.test_process",)),
        "estimates.check_svi_s": total(("estimates.check_svi",)),
        "config.artifact_write_s": total(_ARTIFACT_SPANS),
        "config.parse_s": total(("config.parse_config",)),
        "config.self_s": total(("config.run_experiment",), self_time),
    }
    for name in LAYERS:
        busy = sum(self_time[i] for i in range(count)
                   if layer[i] == name and (in_experiment[i] or spans[i][0]
                                            == "config.run_experiment"))
        metrics[f"{name}.share"] = 100.0 * busy / experiment
    return metrics


# Metrics that are exact counts: two traced runs must reproduce them.
EXACT_COUNTS = (
    "engine.simulate_calls", "engine.duplicate_simulations",
    "engine.newton_iterations", "engine.path_newton_iterations",
    "engine.line_search_halvings", "monotone.resolvent_calls",
    "monotone.resolvent_elements", "monotone.resolvents_per_newton_iteration",
    "dirichlet.build_calls", "dirichlet.norm_calls", "noise.apply_calls",
    "engine.linear_solve_calls", "engine.linear_solve_gflop",
    "config.artifact_bytes",
)

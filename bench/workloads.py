"""Workload definitions shared by the launcher and the worker.

A workload is a graphspde experiment config.  The benchmark seed picks one
of ``INPUTS`` coupled-noise inputs (``run.seed`` and ``run.tag``); the
reference constants in ``reference.json`` are recorded for every one of
them, so each repetition is checked against the reference of its own input.
"""

from __future__ import annotations

INPUTS = 32

_COMMON = """\
noise.kind = diagonal
noise.sigma = 0.2
run.x0 = constant:0.5
"""

# name -> (config body, headline constants).  A headline
# entry is (report stem pattern, key): ``constant.<key>`` of every text
# report whose stem matches, or ``last.<column>`` for the final CSV row.
WORKLOADS = {
    "energy-path16-fd0.3": (
        """\
experiment.kind = energy
space.preset = path_16
potential.kind = fast_diffusion
potential.theta = 0.3
run.epsilon_list = 0.2, 0.1, 0.05
run.paths = 32
run.steps = 48
""",
        (("report_energy_eps", "implied_constant"),
         ("report_energy_eps", "graph_budget")),
    ),
    "epsconv-path96-fd0.5": (
        """\
experiment.kind = eps_convergence
space.preset = path_96
potential.kind = fast_diffusion
potential.theta = 0.5
run.epsilon_list = 0.2, 0.1, 0.05
run.paths = 80
run.steps = 32
""",
        (("report_eps_convergence", "slope"),
         ("report_eps_convergence", "last.D")),
    ),
    "svi-path64sub-zhang": (
        """\
experiment.kind = svi
space.preset = path_64
space.bernstein = power(0.5)
potential.kind = zhang
run.epsilon_list = 0.1, 0.05
run.paths = 50
run.steps = 128
""",
        (("report_svi_", "fitted_constant"),
         ("report_svi_", "last.lhs")),
    ),
}


def config_text(workload: str, seed: int) -> str:
    """Config of ``workload`` for benchmark seed ``seed``."""
    body = WORKLOADS[workload][0]
    index = seed % INPUTS
    return body + _COMMON + f"run.seed = {index}\nrun.tag = bench{index}\n"


def config_size(workload: str) -> tuple[int, int, int]:
    """(paths, steps, smoothing levels) of a workload."""
    entries = dict(line.split(" = ", 1)
                   for line in WORKLOADS[workload][0].splitlines())
    return (int(entries["run.paths"]), int(entries["run.steps"]),
            len(entries["run.epsilon_list"].split(",")))

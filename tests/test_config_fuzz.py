"""Property tests: config parsing fails only with ``ConfigError``, and a
config it accepts runs."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphspde.config import (  # noqa: E402
    _KNOWN_KEYS,
    EXPERIMENTS,
    ConfigError,
    parse_config,
    run_experiment,
)
from graphspde.engine import StepSolverError  # noqa: E402

# Every key outside the space section; the space stays the small preset
# below, so no input allocates a large space.
KEYS = sorted(f"{section}.{key}" for section, keys in _KNOWN_KEYS.items()
              if section != "space" for key in keys)

NUMBERISH = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "1e400", "-0", "-1", "0", "1", "nan", "inf",
                     "0.1, 0.2", "1:0:0", "1:0:0, -1:0:0",
                     "0:-1:0, 0:1:0", "constant:1",
                     "spike:0", "spike:4", "0, 1, 2, 3", "additive",
                     "fast_diffusion", "porous_medium", "zhang", "piecewise",
                     *EXPERIMENTS]),
)
VALUES = st.one_of(NUMBERISH, st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), max_size=8))
CONFIGS = st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=8)


def _text(entries: dict) -> str:
    return "space.preset = path_4\n" + "".join(
        f"{key} = {value}\n" for key, value in entries.items())


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(CONFIGS)
def test_parse_config_raises_only_config_errors(entries):
    try:
        parse_config(_text(entries))
    except ConfigError:
        pass


# A runnable config of each experiment kind, for the drawn lines to edit.
RUNNABLE = ("experiment.kind = {}\n"
            "noise.kind = diagonal\n"
            "run.epsilon_list = 0.2, 0.1, 0.05\n"
            "run.y0 = constant:1.5\n")


@hypothesis.settings(derandomize=True, deadline=None, max_examples=400)
@hypothesis.given(st.sampled_from(EXPERIMENTS),
                  st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=4))
def test_validated_configs_run(tmp_path_factory, kind, entries):
    # Small runs: the grid is pinned by the last lines, which win.
    text = (RUNNABLE.format(kind) + _text(entries)
            + "run.steps = 3\nrun.paths = 3\n")
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    try:
        run_experiment(cfg, tmp_path_factory.mktemp("run"))
    except StepSolverError:
        pass


# Drawn lines seldom make a whole piecewise potential, so every kind also
# runs the convex kinked |r|, which no resolvent probe checks any more.
KINKED = {"potential.kind": "piecewise", "potential.knots": "0",
          "potential.pieces": "0:-1:0, 0:1:0"}
for _kind in EXPERIMENTS:
    test_validated_configs_run = hypothesis.example(_kind, KINKED)(
        test_validated_configs_run)

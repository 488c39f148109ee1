"""Property test: config parsing fails only with ``ConfigError``."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphspde.config import _KNOWN_KEYS, ConfigError, parse_config  # noqa: E402

# Every key outside the space section; the space stays the small preset
# below, so no input allocates a large space.
KEYS = sorted(f"{section}.{key}" for section, keys in _KNOWN_KEYS.items()
              if section != "space" for key in keys)

NUMBERISH = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "1e400", "-0", "nan", "inf", "0.1, 0.2", "1:0:0",
                     "constant:1", "spike:0", "spike:4", "0, 1, 2, 3",
                     "fast_diffusion", "piecewise", "additive", "svi",
                     "eps_convergence", "contraction"]),
)
VALUES = st.one_of(NUMBERISH, st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), max_size=8))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=8))
def test_parse_config_raises_only_config_errors(entries):
    text = "space.preset = path_4\n" + "".join(
        f"{key} = {value}\n" for key, value in entries.items())
    try:
        parse_config(text)
    except ConfigError:
        pass

"""Property tests of the Moreau-Yosida smoothing of every potential kind,
at arguments over the whole float range."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from graphspde.monotone import (  # noqa: E402
    MoreauYosida,
    fast_diffusion,
    piecewise_quadratic,
    porous_medium,
    zhang,
)

POTENTIALS = {
    "fd0.3": fast_diffusion(0.3),
    "fd0.5": fast_diffusion(0.5),
    "fd0.7": fast_diffusion(0.7),
    "pm1.5": porous_medium(1.5),
    "pm2": porous_medium(2.0),
    "pm2.5": porous_medium(2.5),
    "zhang": zhang(),
    # Convex, with slope jumps from -1 to 0 at -1 and from 0 to 2 at +1.
    "piecewise": piecewise_quadratic(
        [-1.0, 1.0], [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (2.0, -2.0, 0.0)]),
}

LARGEST = np.finfo(float).max


def _power_of_ten(u: float) -> float:
    # 10^u, with the values above the largest float taken as the largest.
    with np.errstate(over="ignore"):
        return float(np.minimum(np.power(10.0, u), LARGEST))


# |r| log-uniform in [1e-300, 1.8e308] with either sign, eps log-uniform in
# [1e-8, 1).
ARGUMENTS = st.lists(
    st.tuples(st.booleans(), st.floats(-300.0, np.log10(1.8e308))).map(
        lambda d: (-1.0 if d[0] else 1.0) * _power_of_ten(d[1])),
    min_size=1, max_size=8)
EPSILONS = st.floats(-8.0, 0.0, exclude_max=True).map(_power_of_ten)


# The envelope overflows where the potential's value does.
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", list(POTENTIALS))
@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(ARGUMENTS, EPSILONS)
def test_resolvent_properties_over_the_float_range(name, args, eps):
    pot = POTENTIALS[name]
    my = MoreauYosida(pot, eps)
    r = np.array(args)
    values = my.evaluate(r)
    s = values.resolvent
    my._check_residual(r, s)
    if pot.kind in ("fast_diffusion", "porous_medium"):
        odd = my.resolvent(-r)
        assert np.array_equal(odd.view(np.int64), (-s).view(np.int64))
    order = np.argsort(r, kind="stable")
    assert np.all(np.diff(s[order]) >= 0.0)
    separate = (my.resolvent(r), my.yosida(r), my.yosida_slope(r),
                my.envelope(r))
    for got, want in zip(values, separate, strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if pot.kind == "piecewise":
        assert not np.isnan(values.envelope).any()


# The envelope of the earlier argument overflows where the potential's
# value does.
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", [name for name, pot in POTENTIALS.items()
                                  if pot.kind in ("fast_diffusion",
                                                  "porous_medium")])
@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(ARGUMENTS, EPSILONS, st.sampled_from([1.0 - 1e-3,
                                                        1.0 + 1e-3]))
@hypothesis.example([-1e281, 3e306], 1e-8, 1.0 + 1e-3)
def test_warm_resolvent_over_the_float_range(name, args, eps, factor):
    # Started from the values at r (1 -+ 1e-3): nothing is refused, and the
    # cold and warm roots each have a gap within 1e-12 (1 + |r|) on a
    # residual of slope at least 1, so they differ by at most twice that.
    # The explicit example is one where the tangent start of the porous
    # medium kinds rounds below zero.
    my = MoreauYosida(POTENTIALS[name], eps)
    r = np.array(args)
    with np.errstate(over="ignore"):
        r0 = np.clip(factor * r, -LARGEST, LARGEST)
    values0 = my.evaluate(r0)
    previous = (r0, values0.resolvent, values0.slope_derivative)
    s = my.resolvent(r, previous)
    assert np.all(np.abs(s - my.resolvent(r)) <= 2e-12 * (1.0 + np.abs(r)))
    again = my.resolvent(r0.copy(), previous)
    assert np.array_equal(again.view(np.int64),
                          values0.resolvent.view(np.int64))

"""Property tests of the Moreau-Yosida smoothing of every potential kind,
at arguments over the whole float range."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from oracles import (  # noqa: E402
    check_residual,
    piecewise_resolvent_exact,
    piecewise_rounding_ulp,
    sampled_convexity_margins,
)

from graphspde import monotone  # noqa: E402
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
    if pot.kind in ("fast_diffusion", "porous_medium"):
        # The residual gap in the power kinds' own overflow-safe form.
        monotone._refuse(monotone._power_gap(pot.exponent, eps, np.abs(r),
                                             np.abs(s)), r)
        odd = my.resolvent(-r)
        assert np.array_equal(odd.view(np.int64), (-s).view(np.int64))
    else:
        check_residual(my, r, s)
    order = np.argsort(r, kind="stable")
    assert np.all(np.diff(s[order]) >= 0.0)
    separate = (my.resolvent(r), my.yosida(r), my.yosida_slope(r))
    for got, want in zip(values, separate, strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if pot.kind == "piecewise":
        assert not np.isnan(my.envelope(r)).any()


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


@st.composite
def piecewise_quadratics(draw):
    # Up to three knots in [-3, 3]; each piece meets the one before at its
    # knot, with its quadratic coefficient and the slope jump there drawn
    # from [-1, 2], and often zero, where the convexity rules hold with
    # equality.
    knots = sorted(draw(st.lists(st.floats(-3.0, 3.0), max_size=3,
                                 unique=True)))
    coefficient = st.one_of(st.just(0.0), st.floats(-1.0, 2.0))
    n = len(knots)
    a = draw(st.lists(coefficient, min_size=n + 1, max_size=n + 1))
    jumps = draw(st.lists(coefficient, min_size=n, max_size=n))
    b, c = [draw(st.floats(-2.0, 2.0))], [draw(st.floats(-1.0, 1.0))]
    for j, k in enumerate(knots):
        b.append(2.0 * (a[j] - a[j + 1]) * k + b[j] + jumps[j])
        c.append((a[j] - a[j + 1]) * k**2 + (b[j] - b[j + 1]) * k + c[j])
    return knots, np.stack([a, b, c], axis=1)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
@hypothesis.given(piecewise_quadratics(), EPSILONS,
                  st.lists(EPSILONS, min_size=1, max_size=3))
def test_constructor_refuses_what_the_sampled_checks_find_non_convex(
        drawn, eps, levels):
    # Every potential the constructor accepts passes the sampled checks,
    # so each one they find non-convex is refused; the band edges of an
    # accepted one ascend at one level and at a column of levels alike.
    knots, pieces = drawn
    margins = sampled_convexity_margins(knots, pieces,
                                        np.linspace(-10.0, 10.0, 2001))
    try:
        pot = piecewise_quadratic(knots, pieces)
    except ValueError as err:
        assert "pieces must be convex" in str(err)
        return
    assert min(margins) >= -1e-12
    for level in (eps, np.array(levels)[:, None]):
        assert np.all(np.diff(MoreauYosida(pot, level)._piecewise_bands) >= 0)


@st.composite
def scaled_piecewise_quadratics(draw):
    # A drawn potential times 10^u, u in [-3, 8], as steep as a wall.
    knots, pieces = draw(piecewise_quadratics())
    return knots, pieces * _power_of_ten(draw(st.floats(-3.0, 8.0)))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
@hypothesis.given(scaled_piecewise_quadratics(), EPSILONS, ARGUMENTS)
def test_piecewise_resolvent_against_exact_arithmetic(drawn, eps, args):
    # The resolvent returns the piecewise formula unchecked: it is within
    # 4 ulp of the size of the terms it rounds of the rational resolvent,
    # at the band edges and their neighbours, across the knots and over
    # the float range.  Scaling rounds each coefficient, which can break
    # continuity or a zero slope jump at a knot; the constructor refuses
    # such draws, and they are skipped.
    try:
        pot = piecewise_quadratic(*drawn)
    except ValueError:
        hypothesis.reject()
    my = MoreauYosida(pot, eps)
    bands = my._piecewise_bands
    r = np.concatenate([args, bands, np.nextafter(bands, -np.inf),
                        np.nextafter(bands, np.inf), np.linspace(-5, 5, 21)])
    s = my.resolvent(r)
    exact = piecewise_resolvent_exact(pot, eps, r)
    ulp = piecewise_rounding_ulp(pot, eps, r, exact)
    assert np.all(np.abs(s - exact) <= 4.0 * ulp)

"""Tests for convex potentials, resolvents, Yosida slopes and Moreau
envelopes, including the full smoothing-inequality suite."""

import numpy as np
import pytest
from oracles import (
    breakpoints,
    check_residual,
    piecewise_resolvent_exact,
    piecewise_rounding_ulp,
    power_root_bisection,
    power_values,
    sampled_convexity_margins,
)

from graphspde import monotone
from graphspde.monotone import (
    ConvexPotential,
    MoreauYosida,
    ResolventError,
    _power_newton,
    _power_resolvent,
    check_assumptions,
    cross_monotonicity_defect,
    fast_diffusion,
    piecewise_quadratic,
    porous_medium,
    zhang,
)


def builtin_potentials():
    return [
        fast_diffusion(0.5),
        fast_diffusion(0.3),
        porous_medium(2.0),
        zhang(),
        sample_piecewise(),
    ]


def sample_piecewise():
    # Convex with a flat middle and genuinely multi-valued kinks at the
    # knots: slope jumps from -1 to 0 at -1 and from 0 to 2 at +1.
    return piecewise_quadratic(
        knots=[-1.0, 1.0],
        pieces=[(1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (2.0, -2.0, 0.0)],
    )


def prox_grid_argmin(potential, eps, r, lo=-20.0, hi=20.0, step=1e-4):
    # Independent oracle: brute-force minimization of the prox objective.
    grid = np.arange(lo, hi + step, step)
    objective = (r - grid) ** 2 / (2 * eps) + potential.value(grid)
    return grid[np.argmin(objective)]


def bisect_scalar(f, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# -- resolvent ---------------------------------------------------------------


def test_resolvent_fixes_origin():
    for pot in builtin_potentials():
        for eps in (0.1, 0.5, 0.9):
            assert MoreauYosida(pot, eps).resolvent(0.0) == pytest.approx(0.0)


def test_zhang_resolvent_branches_match_oracle():
    my = MoreauYosida(zhang(), 0.5)
    assert my.resolvent(2.0) == pytest.approx(1.0)
    assert my.resolvent(2.0) == pytest.approx(
        prox_grid_argmin(zhang(), 0.5, 2.0), abs=1e-4)
    # all three branches against the grid oracle
    for r in (-3.0, -0.2, 0.1, 0.4, 0.5, 0.6, 2.0, 7.5):
        expected = prox_grid_argmin(zhang(), 0.5, r)
        assert my.resolvent(r) == pytest.approx(expected, abs=1.01e-4)
    # closed-form branch shapes
    r = np.array([-1.5, 0.25, 3.0])
    got = my.resolvent(r)
    assert got[0] == pytest.approx(-1.5)
    assert got[1] == pytest.approx(0.0)
    assert got[2] == pytest.approx((3.0 - 0.5) / 1.5)


@pytest.mark.parametrize("eps", [1e-8, 0.05, 1.0, 1e20, 1e300])
def test_zhang_closed_form_is_within_the_gap_tolerance(eps):
    # The resolvent returns the closed form unchecked; the residual check
    # is the oracle here, at the largest floats, signed zeros, the
    # smallest subnormal and the branch point eps with its neighbours.
    # At eps 1e20 and r the largest float, eps (s + 1) rounds above the
    # largest float, so the check takes its overflow-safe form.
    largest = np.finfo(float).max
    r = np.array([largest, -largest, -0.0, 0.0, 5e-324, eps,
                  np.nextafter(eps, np.inf), np.nextafter(eps, -np.inf)])
    my = MoreauYosida(zhang(), eps)
    s = my.resolvent(r)
    check_residual(my, r, s)
    assert np.array_equal(np.signbit(s[2:4]), [True, False])


def test_fast_diffusion_resolvent_against_bisection():
    # theta = 1/2 at eps = 1: s + sqrt(s) = 2 has the root s = 1.
    my = MoreauYosida(fast_diffusion(0.5), 1.0)
    assert my.resolvent(2.0) == pytest.approx(1.0, rel=1e-12)
    root = bisect_scalar(lambda s: s + np.sqrt(s) - 2.0, 0.0, 2.0)
    assert my.resolvent(2.0) == pytest.approx(root, abs=1e-10)
    # generic exponent goes through the safeguarded Newton path
    my = MoreauYosida(fast_diffusion(0.3), 0.7)
    root = bisect_scalar(lambda s: s + 0.7 * s**0.3 - 1.9, 0.0, 1.9)
    assert my.resolvent(1.9) == pytest.approx(root, abs=1e-9)
    assert my.resolvent(-1.9) == pytest.approx(-root, abs=1e-9)


def test_porous_medium_resolvent_against_bisection():
    my = MoreauYosida(porous_medium(2.0), 0.4)
    root = bisect_scalar(lambda s: s + 0.4 * s**2 - 3.0, 0.0, 3.0)
    assert my.resolvent(3.0) == pytest.approx(root, rel=1e-12)
    my = MoreauYosida(porous_medium(3.5), 0.4)
    root = bisect_scalar(lambda s: s + 0.4 * s**3.5 - 3.0, 0.0, 3.0)
    assert my.resolvent(3.0) == pytest.approx(root, abs=1e-9)


def test_piecewise_resolvent_against_grid():
    pot = sample_piecewise()
    my = MoreauYosida(pot, 0.3)
    for r in (-4.0, -1.3, -1.0, -0.7, 0.0, 0.4, 1.0, 1.2, 5.0):
        expected = prox_grid_argmin(pot, 0.3, r)
        assert my.resolvent(r) == pytest.approx(expected, abs=1.01e-4)


def test_piecewise_resolvent_at_band_edges():
    # At the upper band edge 1.2 of the knot 1 the right piece's formula
    # rounds to 0.9999999999999999, left of the knot; the answer is the
    # knot itself.
    pot = piecewise_quadratic([1.0], [(0.5, 0.0, 0.0), (0.5, 1.0, -1.0)])
    assert MoreauYosida(pot, 0.1).resolvent(1.2) == 1.0
    # Random convex two-knot potentials at every band edge, one ulp either
    # side of it, and random arguments: the resolvent is accepted, is
    # nondecreasing, and is within roundoff of the knot at its edges.
    rng = np.random.default_rng(23)
    for _ in range(300):
        knots = np.sort(rng.uniform(-3.0, 3.0, 2))
        a = rng.uniform(0.0, 2.0, 3) * (rng.uniform(size=3) < 0.8)
        jump = rng.uniform(0.0, 2.0, 2)
        b = np.empty(3)
        b[0] = rng.uniform(-2.0, 2.0)
        c = np.empty(3)
        c[0] = rng.uniform(-1.0, 1.0)
        for j, k in enumerate(knots):
            b[j + 1] = 2 * (a[j] - a[j + 1]) * k + b[j] + jump[j]
            c[j + 1] = (a[j] - a[j + 1]) * k**2 + (b[j] - b[j + 1]) * k + c[j]
        pot = piecewise_quadratic(knots, np.stack([a, b, c], axis=1))
        for eps in (0.05, 0.3, 0.9):
            my = MoreauYosida(pot, eps)
            edges = my._piecewise_bands
            near = np.stack([np.nextafter(edges, -np.inf), edges,
                             np.nextafter(edges, np.inf)], axis=-1)
            r = np.sort(np.concatenate([near.ravel(),
                                        rng.uniform(-8.0, 8.0, 40)]))
            s = my.resolvent(r)
            assert np.all(np.diff(s) >= 0.0)
            at_knot = my.resolvent(near) - np.repeat(knots, 2)[:, None]
            assert np.abs(at_knot).max() <= 1e-12 * (1.0 + np.abs(near).max())


def test_prox_oracle_equivalence_refining_grid():
    # Ten thousand random (kind, smoothing, point) cases against the
    # brute-force minimizer on a two-stage refining grid; the oracle never
    # touches the resolvent.
    rng = np.random.default_rng(31)
    kinds = builtin_potentials()
    for pot in kinds:
        grid1 = np.arange(-20.0, 20.0 + 1e-2, 1e-2)
        vals1 = pot.value(grid1)
        eps = rng.uniform(0.05, 0.95, size=10000 // len(kinds))
        rs = rng.uniform(-10, 10, size=eps.size)
        resolved = np.array([MoreauYosida(pot, float(e)).resolvent(float(r))
                             for e, r in zip(eps, rs)])
        for e, r, got in zip(eps, rs, resolved):
            center = grid1[np.argmin((r - grid1) ** 2 / (2 * e) + vals1)]
            # refine to 1e-5, the finest step whose objective differences
            # still clear floating-point roundoff near the minimum
            grid = np.arange(center - 0.02, center + 0.02, 1e-5)
            obj = (r - grid) ** 2 / (2 * e) + pot.value(grid)
            fine = grid[np.argmin(obj)]
            assert got == pytest.approx(fine, abs=1.1e-5)


def test_sublinear_resolvent_extreme_magnitudes():
    # For exponents below one the root at tiny inputs sits near
    # (|r|/eps)**(1/exponent), exponentially small; the solve must resolve
    # it (regression: bisection in the raw variable stalled here).
    my = MoreauYosida(fast_diffusion(0.2), 0.025)
    r = -4.65254e-09
    s = float(my.resolvent(r))
    assert s == pytest.approx(-((abs(r) / 0.025) ** 5), rel=1e-6)
    for theta in (0.1, 0.35, 0.9):
        pot = fast_diffusion(theta)
        for eps in (0.01, 0.6, 1.5):
            my = MoreauYosida(pot, eps)
            mags = 10.0 ** np.arange(-14.0, 7.0)
            rr = np.concatenate([mags, -mags, [0.0]])
            y = my.yosida(rr)  # resolvent self-checks its residual
            lo, hi = pot.subdiff(my.resolvent(rr))
            tol = 1e-9 * (1 + np.abs(rr))
            assert np.all(y >= lo - tol) and np.all(y <= hi + tol)


def steep_wall(a):
    # Flat up to 1, then the wall a (r - 1)^2.
    return piecewise_quadratic([0.0, 1.0], [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                            (a, -2.0 * a, a)])


@pytest.mark.parametrize("a", [1e5, 1e7])
def test_steep_wall_resolvent_against_exact_arithmetic(a):
    # On the wall the slope 2 a s + b is the difference of two terms of
    # size 2 a, so a residual check at 1e-12 (1 + |r|) falls below its own
    # roundoff eps |2 a s + b| and refuses these roots, which the
    # resolvent returns as computed.
    pot = steep_wall(a)
    assert all(check.passed for check in check_assumptions(pot))
    r = np.linspace(1.0, 3.0)
    s = MoreauYosida(pot, 0.1).resolvent(r)
    exact = piecewise_resolvent_exact(pot, 0.1, r)
    assert np.all(np.abs(s - exact)
                  <= 4.0 * piecewise_rounding_ulp(pot, 0.1, r, exact))


def test_resolvent_requires_convexity():
    # The constructor refuses a concave piece, so no resolvent meets one.
    with pytest.raises(ValueError, match="convex"):
        piecewise_quadratic([0.0], [(-1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])


def test_resolvent_refuses_a_log_solve_that_misses(monkeypatch):
    # At |r| = 1.7e308, eps s^2.5 overflows in the plain Newton solve, so
    # the element is solved again in logarithms; a wrong root there is the
    # last word and is refused.
    calls = []

    def wrong_root(p, eps, a):
        calls.append(a)
        return 0.5 * a

    monkeypatch.setattr(monotone, "_power_log_solve", wrong_root)
    my = MoreauYosida(porous_medium(2.5), 0.05)
    with pytest.raises(ResolventError, match="resolvent residual"):
        my.resolvent(np.array([1.0, -1.7e308]))
    assert len(calls) == 1


def test_resolvent_refuses_nan_at_a_finite_argument(monkeypatch):
    # A NaN gap at a finite argument misses the tolerance: a NaN from the
    # plain solve is solved again in logarithms, and a NaN from there too
    # is refused.  The residual oracle refuses a NaN zhang resolvent the
    # same way; the resolvent returns that closed form unchecked.
    r = np.array([0.5, -3.0, 1e10])
    my = MoreauYosida(porous_medium(2.5), 0.05)
    cold = my.resolvent(r)
    monkeypatch.setattr(monotone, "_power_newton",
                        lambda p, eps, a, start=None: np.full(a.shape, np.nan))
    assert np.all(np.abs(my.resolvent(r) - cold) <= 2e-12 * (1.0 + np.abs(r)))
    monkeypatch.setattr(monotone, "_power_log_solve",
                        lambda p, eps, a: np.full(a.shape, np.nan))
    with pytest.raises(ResolventError, match="resolvent residual nan"):
        my.resolvent(r)
    sandpile = MoreauYosida(zhang(), 0.05)
    with pytest.raises(ResolventError, match="resolvent residual nan"):
        check_residual(sandpile, r, np.full(3, np.nan))
    check_residual(sandpile, np.array([np.nan, np.inf]), np.full(2, np.nan))


def test_smoothing_parameter_validation():
    # A NaN level would give the zhang and piecewise kinds NaN resolvents,
    # which they return unchecked.
    for eps in (0.0, np.nan, np.inf, [[0.1], [np.nan]]):
        with pytest.raises(ValueError, match="positive"):
            MoreauYosida(zhang(), eps)
    MoreauYosida(zhang(), 1.0)  # values above one are legitimate here


# -- single-solve evaluation ----------------------------------------------------


@pytest.mark.parametrize("pot", [
    fast_diffusion(0.3), fast_diffusion(0.5), porous_medium(2.0),
    porous_medium(2.5), zhang(), sample_piecewise(),
], ids=["fd0.3", "fd0.5", "pm2", "pm2.5", "zhang", "piecewise"])
@pytest.mark.parametrize("eps", [1e-8, 0.05, 0.5])
def test_evaluate_matches_separate_methods_bitwise(pot, eps):
    my = MoreauYosida(pot, eps)
    kinks = breakpoints(pot)
    r = np.concatenate([
        [0.0, 1e-300, -1e-300, 1e8, -1e8, eps, -eps],
        kinks, kinks + eps, kinks - eps,
        np.linspace(-5.0, 5.0, 41),
    ])
    if pot.kind == "piecewise":
        r = np.concatenate([r, my._piecewise_bands])
    values = my.evaluate(r)
    expected = (my.resolvent(r), my.yosida(r), my.yosida_slope(r))
    for got, want in zip(values, expected, strict=True):
        assert not np.isnan(want).any()
        assert np.array_equal(got, want)
    scalar = my.evaluate(0.25)
    expected = (my.resolvent(0.25), my.yosida(0.25), my.yosida_slope(0.25))
    for got, want in zip(scalar, expected, strict=True):
        assert np.array_equal(got, want)


def same_bits(got, want):
    # Equal values, NaN where NaN, and equal zero signs.
    got, want = np.broadcast_arrays(got, want)
    signs = np.signbit(got) == np.signbit(want)
    return (np.array_equal(got, want, equal_nan=True)
            and bool(signs[~np.isnan(want)].all()))


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 2.0, 2.5])
@pytest.mark.parametrize("eps", [0.05, np.array([[1e-3], [0.05], [0.7]])],
                         ids=["scalar", "column"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "previous"])
def test_power_evaluate_keeps_the_reference_formulas_bitwise(p, eps, warm):
    # Oracle: the slope, slope derivative and envelope of a power kind by
    # the formulas that took |s| three times and masked every element, on
    # the resolvent of the same call.  The lean evaluate takes |s| and
    # |s|^p once and masks only when some |s| is 0 or some quotient is not
    # finite.  Signed zeros, the smallest subnormal, subnormals, 1e-300 up
    # to the largest float, infinities and NaN.
    pot = fast_diffusion(p) if p < 1.0 else porous_medium(p)
    my = MoreauYosida(pot, eps)
    edges = [0.0, -0.0, 5e-324, 1e-320, 2.2e-308, 1e-310, np.inf, np.nan,
             1.7976931348623157e308]
    ladder = np.logspace(-300, 308, 120)
    r = np.concatenate([edges, ladder, np.linspace(0.0, 3.0, 31)])
    r = np.tile(np.concatenate([r, -r]), (3, 1))
    previous = None
    with np.errstate(all="ignore"):
        if warm:
            # An earlier point that moved every other element; the rest
            # keep their argument bit for bit.
            r0 = r * (1.0 + 1e-3)
            r0[:, ::2] = r[:, ::2]
            v0 = my.evaluate(r0)
            previous = (r0, v0.resolvent, v0.slope_derivative)
        values = my.evaluate(r, previous)
        expected = power_values(my, r, previous)
        assert same_bits(values.resolvent, my.resolvent(r, previous))
        for got, want in zip(values[1:], expected):
            assert same_bits(got, want)
        if not warm:
            methods = (my.yosida(r), my.yosida_slope(r), my.envelope(r))
            for got, want in zip(methods, expected):
                assert same_bits(got, want)


# -- Yosida slope -------------------------------------------------------------


def test_yosida_zero():
    for pot in builtin_potentials():
        assert MoreauYosida(pot, 0.5).yosida(0.0) == pytest.approx(0.0)


def test_zhang_yosida_values_and_membership():
    my = MoreauYosida(zhang(), 0.5)
    assert my.yosida(2.0) == pytest.approx(2.0)
    lo, hi = zhang().subdiff(my.resolvent(2.0))
    assert lo - 1e-12 <= my.yosida(2.0) <= hi + 1e-12
    # small positive inputs collapse onto the multi-valued point
    assert my.resolvent(0.25) == pytest.approx(0.0)
    assert my.yosida(0.25) == pytest.approx(0.5)
    lo, hi = zhang().subdiff(0.0)
    assert lo <= 0.5 <= hi


def test_yosida_membership_random():
    rng = np.random.default_rng(37)
    for pot in builtin_potentials():
        r = rng.uniform(-8, 8, size=500)
        eps = float(rng.uniform(0.05, 0.95))
        my = MoreauYosida(pot, eps)
        s = my.resolvent(r)
        y = my.yosida(r)
        lo, hi = pot.subdiff(s)
        tol = 1e-9 * (1 + np.abs(r))
        assert np.all(y >= lo - tol)
        assert np.all(y <= hi + tol)


def test_power_slope_keeps_its_digits_where_eps_slope_is_below_roundoff():
    # At eps 1e-8, eps |s|^0.3 is below the roundoff of r = 2.5e7 and
    # 1e20, where (r - s) / eps read 0 and -4.9e12.  The slope is
    # sign(s) |s|^p, which the root satisfies, and s is r to 1e-13 there.
    pot = fast_diffusion(0.3)
    my = MoreauYosida(pot, 1e-8)
    r = np.array([2.5e7, 1e20, -1e20])
    values = my.evaluate(r)
    want = np.sign(r) * np.abs(r) ** 0.3
    assert np.abs(values.slope / want - 1).max() <= 1e-12
    assert np.array_equal(values.slope, pot.subdiff(values.resolvent)[0])
    assert np.array_equal(my.yosida(r), values.slope)


def test_yosida_lipschitz_and_monotone():
    rng = np.random.default_rng(41)
    for pot in builtin_potentials():
        for eps in (0.1, 0.5):
            my = MoreauYosida(pot, eps)
            a = rng.uniform(-10, 10, size=800)
            b = rng.uniform(-10, 10, size=800)
            ya, yb = my.yosida(a), my.yosida(b)
            assert np.all((ya - yb) * (a - b) >= -1e-12)
            assert np.all(np.abs(ya - yb) <= np.abs(a - b) / eps + 1e-12)


def test_yosida_dominated_by_minimal_section():
    rng = np.random.default_rng(43)
    for pot in builtin_potentials():
        r = rng.uniform(-10, 10, size=1000)
        for eps in (0.05, 0.4, 0.9):
            y = np.abs(MoreauYosida(pot, eps).yosida(r))
            assert np.all(y <= pot.minimal_section(r) + 1e-10)


# -- envelope -----------------------------------------------------------------


def test_envelope_zero():
    for pot in builtin_potentials():
        assert MoreauYosida(pot, 0.3).envelope(0.0) == pytest.approx(0.0)


def test_zhang_envelope_value():
    my = MoreauYosida(zhang(), 0.5)
    # transport cost 1 plus potential value 1.5 at the resolvent point
    assert my.envelope(2.0) == pytest.approx(2.5)
    assert zhang().value(1.0) <= my.envelope(2.0) <= zhang().value(2.0)


def test_fast_diffusion_envelope_value():
    my = MoreauYosida(fast_diffusion(0.5), 1.0)
    assert my.envelope(2.0) == pytest.approx(0.5 + 2.0 / 3.0)
    pot = fast_diffusion(0.5)
    assert pot.value(1.0) <= my.envelope(2.0) <= pot.value(2.0)


def test_envelope_sandwich_and_gap():
    rng = np.random.default_rng(47)
    for pot in builtin_potentials():
        r = rng.uniform(-10, 10, size=1000)
        for eps in (0.05, 0.5, 0.95):
            my = MoreauYosida(pot, eps)
            env = my.envelope(r)
            val = pot.value(r)
            at_res = pot.value(my.resolvent(r))
            assert np.all(env <= val + 1e-10 * (1 + val))
            assert np.all(env >= at_res - 1e-10 * (1 + np.abs(at_res)))
            gap = np.abs(val - env)
            assert np.all(gap <= eps * pot.minimal_section(r) ** 2
                          + 1e-10 * (1 + val))


def test_gradient_of_envelope_is_yosida():
    rng = np.random.default_rng(53)
    h = 1e-6
    for pot in builtin_potentials():
        r = rng.uniform(-10, 10, size=1000)
        keep = np.min(np.abs(r[:, None] - breakpoints(pot)[None, :]), axis=1) >= 1e-2
        r = r[keep]
        for eps in (0.1, 0.6):
            my = MoreauYosida(pot, eps)
            fd = (my.envelope(r + h) - my.envelope(r - h)) / (2 * h)
            assert np.abs(fd - my.yosida(r)).max() <= 1e-4


# -- paired smoothing ----------------------------------------------------------


def test_cross_monotonicity_equal_points():
    d = cross_monotonicity_defect(zhang(), 0.5, 0.1, 1.3, 1.3)
    assert d.product == pytest.approx(0.0)
    assert d.slope_bound <= 0.0
    assert d.slack_slope >= 0.0


def test_cross_monotonicity_equal_smoothing():
    rng = np.random.default_rng(59)
    for _ in range(50):
        r, rp = rng.uniform(-5, 5, size=2)
        d = cross_monotonicity_defect(fast_diffusion(0.5), 0.3, 0.3, r, rp)
        assert d.product >= -1e-12
        assert d.slack_slope >= abs(d.slope_bound) - 1e-12


def test_cross_monotonicity_zhang_mixed():
    # Branch values: slope at 2 with eps 0.5 is 2, at -1 with eps 0.1 is 0.
    d = cross_monotonicity_defect(zhang(), 0.5, 0.1, 2.0, -1.0)
    assert d.product == pytest.approx(6.0)
    assert d.slack_slope == pytest.approx(6.0 + 0.5 * 0.6 * 4.0)
    assert d.slack_growth == pytest.approx(6.0 + 2.0 * 0.6 * 6.0)


def test_cross_monotonicity_suite_random():
    rng = np.random.default_rng(61)
    for pot in builtin_potentials():
        e = rng.uniform(0.02, 0.98, size=(400, 2))
        pts = rng.uniform(-8, 8, size=(400, 2))
        for (e1, e2), (r, rp) in zip(e, pts):
            d = cross_monotonicity_defect(pot, e1, e2, r, rp)
            assert d.slack_slope >= -1e-10 * d.scale
            if d.slack_growth is not None:
                assert d.slack_growth >= -1e-10 * d.scale


def test_cross_monotonicity_porous_has_no_growth_bound():
    d = cross_monotonicity_defect(porous_medium(2.0), 0.2, 0.3, 1.0, -1.0)
    assert d.growth_bound is None
    assert d.slack_growth is None


# -- assumption checks ----------------------------------------------------------


def test_check_assumptions_fast_diffusion():
    checks = check_assumptions(fast_diffusion(0.5))
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert "certified constant 1" in by_name["linear_minimal_section_bound"].detail


def test_check_assumptions_zhang():
    assert all(c.passed for c in check_assumptions(zhang()))
    assert zhang().minimal_section(0.0) == pytest.approx(0.0)


def test_check_assumptions_porous_medium_flagged():
    checks = check_assumptions(porous_medium(2.0))
    assert not all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert not by_name["linear_minimal_section_bound"].passed
    assert by_name["convexity"].passed


def test_check_assumptions_concave_counterexample():
    # What the sampled checks find non-convex, a concave piece and a
    # concave kink, is refused before any check sees it, and so is a slope
    # that drops by one ulp: the rule has no tolerance.
    grid = np.linspace(-5.0, 5.0, 501)
    for pieces, why in (([(-1.0, 0.0, 0.0)] * 2, "coefficient is negative"),
                        ([(0.0, 1.0, 0.0), (0.0, -1.0, 0.0)], "slope drops")):
        assert min(sampled_convexity_margins([0.0], pieces, grid)) < -1e-12
        with pytest.raises(ValueError, match="pieces must be convex: .*" + why):
            piecewise_quadratic([0.0], pieces)
    with pytest.raises(ValueError, match="slope drops"):
        piecewise_quadratic([0.0], [(0.0, 1.0, 0.0),
                                    (0.0, np.nextafter(1.0, 0.0), 0.0)])
    piecewise_quadratic([0.0], [(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)])


KINKED = piecewise_quadratic(
    [-0.5, 0.5], [(0.0, -1.0, -0.5), (0.0, 0.0, 0.0), (0.0, 1.0, -0.5)])
FD_LEAST = {p: 1.0 + r - r**p for p in (0.3, 0.5)
            for r in [p ** (1.0 / (1.0 - p))]}


@pytest.mark.parametrize("pot, pinned", [
    (KINKED, {"convexity": 0.0, "linear_minimal_section_bound": 0.5,
              "monotone_subdifferential": 1.0,
              "nonnegative_with_zero_at_origin": 0.0}),
    (piecewise_quadratic([0.0], [(0.0, -1.0, 0.0), (0.0, 1.0, 0.0)]),
     {"linear_minimal_section_bound": 0.0, "monotone_subdifferential": 2.0}),
    (piecewise_quadratic([], [(0.0, 2.0, 0.0)]),
     {"nonnegative_with_zero_at_origin": -np.inf,
      "monotone_subdifferential": 0.0}),
    (piecewise_quadratic([], [(1.0, -3.0, 1.0)]),
     {"nonnegative_with_zero_at_origin": -1.25, "convexity": 1.0}),
    (sample_piecewise(), {"linear_minimal_section_bound": 6.0,
                          "monotone_subdifferential": 1.0}),
    (porous_medium(2.0), {"linear_minimal_section_bound": -np.inf,
                          "convexity": 0.0, "monotone_subdifferential": 0.0}),
    (porous_medium(2.5), {"linear_minimal_section_bound": -np.inf}),
    (zhang(), {"convexity": 0.0, "linear_minimal_section_bound": 0.0,
               "monotone_subdifferential": 1.0}),
    (fast_diffusion(0.3), {"linear_minimal_section_bound": FD_LEAST[0.3],
                           "monotone_subdifferential": 0.0}),
    (fast_diffusion(0.5), {"linear_minimal_section_bound": FD_LEAST[0.5]}),
], ids=["kinked", "sign", "linear", "1:-3:1", "sample", "pm2", "pm2.5",
        "zhang", "fd0.3", "fd0.5"])
def test_check_assumptions_margins_are_exact(pot, pinned):
    # Each margin is computed from the kind's parameters, with no sampling:
    # it equals its pinned value and is at most what a fine grid, which
    # misses every knot, reads.  Grid slopes of a piece differ from its
    # 2 a in roundoff only; a step across a knot reads at least the jump.
    margins = {c.name: c.margin for c in check_assumptions(pot)}
    for name, value in pinned.items():
        assert margins[name] == value, name
    grid = np.linspace(-10.0, 10.0, 200_000)
    assert margins["nonnegative_with_zero_at_origin"] <= min(
        pot.value(grid).min(), -abs(pot.value(0.0)))
    lo, hi = pot.subdiff(grid)
    quotient = (lo[1:] - hi[:-1]) / (2.0 * np.diff(grid))
    assert margins["convexity"] <= quotient.min() + 1e-9
    if pot.slope_bound is not None:
        slack = pot.slope_bound * (np.abs(grid) + 1.0) - pot.minimal_section(
            grid)
        assert margins["linear_minimal_section_bound"] <= slack.min()
    across = np.searchsorted(grid, breakpoints(pot))
    assert margins["monotone_subdifferential"] <= (
        lo[across] - hi[across - 1]).min(initial=np.inf)


def test_constructor_holds_each_kinds_rules_and_slope_bound():
    # The factories add nothing to the constructor: a potential built
    # directly is refused where its factory refuses, and equals the
    # factory's potential, slope bound included.
    pieces = [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (2.0, -2.0, 0.0)]
    for direct, built, bound in (
            (ConvexPotential("zhang"), zhang(), 1.0),
            (ConvexPotential("fast_diffusion", exponent=0.3),
             fast_diffusion(0.3), 1.0),
            (ConvexPotential("porous_medium", exponent=2.5),
             porous_medium(2.5), None),
            (ConvexPotential("piecewise", knots=[-1.0, 1.0], pieces=pieces),
             piecewise_quadratic([-1.0, 1.0], pieces), 6.0)):
        assert direct == built
        assert hash(direct) == hash(built)
        assert direct.slope_bound == built.slope_bound == bound
    for fields, message in (
            ({"kind": "fast_diffusion", "exponent": 2.0},
             r"exponent must lie in \(0, 1\), got 2.0"),
            ({"kind": "fast_diffusion"}, r"must lie in \(0, 1\), got 0.0"),
            ({"kind": "porous_medium", "exponent": 0.5},
             "exponent must exceed 1, got 0.5"),
            ({"kind": "piecewise", "knots": (1.0, 0.0), "pieces": pieces},
             "strictly ascending"),
            ({"kind": "piecewise"}, "row per interval"),
            ({"kind": "piecewise", "knots": (0.0,),
              "pieces": ((0.0, 0.0, 0.0), (0.0, 0.0, 5.0))},
             "agree at the knots"),
            ({"kind": "piecewise", "knots": (np.inf,),
              "pieces": ((1.0, 0.0, 0.0), (1.0, 0.0, 3.0))},
             "must be finite")):
        with pytest.raises(ValueError, match=message):
            ConvexPotential(**fields)


def test_constructor_refuses_fields_its_kind_does_not_read():
    # Such a field would be kept unread, and the potential would differ
    # from the one its factory builds.
    pieces = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    for fields, message in (
            ({"kind": "zhang", "exponent": 2.0}, "zhang reads no exponent"),
            ({"kind": "zhang", "exponent": 2.0, "knots": (1.0,)},
             "zhang reads no exponent"),
            ({"kind": "zhang", "knots": (1.0,)}, "zhang reads no knots"),
            ({"kind": "zhang", "pieces": pieces}, "zhang reads no pieces"),
            ({"kind": "fast_diffusion", "exponent": 0.5, "knots": (0.0,)},
             "fast_diffusion reads no knots"),
            ({"kind": "porous_medium", "exponent": 2.0, "pieces": pieces},
             "porous_medium reads no pieces"),
            ({"kind": "piecewise", "exponent": 0.5, "knots": (0.0,),
              "pieces": pieces}, "piecewise reads no exponent")):
        with pytest.raises(ValueError, match=f"^{message}"):
            ConvexPotential(**fields)
    assert ConvexPotential("zhang", exponent=0.0, knots=[]) == zhang()


def test_piecewise_validation():
    with pytest.raises(ValueError, match="ascending"):
        piecewise_quadratic([1.0, 0.0], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="row per interval"):
        piecewise_quadratic([0.0], np.zeros((3, 3)))
    # A value drop at a knot is not convex, however small.  The pieces may
    # differ there only by the roundoff of evaluating their terms, a few
    # ulp of their size: here 8.9e-16, one ulp of 4.495.
    for pieces in ([(0.0, 0.0, 0.0), (0.0, 0.0, 5.0)],
                   [(0.0, 0.0, 1e-10), (0.0, 0.0, 0.0)],
                   [(0.0, 0.0, 1e-300), (0.0, 0.0, 0.0)]):
        with pytest.raises(ValueError, match="agree at the knots"):
            piecewise_quadratic([0.0], pieces)
    k = 2.9
    piecewise_quadratic([k], [(0.5, 0.2, 0.0),
                              (1.0, 0.3, (0.5 - 1.0) * k**2 + (0.2 - 0.3) * k)])
    # A knot or piece that is not finite is refused before any gap at a
    # knot is read.
    for knots, pieces in (([np.inf], [(1.0, 0.0, 0.0), (1.0, 0.0, 3.0)]),
                          ([-1.0, np.nan], [(1.0, 0.0, 0.0)] * 3),
                          ([0.0], [(0.0, 0.0, 0.0), (0.0, np.inf, 0.0)])):
        with pytest.raises(ValueError, match="must be finite"):
            piecewise_quadratic(knots, pieces)
    # A single piece has no knots; its resolvent is the closed form of
    # the quadratic a r^2, r / (1 + 2 eps a).
    single = piecewise_quadratic([], [(1.5, 0.0, 0.0)])
    r = np.array([-3.0, -1e-8, 0.0, 0.7, 40.0])
    for eps in (0.05, 0.5):
        my = MoreauYosida(single, eps).evaluate(r)
        assert np.allclose(my.resolvent, r / (1.0 + 3.0 * eps),
                           rtol=1e-15, atol=0.0)
        assert np.allclose(my.slope_derivative, 3.0 / (1.0 + 3.0 * eps),
                           rtol=1e-15, atol=0.0)


INF = np.inf


@pytest.mark.parametrize("knots, pieces, expected", [
    ([-1.0, 1.0], [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (2.0, -2.0, 0.0)],
     [INF, INF]),
    ([-0.5, 0.5], [(0.0, -1.0, -0.5), (0.0, 0.0, 0.0), (0.0, 1.0, -0.5)],
     [INF, INF]),
    ([], [(0.0, 0.0, 0.0)], [0.0, 0.0]),
    ([], [(0.0, 0.0, 3.0)], [3.0, 3.0]),
    ([], [(0.0, 2.0, 0.0)], [-INF, INF]),
    ([], [(-1.0, 4.0, 0.0)], None),
], ids=["opposite_b", "kinked", "flat", "constant", "linear", "concave"])
def test_piecewise_value_at_infinity_is_the_outer_piece_limit(knots, pieces,
                                                              expected):
    # a inf^2 + b inf + c reads NaN where a = 0 (0 inf) and where b has
    # the sign opposite to a (inf - inf); the value there is the limit of
    # the outer piece.  A NaN argument stays NaN.  The limit takes a >= 0:
    # a concave outer piece, whose limit would be -inf, is refused when
    # built, so no value is ever read from one.
    if expected is None:
        with pytest.raises(ValueError, match="convex"):
            piecewise_quadratic(knots, pieces)
        return
    pot = piecewise_quadratic(knots, pieces)
    got = pot.value(np.array([-INF, INF, np.nan]))
    assert np.array_equal(got[:2], expected)
    assert np.isnan(got[2])


def test_exponent_validation():
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        fast_diffusion(1.0)
    with pytest.raises(ValueError, match="exceed 1"):
        porous_medium(1.0)


def test_zhang_subdiff_table():
    pot = zhang()
    lo, hi = pot.subdiff(np.array([-2.0, 0.0, 3.0]))
    assert np.allclose(lo, [0.0, 0.0, 4.0])
    assert np.allclose(hi, [0.0, 1.0, 4.0])


def test_zhang_value_reads_no_invalid_operation():
    # 0.5 r^2 + r at r = -inf is inf - inf; the value takes the positive
    # part of r first, so no argument raises a RuntimeWarning (an error
    # under the test settings), and NaN reads 0 as every r <= 0 does.
    r = np.array([-np.inf, -1e308, -2.0, -0.0, 0.0, np.nan, 3.0, np.inf])
    got = zhang().value(r)
    assert np.array_equal(got, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.5, np.inf])
    assert not np.signbit(got).any()


WIDE_A = np.concatenate([[0.0, 1e-300], np.logspace(-300, 8, 2000)])


@pytest.mark.parametrize("eps", [1e-8, 0.05, 0.5])
@pytest.mark.parametrize("p", [0.5, 2.0])
def test_power_newton_matches_closed_form_branches(p, eps):
    # The resolvent solves p = 0.5 and p = 2 in closed form; those branches
    # are the oracle for the Newton loop that serves every other exponent,
    # in its sublinear (p < 1) and superlinear form.
    closed = _power_resolvent(p, eps, WIDE_A)
    s = _power_newton(p, eps, WIDE_A)
    assert np.all(np.abs(s - closed) <= 2e-13 * (1.0 + WIDE_A))


@pytest.mark.parametrize("eps", [1e-8, 0.05, 0.5])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.9, 1.5, 2.5, 5.0])
def test_power_newton_matches_bisection_oracle(p, eps):
    # The exponents without a closed form, against bisection of the scalar
    # equation itself.
    s = _power_newton(p, eps, WIDE_A)
    oracle = power_root_bisection(p, eps, WIDE_A)
    assert np.all(np.abs(s - oracle) <= 2e-13 * (1.0 + WIDE_A))


@pytest.mark.parametrize("p", [0.1, 0.3, 0.9, 1.5, 2.5, 5.0])
def test_power_newton_elements_independent_of_batch(p):
    # Converged elements leave the Newton loop, so an element's value must
    # not depend on what else is in the array or on the eps of other rows.
    eps = np.array([[1e-8], [0.05], [0.5]])
    a = np.broadcast_to(WIDE_A[::20], (3, WIDE_A[::20].size))
    batch = _power_newton(p, eps, a)
    alone = np.array([[_power_newton(p, float(e), a[i, j:j + 1])[0]
                       for j in range(a.shape[1])]
                      for i, e in enumerate(eps[:, 0])])
    assert np.array_equal(batch.view(np.int64), alone.view(np.int64))


def test_power_resolvent_rescues_an_overflowing_residual():
    # From a, eps a^1.2 would overflow for a above about 1e258; the start
    # min(a, (a/eps)^(1/p)) keeps the residual finite there.  Near the top
    # of the float range s^p overflows at that start although eps s^p is
    # about a, and for p < 1 the sum s + eps s^p overflows at the start
    # min(a/eps, a^p) in y where its terms are alike.  The plain Newton
    # solve then misses, and the resolvent solves those elements again in
    # logarithms.
    for p, eps, a in ((1.2, 0.05, np.logspace(259, 266, 8)),
                      (1.001, 0.5, np.linspace(1e308, 1.7e308, 8)),
                      (0.7, 1e92, np.linspace(1.4e308, 1.7e308, 8))):
        with np.errstate(over="ignore"):
            if p < 1.0:
                start = np.minimum(a / eps, a**p)
                assert np.all(np.isinf(start ** (1.0 / p) + eps * start))
            else:
                start = np.minimum(a, a ** (1.0 / p) * eps ** (-1.0 / p))
                assert np.all(np.isinf(start**p) == (p == 1.001))
        s = _power_resolvent(p, eps, a)
        assert np.all(np.abs(s - power_root_bisection(p, eps, a)) <= 1e-12 * s)
    assert _power_resolvent(1.2, 0.05, np.array([])).shape == (0,)


@pytest.mark.parametrize("p", [1.2, 2.0, 2.5, 5.0])
def test_porous_medium_resolvent_where_the_power_overflows(p):
    # From |r| = 1e300 to the largest float, s^p (and at small eps also
    # eps s^p at the Newton start, or s + eps s^p) overflows although the
    # root and eps s^p are finite; so do 2|r| and 4 eps |r| in the p = 2
    # closed form.
    a = np.append(np.logspace(300, 308, 33), [1.7e308, np.finfo(float).max])
    r = np.concatenate([a, -a])
    for eps in (1e-8, 0.05, 3.0):
        s = MoreauYosida(porous_medium(p), eps).resolvent(r)
        root = np.tile(power_root_bisection(p, eps, a), 2)
        assert np.all(np.abs(s - np.sign(r) * root) <= 1e-12 * root)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_fast_diffusion_resolvent_up_to_the_largest_float(p):
    # Near the top of the float range 4|r| and eps^2 overflow in the p = 1/2
    # closed form, and y^(1/p) or y^(1/p) + eps y in the Newton solve in
    # y = s^p, although the root is finite; at eps 1e215 the overflowing
    # residual halved the iterate without end from |r| = 1.5e308 for p = 0.3.
    a = np.append(np.logspace(299, 308, 37), [1.7e308, np.finfo(float).max])
    r = np.concatenate([a, -a])
    for eps in (1e-8, 0.05) + ((1e215,) if p == 0.3 else ()):
        s = MoreauYosida(fast_diffusion(p), eps).resolvent(r)
        root = np.tile(power_root_bisection(p, eps, a), 2)
        assert np.all(np.abs(s - np.sign(r) * root) <= 1e-12 * root)


def test_power_newton_porous_medium_at_large_arguments():
    # Started from min(a, (a/eps)^(1/p)), Newton is in its quadratic phase
    # from the first step; from a alone it converged only linearly and ran
    # out of iterations, at eps 0.05 from |r| = 1e10 for p = 5.
    a = np.concatenate([[0.0, 1e-300], np.logspace(-300, 300, 601)])
    r = np.concatenate([a, -a])
    for p in (1.5, 2.5, 5.0):
        for eps in (1e-8, 0.05, 0.5):
            s = MoreauYosida(porous_medium(p), eps).resolvent(r)
            oracle = np.sign(r) * power_root_bisection(p, eps, np.abs(r))
            assert np.all(np.abs(s - oracle) <= 2e-13 * (1.0 + np.abs(r)))


# Previous and new arguments of the warm-started resolvent: zero, 1e-300,
# 1e8 and a wide grid of both signs, against a (rows, 1) eps column.
WARM_EPS = np.array([[1e-8], [0.05], [0.5]])
WARM_R0 = np.broadcast_to(
    np.concatenate([[0.0, 1e-300, 1e8], np.logspace(-12, 6, 200)]) * [[1.0]],
    (3, 203))
WARM_R0 = np.concatenate([WARM_R0, -WARM_R0], axis=1)


def warm_arguments():
    # Sign flips, neighbours, large and small moves, and zero.
    r0 = WARM_R0
    return (-r0, np.roll(r0, 1, axis=1), -1.5 * np.roll(r0, -7, axis=1),
            1.001 * r0, np.zeros_like(r0))


@pytest.mark.parametrize("p", [0.1, 0.3, 0.9, 1.5, 2.5, 5.0])
def test_warm_resolvent_starts_above_the_root_and_matches_bisection(
        p, monkeypatch):
    pot = fast_diffusion(p) if p < 1.0 else porous_medium(p)
    my = MoreauYosida(pot, WARM_EPS)
    values0 = my.evaluate(WARM_R0)
    starts = []

    def newton(p, eps, a, start=None):
        starts.append(start)
        return _power_newton(p, eps, a, start)

    monkeypatch.setattr(monotone, "_power_newton", newton)
    # The Newton variable: y = |s|^p for p < 1, |s| for p > 1.
    power = p if p < 1.0 else 1.0
    y0 = np.abs(values0.resolvent) ** power
    for r in warm_arguments():
        root = np.stack([power_root_bisection(p, e, np.abs(row))
                         for e, row in zip(WARM_EPS[:, 0], r)])
        y = root**power
        # The inverse of the convex residual is concave: its tangent lies
        # above it, up to the roundoff of the tangent's terms, except where
        # the earlier resolvent underflowed to zero (r0 = 1e-300 at small
        # p) and took y0 with it.
        start = my._tangent(r, WARM_R0, values0.resolvent,
                            values0.slope_derivative)
        above = start >= y - 4e-15 * (y + y0)
        assert np.all(above | (values0.resolvent == 0.0))
        starts.clear()
        values = my.evaluate(r, (WARM_R0, values0.resolvent,
                                 values0.slope_derivative))
        # The tangent start reaches the Newton solve.
        assert len(starts) == 1 and np.array_equal(starts[0], start)
        assert np.all(np.abs(values.resolvent - np.sign(r) * root)
                      <= 2e-13 * (1.0 + np.abs(r)))


@pytest.mark.parametrize("pot", [fast_diffusion(0.5), porous_medium(2.0)],
                         ids=["fd0.5", "pm2"])
def test_closed_form_resolvent_ignores_the_start(pot):
    # A closed-form exponent takes no tangent start: with one the resolvent
    # is the cold one bit for bit, also where an argument equals r0.
    my = MoreauYosida(pot, WARM_EPS)
    values0 = my.evaluate(WARM_R0)
    previous = (WARM_R0, values0.resolvent, values0.slope_derivative)
    for r in warm_arguments() + (WARM_R0.copy(),):
        got, cold = my.resolvent(r, previous), my.resolvent(r)
        assert np.array_equal(got.view(np.int64), cold.view(np.int64))


# The envelope overflows where the potential's value does.
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("p", [1.2, 1.5, 2.5, 5.0])
def test_warm_resolvent_where_the_tangent_start_rounds_below_zero(p):
    # At eps 1e-8 the slope derivative at these r0 rounds to 1/eps, so
    # 1 - eps d0 rounds to about -2e-16 and the tangent start falls below
    # zero.  Clipped to zero, the first Newton step jumps to s = a, where
    # eps a^p overflows; the warm solve must still find the root.
    r0 = np.logspace(-300, 307.5, 20000)
    r0 = r0[r0 > 1e280]
    r = 1.001 * r0
    my = MoreauYosida(porous_medium(p), 1e-8)
    values0 = my.evaluate(r0)
    s = my.resolvent(r, (r0, values0.resolvent, values0.slope_derivative))
    root = power_root_bisection(p, 1e-8, r)
    assert np.all(np.abs(s - root) <= 1e-12 * root)


@pytest.mark.parametrize("pot", [
    fast_diffusion(0.3), fast_diffusion(0.5), porous_medium(2.5), zhang(),
    sample_piecewise(),
], ids=["fd0.3", "fd0.5", "pm2.5", "zhang", "piecewise"])
def test_evaluate_keeps_values_at_an_unchanged_argument(pot):
    my = MoreauYosida(pot, WARM_EPS)

    def start_at(r0, values0):
        return r0, values0.resolvent, values0.slope_derivative

    values0 = my.evaluate(WARM_R0)
    r = np.roll(WARM_R0, 1, axis=1)
    values1 = my.evaluate(r, start_at(WARM_R0, values0))
    # Every element unchanged: the values of the earlier call, bit for bit,
    # also when those came from a warm start.
    for r0, v0 in ((WARM_R0, values0), (r, values1)):
        again = my.evaluate(r0.copy(), start_at(r0, v0))
        for got, want in zip(again, v0):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # Half the elements moved: the others keep their values.
    mixed = np.where(np.arange(r.shape[1]) % 2 == 0, r, WARM_R0)
    values = my.evaluate(mixed, start_at(WARM_R0, values0))
    kept = mixed == WARM_R0
    for got, want in zip(values, values0):
        assert np.array_equal(got[kept], want[kept])

"""Convex scalar potentials and their Moreau-Yosida smoothing.

A potential is a nonnegative convex function on the line with value zero at
the origin.  Its subdifferential is an interval-valued monotone graph; the
resolvent of the graph, the single-valued Lipschitz slope and the smoothed
envelope are available in closed form for the built-in kinds and through a
scalar Newton solve, started above the root, for the other power exponents.
``MoreauYosida.resolvent`` and ``evaluate`` can start that solve from the
tangent of the resolvent at an earlier argument; without one ``evaluate``
equals the separate methods bit for bit.  A result is checked only where
an iteration can miss.  The power-law solves use plain arithmetic; each
element whose residual misses the tolerance, as where that arithmetic
overflows near the top of the float range, is solved again in logarithms,
from a cold or a warm start alike, and a miss there is refused.  The zhang
and piecewise formulas are returned as computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .reports import CheckResult

__all__ = [
    "ConvexPotential",
    "MoreauYosida",
    "MoreauYosidaValues",
    "CrossMonotonicityDefect",
    "fast_diffusion",
    "porous_medium",
    "zhang",
    "piecewise_quadratic",
    "cross_monotonicity_defect",
    "check_assumptions",
]

_KINDS = ("fast_diffusion", "porous_medium", "zhang", "piecewise")
_RESIDUAL_TOL = 1e-12  # largest resolvent residual gap, relative to 1 + |r|
_CLOSED_FORMS = (0.5, 2.0)  # power exponents whose resolvent is a formula


@dataclass(frozen=True)
class ConvexPotential:
    """Scalar potential with an interval-valued subdifferential.

    ``kind`` selects the formulas: ``fast_diffusion`` has sublinear slope
    ``|r|**theta`` (exponent in (0, 1)), ``porous_medium`` the superlinear
    slope ``|r|**gamma`` (exponent above 1), ``zhang`` the sandpile
    potential whose slope jumps at the origin, and ``piecewise`` a
    continuous convex piecewise-quadratic function given by knots and
    per-piece coefficients (see ``piecewise_quadratic``).  Each kind's rules
    are checked here, so the factories below build nothing the constructor
    would not, and every potential built is convex.
    """

    kind: str
    exponent: float = 0.0
    knots: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        p = self.exponent
        if self.kind == "fast_diffusion" and not 0.0 < p < 1.0:
            raise ValueError(f"exponent must lie in (0, 1), got {p}")
        if self.kind == "porous_medium" and p <= 1.0:
            raise ValueError(f"exponent must exceed 1, got {p}")
        # A field the kind does not read keeps its default, so a potential
        # equals the one its factory builds.
        if self.kind in ("zhang", "piecewise") and p != 0.0:
            raise ValueError(f"{self.kind} reads no exponent, got {p}")
        if self.kind != "piecewise":
            for name in ("knots", "pieces"):
                if len(getattr(self, name)):
                    raise ValueError(f"{self.kind} reads no {name}")
                object.__setattr__(self, name, ())
        if self.kind == "piecewise":
            knots = np.asarray(self.knots, dtype=float)
            pieces = np.asarray(self.pieces, dtype=float)
            if not (np.isfinite(knots).all() and np.isfinite(pieces).all()):
                raise ValueError("knots and pieces must be finite")
            if knots.ndim != 1 or np.any(np.diff(knots) <= 0):
                raise ValueError("knots must be strictly ascending")
            if pieces.shape != (knots.size + 1, 3):
                raise ValueError("need one (a, b, c) row per interval")

            def at(abc, k):  # each row's quadratic at its knot, nested
                return (abc[:, 0] * k + abc[:, 1]) * k + abc[:, 2]

            # The two pieces may differ at a knot by a few ulp of the size
            # of the terms summed there, the roundoff of evaluating them;
            # a larger gap, or one that overflows, is refused.
            left, right = pieces[:-1], pieces[1:]
            size = at(np.abs(left) + np.abs(right), np.abs(knots))
            if not np.all(np.abs(at(left - right, knots))
                          <= 4.0 * np.spacing(size)):
                raise ValueError("pieces must agree at the knots")
            # For a continuous piecewise quadratic these two rules are
            # exactly convexity.  They hold with no tolerance, so the
            # resolvent's band edges ascend in floating point too.
            if pieces[:, 0].min() < 0:
                raise ValueError("pieces must be convex: a quadratic "
                                 "coefficient is negative")
            object.__setattr__(self, "knots", tuple(knots.tolist()))
            object.__setattr__(self, "pieces",
                               tuple(map(tuple, pieces.tolist())))
            _, below, above = self._knot_slopes
            if np.any(above < below):
                raise ValueError("pieces must be convex: the slope drops at "
                                 "a knot")

    @cached_property
    def slope_bound(self) -> float | None:
        """Constant ``C`` with minimal subgradient magnitude at most
        ``C (|r| + 1)``; ``None`` when no linear bound exists, as for the
        porous-medium kind."""
        if self.kind == "porous_medium":
            return None
        if self.kind == "piecewise":
            pieces = np.asarray(self.pieces)
            return float((2.0 * np.abs(pieces[:, 0])
                          + np.abs(pieces[:, 1])).max())
        return 1.0

    # -- evaluation -------------------------------------------------------

    def _piece_index(self, r: np.ndarray, side: str = "right") -> np.ndarray:
        return np.searchsorted(np.asarray(self.knots), r, side=side)

    def value(self, r):
        """Potential value, vectorized."""
        r = np.asarray(r, dtype=float)
        if self.kind == "fast_diffusion" or self.kind == "porous_medium":
            p = self.exponent
            return np.abs(r) ** (p + 1.0) / (p + 1.0)
        if self.kind == "zhang":
            p = np.fmax(r, 0.0)  # 0 at NaN, as at -inf
            return 0.5 * p**2 + p
        index = self._piece_index(r)
        coeff = np.asarray(self.pieces)[index]
        a, b, c = coeff[..., 0], coeff[..., 1], coeff[..., 2]
        # Each piece about the knot at its left edge, the first about the
        # first knot and a lone piece about 0: a r^2 + b r + c cancels near
        # a knot, on a steep wall by far more than the Armijo slack.
        k = np.asarray(self.knots + (0.0,))[np.maximum(index - 1, 0)]
        d = r - k
        with np.errstate(invalid="ignore"):
            v = (a * d + (2.0 * a * k + b)) * d + ((a * k + b) * k + c)
            # Where the terms about the knot overflow to inf - inf, near
            # the top of the float range, the nested form about 0 is read
            # instead.  At r = +-inf, where 0 inf reads NaN too, the
            # value is the limit of the outer piece, whose a is not negative.
            nan = np.isnan(v) & ~np.isnan(r)
            if nan.any():
                limit = np.where(a != 0, np.inf,
                                 np.where(b != 0, np.sign(b * r) * np.inf, c))
                v = np.where(nan, np.where(np.isfinite(r), (a * r + b) * r + c,
                                           limit), v)
        return v

    def subdiff(self, r):
        """Subdifferential interval as a pair of arrays (lower, upper)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "fast_diffusion" or self.kind == "porous_medium":
            s = np.sign(r) * np.abs(r) ** self.exponent
            return s, s.copy()
        if self.kind == "zhang":
            lo = np.where(r > 0, r + 1.0, 0.0)
            hi = np.where(r > 0, r + 1.0, np.where(r == 0, 1.0, 0.0))
            return lo, hi
        pieces = np.asarray(self.pieces)
        left = pieces[self._piece_index(r, side="left")]
        right = pieces[self._piece_index(r, side="right")]
        lo = 2.0 * left[..., 0] * r + left[..., 1]
        hi = 2.0 * right[..., 0] * r + right[..., 1]
        return lo, hi

    def minimal_section(self, r):
        """Smallest magnitude over the subdifferential interval."""
        lo, hi = self.subdiff(r)
        inside = (lo <= 0.0) & (0.0 <= hi)
        return np.where(inside, 0.0, np.minimum(np.abs(lo), np.abs(hi)))

    @cached_property
    def _knot_slopes(self):
        # Left and right slopes at each knot of a piecewise potential.
        knots = np.asarray(self.knots, dtype=float)
        pieces = np.asarray(self.pieces, dtype=float)
        left = 2.0 * pieces[:-1, 0] * knots + pieces[:-1, 1]
        right = 2.0 * pieces[1:, 0] * knots + pieces[1:, 1]
        return knots, left, right


def fast_diffusion(theta: float) -> ConvexPotential:
    """Potential with slope ``|r|**theta`` for an exponent in (0, 1)."""
    return ConvexPotential("fast_diffusion", exponent=theta)


def porous_medium(gamma: float) -> ConvexPotential:
    """Potential with slope ``|r|**gamma`` for an exponent above 1.

    The slope grows faster than linearly, so no linear minimal-section
    bound exists; estimate experiments that need one refuse this kind.
    """
    return ConvexPotential("porous_medium", exponent=gamma)


def zhang() -> ConvexPotential:
    """Sandpile potential: quadratic with unit offset on the right half
    line, flat on the left, multi-valued slope [0, 1] at the origin."""
    return ConvexPotential("zhang")


def piecewise_quadratic(knots, pieces) -> ConvexPotential:
    """Continuous piecewise-quadratic potential.

    ``knots`` are the ascending junction points; ``pieces`` has one
    ``(a, b, c)`` row per interval (one more row than knots) with value
    ``a r^2 + b r + c``.  Continuity at the knots is required to within
    roundoff, a few ulp of the size of the terms summed at each knot, and
    convexity exactly: no ``a`` may be negative and the slope
    ``2 a r + b`` may not drop at a knot, with no tolerance.
    """
    return ConvexPotential("piecewise", knots=knots, pieces=pieces)


# -- resolvent machinery -------------------------------------------------


def _power_resolvent(p: float, eps, r: np.ndarray, start=None) -> np.ndarray:
    """Solve s + eps * sign(s) |s|**p = r, vectorized and odd in r.

    The closed forms of the exponents in ``_CLOSED_FORMS``, which ignore
    ``start``, and the Newton solve (from ``start`` when given) use plain
    arithmetic; every element whose residual gap misses the tolerance, as
    where they overflow, is solved again in logarithms, and only a miss
    there is refused.  A NaN or infinite
    argument gives NaN."""
    a = np.abs(r)
    with np.errstate(over="ignore", invalid="ignore"):
        if p not in _CLOSED_FORMS:
            s = _power_newton(p, eps, a, start)
        elif p < 1.0:
            x = 0.5 * (-eps + np.sqrt(eps * eps + 4.0 * a))
            s = x * x
        else:
            s = 2.0 * a / (1.0 + np.sqrt(1.0 + 4.0 * eps * a))
    miss = ~(_power_gap(p, eps, a, s) <= _RESIDUAL_TOL * (1.0 + a))
    if miss.any():
        s = np.where(miss, _power_log_solve(p, eps, a), s)
        _refuse(_power_gap(p, eps, a, s), a)
    return np.sign(r) * s


def _power_newton(p: float, eps, a: np.ndarray, start=None) -> np.ndarray:
    # Scalar Newton solve of s + eps s^p = a for a >= 0, in s for p > 1 and
    # in y = s^p for p < 1, where the root can be exponentially small in
    # 1/p; the residual in y has a derivative of at least eps.  The root
    # lies below min(a/eps, a^p) in y and below min(a, (a/eps)^(1/p)) in s,
    # computed as a^(1/p) eps^(-1/p) so that it cannot overflow where the
    # root does not.  Either residual is convex and increasing, so its
    # inverse is concave and a tangent of the inverse (``start``, in the
    # same variable) bounds the root from above too; the iteration starts
    # at the least of these bounds, and Newton from above falls onto the
    # root with no bracket.  Converged elements leave the working arrays,
    # so each is independent of the rest, and so do NaN ones: in plain
    # arithmetic the residual can overflow, and _power_resolvent solves
    # such elements again in logarithms.
    q = 1.0 / p
    a, eps = np.broadcast_arrays(a, eps)
    av, ev = a.reshape(-1), eps.reshape(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if p < 1.0:
            x = np.minimum(av / ev, av**p)
        else:
            x = np.fmin(av, av**q * ev**-q)
        if start is not None:
            start = np.broadcast_to(start, a.shape).reshape(-1)
            x = np.maximum(np.minimum(start, x), 0.0)
        live, xs, tol = np.arange(x.size), x, 1e-13 * (1.0 + av)
        for _ in range(80):
            if p < 1.0:
                g = xs**q + ev * xs - av
            else:
                g = xs + ev * xs**p - av
            keep = np.abs(g) > tol
            if not keep.all():
                # x holds the final value of every element that has left.
                x[live[~keep]] = xs[~keep]
                if not keep.any():
                    break
                keep = np.flatnonzero(keep)
                live, av, ev, tol, xs, g = (
                    v[keep] for v in (live, av, ev, tol, xs, g))
            # The step only for the elements still iterating.
            if p < 1.0:
                xs = xs - g / (q * xs ** (q - 1.0) + ev)
            else:
                xs = xs - g / (1.0 + ev * p * xs ** (p - 1.0))
        else:
            x[live] = xs
        if p < 1.0:
            x = x**q
    return x.reshape(a.shape)


def _power_log_solve(p: float, eps, a: np.ndarray) -> np.ndarray:
    # The root of s + eps s^p = a > 0 as s = a e^u: the equation divided by
    # a, in logarithms, is h(u) = log(e^u + e^(c + p u)) = 0 with
    # c = log eps + (p - 1) log a.  h is convex, h(0) >= 0, and its slope
    # 1 + (p - 1) e^(c + p u - h) lies between min(1, p) and max(1, p); so
    # Newton from u = 0 falls monotonically onto the root u <= 0, nothing
    # overflows, and s <= a.  An infinite a has no root: u is NaN there.
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.log(eps) + (p - 1.0) * np.log(a)
        u = np.where(a == np.inf, np.nan, 0.0)
        for _ in range(100):
            h = np.logaddexp(u, c + p * u)
            lower = u - h / (1.0 + (p - 1.0) * np.exp(c + p * u - h))
            if not np.any(lower < u):
                break
            u = np.fmin(lower, u)
    return a * np.exp(u)


def _power_gap(p: float, eps, a: np.ndarray, s: np.ndarray) -> np.ndarray:
    # Residual gap |s + eps s^p - a| for a, s >= 0; where that overflows,
    # a |expm1(h(log s - log a))| with h of _power_log_solve.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gap = np.abs(s + eps * s**p - a)
        over = gap == np.inf
        if over.any():
            u = np.log(s) - np.log(a)
            h = np.logaddexp(u, np.log(eps) + (p - 1.0) * np.log(a) + p * u)
            gap = np.where(over, a * np.abs(np.expm1(h)), gap)
    return gap


def _refuse(gap, r):
    # Raise where the gap at a finite argument is not within tolerance.
    miss = ~(gap <= _RESIDUAL_TOL * (1.0 + np.abs(r))) & np.isfinite(r)
    if miss.any():
        raise ResolventError(
            f"resolvent residual {float(np.max(gap[miss])):g} exceeds tolerance")


def _zhang_resolvent(eps: float, r: np.ndarray) -> np.ndarray:
    # max(r, eps) - eps is r - eps above eps and zero up to it, and cannot
    # overflow where r <= 0 is kept.
    return np.where(r <= 0, r, (np.maximum(r, eps) - eps) / (1.0 + eps))


class ResolventError(RuntimeError):
    """A power-law solve missed its tolerance in logarithms too; carries the
    worst residual.  The closed forms of the other kinds raise none."""


class MoreauYosidaValues(NamedTuple):
    """Everything the smoothing gives at one argument, from one solve."""

    resolvent: np.ndarray
    slope: np.ndarray
    slope_derivative: np.ndarray
    envelope: np.ndarray


@dataclass(frozen=True)
class MoreauYosida:
    """Resolvent, Lipschitz slope and smoothed envelope of a potential at a
    fixed smoothing parameter ``eps > 0``.

    ``eps`` may also be an array that broadcasts against the arguments, such
    as a ``(rows, 1)`` column giving each row of a batch its own level; each
    element's values are then those at its own ``eps``, bit for bit.
    """

    potential: ConvexPotential
    eps: float | np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps)
        if not np.all((0 < eps) & (eps < np.inf)):
            raise ValueError("smoothing parameter must be positive and "
                             f"finite, got {self.eps}")

    def resolvent(self, r, previous=None):
        """Unique solution s of 0 in s - r + eps * subdiff(s).

        Equals the minimizer of ``|r - s|^2 / (2 eps) + value(s)``.
        ``previous`` is an optional ``(r0, s0, d0)`` triple: an earlier
        argument of the shape of ``r``, its resolvent and its slope
        derivative.  A power kind solved by Newton (an exponent not in
        ``_CLOSED_FORMS``) then starts from its tangent at ``r0`` and agrees
        with the solve without it to the solver tolerance, and an element
        whose argument equals ``r0`` bit for bit keeps its value in ``s0``
        bit for bit.  The other kinds ignore ``previous``.

        Only the power kinds, whose solves iterate, check their residual
        and refuse a miss; the zhang and piecewise formulas are returned as
        computed.
        """
        r = np.asarray(r, dtype=float)
        pot, eps = self.potential, self.eps
        if pot.kind == "zhang":
            return _zhang_resolvent(eps, r)
        if pot.kind == "piecewise":
            return self._piecewise_resolvent(r)
        p = pot.exponent
        if previous is None or p in _CLOSED_FORMS:
            return _power_resolvent(p, eps, r)
        r0, s0, d0 = previous
        r0 = np.asarray(r0, dtype=float)
        s = _power_resolvent(p, eps, r, self._tangent(r, r0, s0, d0))
        return np.where(r.view(np.int64) == r0.view(np.int64), s0, s)

    def _tangent(self, r, r0, s0, d0):
        # Newton start at |r| on the tangent of the root at |r0|:
        # d|s|/d|r| = 1 - eps * slope derivative, and for p < 1 the Newton
        # variable y = |s|^p has dy/d|r| = slope derivative.  y equals
        # |slope| too, but (r - s) / eps loses all its digits where eps y
        # is below the roundoff of r, and a start far below the root sends
        # the sublinear Newton step far above it.
        p, eps = self.potential.exponent, self.eps
        moved = np.abs(r) - np.abs(r0)
        if p < 1.0:
            return np.abs(s0) ** p + d0 * moved
        return np.abs(s0) + (1.0 - eps * d0) * moved

    @cached_property
    def _piecewise_bands(self):
        # Band edges on the trailing axis, one row per eps.  They ascend:
        # the constructor gives left <= right at each knot, a >= 0 gives
        # right <= the next knot's left (the same piece's 2 a k + b at a
        # larger k), and rounding keeps every such order.
        knots, left, right = self.potential._knot_slopes
        lows = knots + np.multiply.outer(self.eps, left)
        highs = knots + np.multiply.outer(self.eps, right)
        return np.stack([lows, highs], axis=-1).reshape(
            lows.shape[:-1] + (-1,))

    def _band_index(self, r: np.ndarray) -> np.ndarray:
        # Number of band edges at or below r, searchsorted(side="right")
        # for each row's own edges.
        return (r[..., None] >= self._piecewise_bands).sum(-1)

    def _piecewise_resolvent(self, r: np.ndarray) -> np.ndarray:
        pot, eps = self.potential, self.eps
        idx = self._band_index(r)
        on_knot = idx % 2 == 1
        piece = np.asarray(pot.pieces)[idx // 2]
        s = (r - eps * piece[..., 1]) / (1.0 + 2.0 * eps * piece[..., 0])
        # At a band edge the formula can round past its piece's knot, where
        # the subgradient is the neighbouring piece's: clip to the piece.
        ends = np.concatenate([[-np.inf], pot.knots, [np.inf]])
        s = np.minimum(np.maximum(s, ends[idx // 2]), ends[idx // 2 + 1])
        # Odd band indices sit on knot idx // 2; the padding keeps the
        # unused even indices (idx // 2 up to the knot count) in range.
        return np.where(on_knot, ends[1:][idx // 2], s)

    def evaluate(self, r, previous=None) -> MoreauYosidaValues:
        """Resolvent, slope, slope derivative and envelope from one
        resolvent solve, with ``previous`` as in ``resolvent``.  Without
        ``previous`` each equals the matching method bit for bit."""
        r = np.asarray(r, dtype=float)
        s = self.resolvent(r, previous)
        pot, eps = self.potential, self.eps
        # The slope derivative: power kinds differentiate through the
        # resolvent point; the zhang and piecewise formulas read r alone.
        if pot.kind in ("fast_diffusion", "porous_medium"):
            # p |s|^(p - 1) from the slope's |s|^p, with |s| and |s|^p taken
            # once for the slope, its derivative and the envelope.
            p, a = pot.exponent, np.abs(s)
            power = a**p
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                t = p * (power / a)
                derivative = t / (1.0 + eps * t)
                finite = np.isfinite(t)
                if not finite.all():
                    # Beyond the float range t / (1 + eps t) is 1 / eps; at
                    # s = 0, 1 / eps for p < 1 and 0 for p > 1.
                    derivative = np.where(finite, derivative, np.where(
                        (a > 0) | (p < 1.0), 1.0 / eps, 0.0))
            slope, product = self._slope(r, s, power), a * power
            # No part outlives its use into the envelope's temporaries.
            del a, power, t, finite
        else:
            slope, product = self._slope(r, s), None
            if pot.kind == "zhang":
                derivative = np.where(r <= 0, 0.0, np.where(
                    r <= eps, 1.0 / eps, 1.0 / (1.0 + eps)))
            else:
                idx = self._band_index(r)
                t = 2.0 * np.asarray(pot.pieces)[idx // 2][..., 0]
                derivative = np.where(idx % 2 == 1, 1.0 / eps,
                                      t / (1.0 + eps * t))
        return MoreauYosidaValues(s, slope, derivative,
                                  self._envelope(r, s, product))

    def _slope(self, r, s, power=None):
        # A power kind's slope is sign(s) |s|^p, which the root satisfies;
        # (r - s) / eps loses its digits where eps |s|^p is below the
        # roundoff of r.  ``power`` is |s|^p where the caller has it.
        p = self.potential.exponent
        if self.potential.kind in ("fast_diffusion", "porous_medium"):
            return np.sign(s) * (np.abs(s) ** p if power is None else power)
        return (r - s) / self.eps

    def _envelope(self, r, s, product=None):
        # Transport cost plus the potential at s; a power kind's value
        # |s|^(p + 1) / (p + 1) is taken as |s| |s|^p / (p + 1), with
        # ``product`` = |s| |s|^p where the caller has it.
        pot = self.potential
        if pot.kind in ("fast_diffusion", "porous_medium"):
            if product is None:
                product = np.abs(s) * np.abs(s) ** pot.exponent
            value = product / (pot.exponent + 1.0)
        else:
            value = pot.value(s)
        return (r - s) ** 2 / (2.0 * self.eps) + value

    def yosida(self, r):
        """Single-valued Lipschitz slope, ``(r - resolvent(r)) / eps`` in
        exact arithmetic; its value lies in the subdifferential at the
        resolvent point."""
        r = np.asarray(r, dtype=float)
        return self._slope(r, self.resolvent(r))

    def envelope(self, r):
        """Smoothed potential: quadratic transport cost to the resolvent
        point plus the potential there.  Bounded between the potential at
        the resolvent point and the potential itself."""
        r = np.asarray(r, dtype=float)
        return self._envelope(r, self.resolvent(r))

    def yosida_slope(self, r):
        """Almost-everywhere derivative of the Lipschitz slope, the Newton
        Jacobian of the implicit time stepper; bounded by ``1/eps``.  It is
        ``evaluate``'s slope derivative."""
        return self.evaluate(r).slope_derivative


# -- paired-smoothing comparison -------------------------------------------


@dataclass(frozen=True)
class CrossMonotonicityDefect:
    """Slack of the two lower bounds for the product
    ``(slope_1(r) - slope_2(r')) (r - r')`` across two smoothing levels."""

    product: float
    slope_bound: float
    growth_bound: float | None
    slack_slope: float
    slack_growth: float | None
    scale: float


def cross_monotonicity_defect(potential: ConvexPotential,
                              eps_one: float, eps_two: float,
                              r: float, r_prime: float) -> CrossMonotonicityDefect:
    """Evaluate both lower bounds for mixed-smoothing monotonicity.

    The first bound uses the squared smoothed slopes; the second, available
    whenever the potential carries a linear minimal-section bound, replaces
    them with the squared states plus one, with the constant folded from
    that bound.
    """
    a = MoreauYosida(potential, eps_one)
    b = MoreauYosida(potential, eps_two)
    ya = float(a.yosida(r))
    yb = float(b.yosida(r_prime))
    product = (ya - yb) * (r - r_prime)
    bound = -0.5 * (eps_one + eps_two) * (ya**2 + yb**2)
    scale = 1.0 + abs(product) + abs(bound)
    if potential.slope_bound is None:
        growth = None
        slack_growth = None
    else:
        c = 2.0 * potential.slope_bound**2
        growth = -c * (eps_one + eps_two) * (r**2 + r_prime**2 + 1.0)
        slack_growth = product - growth
    return CrossMonotonicityDefect(
        product=product,
        slope_bound=bound,
        growth_bound=growth,
        slack_slope=product - bound,
        slack_growth=slack_growth,
        scale=scale,
    )


# -- assumption checking ------------------------------------------------------


def check_assumptions(potential: ConvexPotential) -> list[CheckResult]:
    """Check the structural requirements of a potential from its parameters.

    Checks nonnegativity with value zero at the origin, convexity, monotone
    growth of ``value(r)/|r|`` on a coarse geometric ladder, the linear
    minimal-section bound, and monotonicity of the subdifferential graph.
    Every margin but the ladder's is exact: the least of its quantity over
    the points where that quantity can be least.  Nothing is raised;
    failures are reported.
    """
    kind, convexity = potential.kind, 0.0
    points = knots = np.array([0.0] if kind == "zhang" else [])
    if kind == "piecewise":
        # The value is least, and so is 2 a r + b in magnitude, at a piece's
        # vertex, clipped to the piece, or at its ends; a linear piece's
        # stand-in vertex 0 is clipped to its end nearest 0.
        knots = np.asarray(potential.knots)
        a, b, _ = np.asarray(potential.pieces).T
        ends = np.concatenate([[-np.inf], knots, [np.inf]])
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.where(a > 0, -b / (2.0 * a), 0.0)
        points = np.clip(vertex, ends[:-1], ends[1:])
        convexity = float(a.min())
    elif kind == "fast_diffusion":
        # 1 + |r| - |r|^p is least where p |r|^(p - 1) = 1.
        p = potential.exponent
        points = np.array([p ** (1.0 / (1.0 - p))])

    least = float(potential.value(np.concatenate(
        [[-np.inf, 0.0, np.inf], knots, points])).min())
    zero = float(potential.value(0.0))
    checks = [
        CheckResult("nonnegative_with_zero_at_origin",
                    least >= -1e-12 and abs(zero) <= 1e-12,
                    min(least, -abs(zero))),
        CheckResult("convexity", convexity >= -1e-12, convexity),
    ]

    # Growth of value(r)/|r| on a geometric ladder.  The ratios must never
    # decrease and must grow on at least one side (one-sided potentials are
    # flat on the other).
    ladder = np.array([1e2, 1e3, 1e4])
    ratios_pos = potential.value(ladder) / ladder
    ratios_neg = potential.value(-ladder) / ladder
    monotone = float(min(np.diff(ratios_pos).min(), np.diff(ratios_neg).min()))
    grows = max(ratios_pos[-1] - ratios_pos[0], ratios_neg[-1] - ratios_neg[0])
    ok = monotone >= -1e-12 and grows > 0
    checks.append(CheckResult(
        "superlinear_growth_on_ladder", ok,
        monotone if monotone < 0 else float(grows),
        detail="ladder evidence of a declared property",
    ))

    lo, hi = potential.subdiff(knots)
    c = potential.slope_bound
    if c is None:
        checks.append(CheckResult(
            "linear_minimal_section_bound", False, -np.inf,
            detail="no linear bound exists for this kind",
        ))
    else:
        # Within a piece C (|r| + 1) - |2 a r + b| is linear but at 0 and
        # the vertex, and does not fall towards +-inf; next to a knot it
        # reaches down to C (|k| + 1) less the larger one-sided slope,
        # which is no more than its value at the knot.
        at = np.concatenate([[0.0], points])
        slack = min(
            float((c * (np.abs(at) + 1.0) - potential.minimal_section(at))
                  .min()),
            float((c * (np.abs(knots) + 1.0)
                   - np.maximum(np.abs(lo), np.abs(hi))).min(initial=np.inf)))
        checks.append(CheckResult(
            "linear_minimal_section_bound", slack >= -1e-12, slack,
            detail=f"certified constant {c:g}",
        ))

    # Within a piece the slope 2 a r + b does not drop; at a knot it jumps.
    jump = float((hi - lo).min()) if knots.size else 0.0
    checks.append(CheckResult("monotone_subdifferential", jump >= -1e-12, jump))
    return checks

"""Reference formulas that only the tests use, kept apart from the package."""

import numpy as np


def breakpoints(potential) -> np.ndarray:
    """Points where the slope of ``potential`` jumps, excluded from
    smoothness-based checks."""
    if potential.kind == "piecewise":
        return np.asarray(potential.knots, dtype=float)
    return np.array([0.0])


def gap_bound_pointwise(functional, eps: float, v) -> np.ndarray:
    """Integrated bound ``eps * minimal_section**2`` for the smoothing gap
    of an ``EnergyFunctional``."""
    return (eps * functional.potential.minimal_section(v) ** 2
            @ functional.space.measure)


def gap_bound_folded(functional, eps: float, v) -> np.ndarray:
    """State-size form of the gap bound with the linear-slope constant
    folded in; the potential must have a ``slope_bound``."""
    space = functional.space
    c = functional.potential.slope_bound
    l2sq = space.lp_norm(np.asarray(v, dtype=float), 2) ** 2
    return 2.0 * c**2 * eps * (l2sq + space.total_mass)

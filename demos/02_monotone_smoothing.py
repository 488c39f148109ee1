"""Convex potentials and their Moreau-Yosida smoothing.

Shows the built-in potential kinds, the exact resolvent branches of the
sandpile potential, the envelope sandwich, the Lipschitz slope, and the
assumption report that flags the superlinear-slope kind.

Run from the repository root:  python demos/02_monotone_smoothing.py
"""

import numpy as np

from graphspde import (
    MoreauYosida,
    check_assumptions,
    cross_monotonicity_defect,
    fast_diffusion,
    porous_medium,
    zhang,
)


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


banner("the sandpile potential and its resolvent branches")
pot = zhang()
my = MoreauYosida(pot, eps=0.5)
for r in (-2.0, 0.25, 2.0):
    s = float(my.resolvent(r))
    print(f"input {r:5.2f}: resolvent {s:7.4f}, slope {float(my.yosida(r)):7.4f}, "
          f"envelope {float(my.envelope(r)):7.4f}")
lo, hi = pot.subdiff(0.0)
print(f"subdifferential interval at the origin: [{float(lo)}, {float(hi)}]")

banner("envelope sandwich for the singular-slope kind")
fd = fast_diffusion(0.5)
my = MoreauYosida(fd, eps=1.0)
r = 2.0
print(f"value at resolvent point {fd.value(my.resolvent(r)):.6f}"
      f" <= envelope {float(my.envelope(r)):.6f}"
      f" <= value {float(fd.value(r)):.6f}")

banner("Lipschitz bound of the smoothed slope")
rng = np.random.default_rng(2)
a, b = rng.uniform(-10, 10, size=(2, 5))
for eps in (0.1, 0.5):
    my = MoreauYosida(fd, eps)
    ratio = np.abs(my.yosida(a) - my.yosida(b)) / np.abs(a - b)
    print(f"eps {eps}: worst slope ratio {ratio.max():.4f}"
          f" (bound {1 / eps:.1f})")

banner("mixed-smoothing monotonicity defect")
d = cross_monotonicity_defect(zhang(), 0.5, 0.1, 2.0, -1.0)
print("product:", d.product)
print("slope-based lower bound:", d.slope_bound, "slack:", d.slack_slope)
print("growth-based lower bound:", d.growth_bound, "slack:", d.slack_growth)

banner("assumption reports")
for p in (fast_diffusion(0.5), zhang(), porous_medium(2.0)):
    print(f"potential kind = {p.kind}")
    for c in check_assumptions(p):
        status = "pass" if c.passed else "FAIL"
        print(f"  [{status}] {c.name}: margin = {c.margin:.6g}"
              + (f" ({c.detail})" if c.detail else ""))
print("note: the superlinear-slope kind fails the linear minimal-section "
      "bound by design;\nestimate experiments that rely on that bound "
      "refuse it.")

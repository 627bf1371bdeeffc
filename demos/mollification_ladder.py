"""Mollifying irregular coefficients and the two convergence regimes.

Smooth data loses O(eps^2) under convolution, a sign-discontinuous drift
loses O(sqrt(eps)) in L^2; with finitely many actions the regularized value
functions converge back to the true value as eps goes to zero, while the
diagonal-drift counterexample keeps a finite gap no matter how small eps is
(see counterexample_gap.py for that side).
"""

import numpy as np

from hjblab import MollifierKernel, build_grid, kernel_normalization_error
from hjblab.coefficients import ActionSet, make_smooth_baseline, make_step_drift
from hjblab.experiments import mollify_value_sweep
from hjblab.mollify import coefficient_ladder

grid = build_grid("torus", 1, (-1.0, 1.0), 64, 1.0, 128)

print("kernel normalization error by eps:")
for eps in (0.4, 0.2, 0.1):
    print(f"  eps={eps}: {kernel_normalization_error(MollifierKernel(eps, dim=1)):.2e}")

print("\ncoefficient L2 distances ||g_eps - g|| along the ladder:")
for label, oracle in (
    ("smooth ", make_smooth_baseline(grid)),
    ("step   ", make_step_drift(grid, c=1.0)),
):
    ladder = coefficient_ladder(oracle, 1.0, grid, [0.4, 0.2, 0.1])
    d = ladder.distances()
    ratios = " ".join(f"{a / b:4.2f}" for a, b in zip(d, d[1:]))
    print(f"  {label}: " + "  ".join(f"{x:.5f}" for x in d) + f"   halving ratios {ratios}")
print("  (smooth data halves at ~4x per rung, the jump only at ~sqrt 2)")

actions = ActionSet(np.array([-1.0, 1.0]))
sweep = mollify_value_sweep(make_step_drift(grid, c=1.0), actions, grid,
                            [0.4, 0.2, 0.1], scheme="upwind",
                            scenario="step_drift")
print("\nvalue-function sweep for the two-action step drift:")
print("eps    sup|V_eps - V| (interior)   min gap     liminf tol")
for rung in sweep.resolved_rungs():
    print(f"{rung.epsilon:4.2f}   {rung.sup_gap_interior:12.5f}           "
          f"{rung.min_gap_interior:+.5f}   {sweep.liminf_tol[rung.epsilon]:.4f}")
print("\nthe sweep's checks, as hjblab mollify-sweep records them:")
for name, passed, detail in sweep.checks():
    print(f"  [{'PASS' if passed else 'FAIL'}] {name} {detail}".rstrip())

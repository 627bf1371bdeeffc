"""Verification theorem and optimality principle, checked by simulation.

The PDE value u must lower-bound the simulated cost of every control, the
exact-argmin feedback must attain it, and the intermediate-time consistency
identity must hold along the optimal feedback while failing one-sidedly for
a deliberately bad control.
"""

import numpy as np

from hjblab import SimConfig, build_grid, solve_hjb_direct
from hjblab.coefficients import bang_bang_actions, make_bang_bang
from hjblab.experiments import dpp_battery, verification_check
from hjblab.montecarlo import FeedbackRule, GridPolicyControl, constant_control

grid = build_grid("torus", 1, (-1.0, 1.0), 64, 1.0, 128)
oracle = make_bang_bang(grid)
actions = bang_bang_actions()
u = solve_hjb_direct(oracle, actions, grid, scheme="central")

sim = SimConfig(n_paths=20_000, dt_sim=2e-3, seed=42, start_state=(0.5,))
candidates = [
    ("const -1", constant_control(-1.0)),
    ("const +1", constant_control(1.0)),
    ("away from origin", FeedbackRule(lambda t, X: np.where(X[:, 0] >= 0, 1.0, -1.0),
                                      name="away")),
]
report = verification_check(u, oracle, sim, candidates)
print(f"u(0, 0.5) from the PDE: {report.u_start:.4f}\n")
print("control              J simulated     margin over u - 3SE - tol   ok")
for row in report.rows:
    print(f"{row.control:18s}  {row.j_mean:8.4f} +- {row.j_se:.4f}   "
          f"{row.margin:+10.4f}              {row.passed}")

dpp = dpp_battery(u, oracle, GridPolicyControl(u.policy, name="argmin"), sim,
                  [0.25, 0.5, 0.75],
                  suboptimal_controls=[("const +1", constant_control(1.0))])
print("\nintermediate-time residual E[cost to t + u(t, X_t)] - u(s, x):")
print("t     control     residual      3 SE      verdict")
for row in dpp.rows:
    verdict = "consistent" if row.expect == "zero" else "strictly above"
    print(f"{row.t_mid:4.2f}  {row.control:9s}  {row.residual:+9.4f}  {3 * row.se:8.4f}"
          f"  {verdict if row.passed else 'FAILED'}")

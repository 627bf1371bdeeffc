"""Policy iteration against the direct nonlinear marcher.

Both routes compute the same discrete value of the bang-bang problem
(drift = action in {-1, +1}, quadratic cost on a periodic domain); policy
iteration descends monotonically after the first sweep and the two answers
agree to solver tolerance, which is the computational face of uniqueness.
"""

import numpy as np

from hjblab import build_grid, policy_iteration, solve_hjb_direct, solve_policy_value
from hjblab.coefficients import bang_bang_actions, make_bang_bang
from hjblab.hamiltonian import constant_policy

grid = build_grid("torus", 1, (-1.0, 1.0), 64, 1.0, 128)
oracle = make_bang_bang(grid)
actions = bang_bang_actions()
scheme = "central"

u_pi, policy, trace = policy_iteration(oracle, actions, grid, scheme=scheme, tol=1e-8)
u_direct = solve_hjb_direct(oracle, actions, grid, scheme=scheme)

print("k   sup change     policy changes   residual")
for k in range(trace.iterations):
    print(f"{k + 1}  {trace.sup_changes[k]:12.3e}  {trace.policy_changes[k]:14d}"
          f"  {trace.residuals[k]:10.2e}")
print(f"\nconverged: {trace.converged} in {trace.iterations} iterations")
print(f"sup |policy iteration - direct solve| = {np.max(np.abs(u_pi.values - u_direct.values)):.2e}")
print(f"worst ascent after the first sweep    = {max(trace.max_pos_diffs[1:]):.2e}")

# the converged value sits below the cost of any frozen policy
for idx, label in ((0, "a = -1"), (1, "a = +1")):
    u_frozen = solve_policy_value(oracle, constant_policy(grid, actions, idx), grid,
                                  scheme=scheme)
    print(f"max(u* - u[{label}]) = {np.max(u_pi.values - u_frozen.values):+.2e}  (<= 0)")

# the optimal feedback drives toward the cheap point: -sign(x)
mid = grid.nt // 2
signs = np.sign(grid.space_axis(0))
chosen = actions.values[policy.indices[mid]]
interior = np.abs(np.abs(grid.space_axis(0)) - 1.0) > 0.1
frac = np.mean(chosen[interior] == -signs[interior])
print(f"\nfraction of interior nodes steering toward the origin at t = T/2: {frac:.3f}")

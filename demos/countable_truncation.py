"""Countable action sets and the double limit that rescues mollification.

Truncating a countable action family to its first N elements can only shrink
the feasible set, so the truncated values decrease pointwise in N; for each
fixed prefix the mollified values converge back as eps shrinks; and for a
fixed open-loop control the regularized simulated costs approach the raw
ones.  Together these are the mechanism that makes smoothing reliable when
the action set is countable, in contrast with the diagonal-drift example.
"""

from hjblab import SimConfig, build_grid
from hjblab.coefficients import bang_bang_family, make_bang_bang
from hjblab.experiments import countable_truncation_study

grid = build_grid("torus", 1, (-1.0, 1.0), 64, 1.0, 128)
oracle = make_bang_bang(grid)
sim = SimConfig(n_paths=20_000, dt_sim=2e-3, seed=17, start_state=(0.5,))

report = countable_truncation_study(
    oracle, bang_bang_family(), [1, 2], grid,
    sim=sim, eps_list=[0.2, 0.1], scheme="central",
)

print("value monotonicity across prefixes (max of V^{N+1} - V^N must be <= 0):")
for label, change in report.value_table.items():
    print(f"  A^{label}: max violation {change['max_violation']:+.2e}, "
          f"largest strict improvement {change['min_decrement']:+.4f}")

print("\nper-prefix mollification gaps sup|V_eps^N - V^N| on the interior:")
print("N   eps    gap")
for N, eps, gap in report.eps_table:
    print(f"{N}   {eps:4.2f}  {gap:.5f}")

print("\nopen-loop control fixed at the first action, shared noise across eps:")
print("eps    |J_eps - J|      SE")
for eps, gap, se in report.open_loop_rows:
    print(f"{eps:4.2f}   {gap:.5f}      {se:.5f}")

print("\nthe report's checks, as hjblab truncation-study records them:")
for name, passed, detail in report.checks():
    print(f"  [{'PASS' if passed else 'FAIL'}] {name} {detail}".rstrip())

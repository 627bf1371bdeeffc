"""Two independent routes to the value function.

Route one is policy iteration: freeze the exact-argmin policy of the current
iterate's gradient, solve the linear backward problem, repeat.  Route two is
a direct nonlinear backward march: within each time step the Hamiltonian
minimization and the implicit solve are alternated until the per-step policy
stabilizes.  Both use the same one-step linear algebra and the same argmin
convention, so at convergence they solve the same discrete fixed-point
problem and serve as each other's oracle.  On a box both march zero
Dirichlet data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .coefficients import sample_all
from .grids import TORUS, UPWIND, SpaceTimeField, write_csv
from .hamiltonian import Policy, argmin_level
from .parabolic import _implicit_bands, _inner, _step, pde_residual, solve_frozen
from .tridiag import solve_lines

MAX_ITERS = 200  # policy-iteration iterations before it stops unconverged
MAX_SWEEPS = 5  # inner policy-freeze sweeps per time step of the direct marcher
TABLE_ENTRIES = 1 << 14  # band and cost entries per table it assembles, so that tables stay small


@dataclass
class IterationTrace:
    """Per-iteration diagnostics of policy iteration."""

    sup_changes: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    policy_changes: list = field(default_factory=list)
    max_pos_diffs: list = field(default_factory=list)      # max (u^k - u^{k-1})^+
    converged: bool = False
    iterations: int = 0

    def to_csv(self, path_or_buf):
        write_csv(path_or_buf,
                  ["k", "sup_change", "max_ascent", "residual", "policy_changes"],
                  zip(range(1, self.iterations + 1), self.sup_changes,
                      self.max_pos_diffs, self.residuals, self.policy_changes))


def _select_fields(B, F, indices):
    """A policy's selection (indices, bsel, fsel): B (n_a, levels, ..., dim) -> bsel (levels,
    ..., dim) and F likewise, by one flat gather of row ``indices[m] * nodes + m`` at node m."""
    rows = indices.reshape(-1) * indices.size
    rows += np.arange(indices.size)
    bsel = np.take(B.reshape(-1, B.shape[-1]), rows, axis=0).reshape(indices.shape + B.shape[-1:])
    return indices, bsel, np.take(F.reshape(-1), rows).reshape(indices.shape)


def policy_iteration(oracle, action_set, grid, scheme=UPWIND, tol=1e-8):
    """Howard-type iteration: exact-argmin policy, then frozen linear solve.

    Starts from u^0 = 0; the argmin is exact, so no slack schedule enters.
    A policy that repeats the last one is not solved again (its solve would
    return the iterate bit for bit).  Stops when the sup-norm change drops
    below ``tol`` and the policy is unchanged on at least 99.9 percent of
    nodes, or at ``MAX_ITERS`` (the best iterate is then returned with the
    trace flagged, not an error).
    """
    B, F = sample_all(oracle, grid, action_set)

    u = np.zeros((grid.n_levels,) + grid.space_shape)
    trace = IterationTrace()
    n_nodes = u.size
    prev_indices = None
    # each iterate's residual takes the argmin, and the fields, the next iteration freezes
    selection = _select_fields(B, F, argmin_level(B, F, u, grid, scheme)[0])

    for k in range(1, MAX_ITERS + 1):
        indices, bsel, fsel = selection
        changed = n_nodes if prev_indices is None else int(np.sum(indices != prev_indices))
        if changed:  # a repeated policy solves to u bit for bit: u, residual and selection stand
            u_new = solve_frozen(bsel, fsel, grid, scheme=scheme).values
            diff, u = u_new - u, u_new
            residual, selection = hjb_residual(u, B, F, grid, scheme)
        else:
            diff = np.zeros(1)
        sup_change = float(np.max(np.abs(diff)))
        trace.sup_changes.append(sup_change)
        trace.max_pos_diffs.append(float(np.max(np.maximum(diff, 0.0))))
        trace.policy_changes.append(changed)
        trace.residuals.append(residual)

        prev_indices = indices
        trace.iterations = k
        if sup_change < tol and changed <= 1e-3 * n_nodes:
            trace.converged = True
            break

    return SpaceTimeField(grid, u), Policy(grid, indices, action_set), trace


def policy_iteration_checks(u_pi, u_direct, trace, tol):
    """sup |u_pi - u_direct|, the worst ascent after the first iterate, and
    policy iteration's checks (name, passed, detail): converged, agreement
    with the direct march within 10 ``tol``, monotone descent to 1e-10."""
    sup = float(np.max(np.abs(u_pi.values - u_direct.values)))
    ascent = max(trace.max_pos_diffs[1:], default=0.0)
    return sup, ascent, [("converged", trace.converged, f"{trace.iterations} iterations"),
                         ("oracle_agreement", sup <= 10 * tol, f"sup diff {sup:.3e}"),
                         ("monotone_descent", ascent <= 1e-10, f"worst ascent {ascent:.2e}")]


def solve_policy_value(oracle, policy, grid, scheme=UPWIND):
    """Frozen value under an arbitrary fixed grid policy (u^alpha of the theory)."""
    B, F = sample_all(oracle, grid, policy.action_set)
    return solve_frozen(*_select_fields(B, F, policy.indices)[1:], grid, scheme=scheme)


def solve_hjb_direct(oracle, action_set, grid, scheme=UPWIND):
    """Nonlinear backward march with per-step policy-freeze sweeps.

    Diffusion (and the frozen advection) is implicit; the minimization is
    explicit at the current step's gradient and is tightened by at most
    ``MAX_SWEEPS`` inner sweeps, until the argmin indices repeat.  Steps whose
    policy keeps chattering are flagged in the output metadata, the value is
    still returned.
    """
    B, F = sample_all(oracle, grid, action_set)
    return solve_hjb_tables(B, F, grid, scheme, action_set=action_set)


def solve_hjb_tables(B, F, grid, scheme=UPWIND, action_set=None):
    """Direct HJB march on pre-sampled per-action coefficient tables.

    ``B`` has shape (n_actions, levels, ..., dim) and ``F`` (n_actions,
    levels, ...); this is ``solve_hjb_batch`` on a batch of one.  The
    result's ``policy`` holds the argmin indices, or None without an
    ``action_set``.
    """
    return solve_hjb_batch(B[:, None], F[:, None], grid, scheme, action_set)[0]


def solve_hjb_batch(B, F, grid, scheme=UPWIND, action_set=None):
    """Direct HJB marches of R problems on one grid in one backward loop.

    ``B`` has shape (n_actions, R, levels, ..., dim) and ``F`` (n_actions,
    R, levels, ...).  A sweep solves the problems whose policy has not yet
    repeated at its step: one band gather and one stacked ``dgtsv`` call per
    axis, and one argmin call, for all of them.  So each problem keeps its
    own policy, sweep count and flagged steps, and its field is bit for bit
    its own march.  Returns one value field per problem, its flagged steps
    in ``meta`` and its argmin indices as ``policy`` (None without an
    ``action_set``).
    """
    periodic, inside = grid.domain_kind == TORUS, _inner(grid)
    R, spaces = B.shape[1], (slice(None),) + inside
    inner = (slice(None),) * 2 + spaces
    u = np.zeros((R, grid.n_levels) + grid.space_shape)
    size = u[0, 0][inside].size
    # per axis k, the places of the band layout, whose lines run along the last axis, behind a
    # batch axis of length 1: the index sums add arrays of one rank, which numpy does fastest
    lines = [np.arange(size).reshape((1,) + u[0, 0][inside].swapaxes(k, -1).shape)
             for k in range(grid.dim)]
    indices, flagged = np.zeros(u.shape, dtype=np.int64), [[] for _ in range(R)]
    chunk = max(1, TABLE_ENTRIES // (B.shape[0] * R * size * (3 * grid.dim + 1)))
    lo, every = grid.nt, np.arange(R)
    # the argmin at u[n + 1] of level n (its first sweep) and of n + 1 (its check)
    found = argmin_level(B[:, :, -2:], F[:, :, -2:], u[:, -1:], grid, scheme)[0]
    first, idx = found[:, 0].copy(), np.empty_like(found[:, 0])
    indices[:, -1] = found[:, -1]
    for n in range(grid.nt - 1, -1, -1):
        if n < lo:
            # every problem's and action's bands and cost at levels lo..n, flat: a sweep gathers
            # the chosen action's at ((action * R + problem) * levels + level - lo) * size + place
            lo, levels = max(0, n + 1 - chunk), min(n + 1, chunk)
            tables = [m.reshape(3, -1)
                      for m in _implicit_bands(B[:, :, lo:n + 1][inner], grid, scheme)]
            costs = F[:, :, lo:n + 1][inner].reshape(-1)
            stride = R * levels * size
            starts = (every * levels * size).reshape((-1,) + (1,) * grid.dim)
        # idx takes the level's first policies and the other buffer collects the next level's;
        # live: the problems whose policy has not repeated at this step
        offsets, (idx, first), live = starts + (n - lo) * size, (first, idx), every
        for sweep in range(1, MAX_SWEEPS + 1):
            sel = live if live.size < R else slice(None)  # a slice takes no copies
            cols = idx[sel][spaces] * stride + offsets[sel]
            solves = [partial(solve_lines, table.take(cols.swapaxes(k - grid.dim, -1) + lines[k],
                                                      axis=1), periodic=periodic)
                      for k, table in enumerate(tables)]
            u[(sel, n) + inside] = _step(u[sel, n + 1][spaces]
                                         + grid.dt * costs.take(cols + lines[-1]), solves)
            found = argmin_level(B[:, sel, max(n - 1, 0):n + 1], F[:, sel, max(n - 1, 0):n + 1],
                                 u[sel, n:n + 1], grid, scheme)[0]
            first[sel] = found[:, 0]
            same = found[:, -1] == idx[sel]
            if sweep == MAX_SWEEPS or same.all():
                break
            idx[sel] = found[:, -1]  # a repeated policy is its own update
            if live.size > 1:  # the problems whose policy repeated leave the sweeps
                live = live[~same.reshape(live.size, -1).all(axis=1)]
        if sweep == MAX_SWEEPS:  # the policy had not repeated before the last sweep
            for r in live:
                flagged[r].append(n)
        indices[:, n] = idx

    return [SpaceTimeField(grid, u[r], meta={"inner_flagged_steps": flagged[r]},
                           policy=None if action_set is None else Policy(grid, indices[r], action_set))
            for r in range(R)]


def inner_sweeps_check(n_flagged):
    """The direct marcher's check: no step flagged for unsettled inner sweeps."""
    return "inner_sweeps_converged", n_flagged == 0, f"{n_flagged} flagged steps"


def hjb_residual(U, B, F, grid, scheme=UPWIND):
    """Sup-norm discrete HJB residual over interior nodes, solver stencils,
    and the selection it takes: (residual, (indices, bsel, fsel)).

    The exact-argmin policy of the gradient of the value array ``U`` selects
    the coefficients ``bsel``, ``fsel`` from the per-action tables ``B``
    (n_actions, levels, ..., dim) and ``F`` (n_actions, levels, ...), and
    ``pde_residual`` takes the solver's own step with them; solver output
    therefore has residual at roundoff scale (but for flagged steps).  Box
    edge nodes are left out, so no edge data enters.
    """
    selection = _select_fields(B, F, argmin_level(B, F, U, grid, scheme)[0])
    return float(np.max(np.abs(pde_residual(U, *selection[1:], grid, scheme)))), selection

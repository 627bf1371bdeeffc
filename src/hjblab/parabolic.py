"""Backward linear parabolic solver: d_s u + Lap u + b . grad u + f = 0, u(T) = 0.

Implicit Euler in time, upwind (default) or central advection in space: a step
from level n+1 to level n solves u[n] against u[n+1] + dt f[n] with the
implicit operator (I - dt L_x)(I - dt L_y), one factor per axis
(``_step_operator``, which the residuals and the Dirichlet lift apply to all
levels in one call).  The one band layout, which ``tridiag`` reads, holds axis
k's (lower, diag, upper) rows in a C-contiguous (3, ..., n_k) array, its lines
along the last axis.  A solve assembles every level's bands in one array
operation and factors them with one pivoting LAPACK call per axis (central
advection at large b dx stays stable; an exactly singular line raises), so a
step is one ``dgttrs`` call per axis (``tridiag.LevelFactors``).  A box line
holds zero on its edges; ``solve_frozen`` alone takes Dirichlet data, and lifts
it.  Upwind steps are M-matrices for any dt, dx and bounded drift, checked once
per solve, so the discrete comparison principle is a theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tridiag
from .grids import BOX, CENTRAL, TORUS, UPWIND, GridError, SpaceTimeField

MIN_NODES = {TORUS: 3, BOX: 4}  # per axis: a box line needs two unknowns inside


class SchemeError(RuntimeError):
    pass


def _axis_L_coeffs(B, k, grid, advection):
    """The (lower, diag, upper) rows of L_k = d_kk + b_k d_k over the drift
    array ``B`` (..., space..., dim), in the band layout.  ``advection`` is the
    scheme, UPWIND or CENTRAL; any other raises SchemeError."""
    if advection not in (UPWIND, CENTRAL):
        raise SchemeError(f"unknown advection {advection!r}")
    beta, h = B[..., k].swapaxes(k - grid.dim, -1), grid.dx[k]
    inv_h2 = 1.0 / (h * h)
    L = np.empty((3,) + beta.shape)
    if advection == UPWIND:
        bp = np.maximum(beta, 0.0)
        bm = np.minimum(beta, 0.0)
        np.subtract(inv_h2, bm / h, out=L[0])
        np.add(inv_h2, bp / h, out=L[2])
        np.subtract(-2.0 * inv_h2, (bp - bm) / h, out=L[1])
    else:
        np.subtract(inv_h2, beta / (2.0 * h), out=L[0])
        np.add(inv_h2, beta / (2.0 * h), out=L[2])
        L[1] = -2.0 * inv_h2
    return L


def _implicit_bands(B, grid, scheme):
    """Per axis k, the rows of M = I - dt L_k over the drift table ``B`` in
    the band layout: every level (and action) in one array operation, with
    one M-matrix check per axis."""
    least = MIN_NODES[grid.domain_kind]
    if min(grid.nx) < least:
        raise SchemeError(f"{grid.domain_kind} line solves need at least {least} nodes "
                          f"per axis, got {min(grid.nx)}")
    bands = []
    for k in range(grid.dim):
        M = _axis_L_coeffs(B, k, grid, scheme)
        M *= -grid.dt  # -dt L; the diagonal's 1 + (-dt L) is 1 - dt L bit for bit
        M[1] += 1.0
        if scheme == UPWIND and not (np.all(M[0::2] <= 1e-14) and np.all(M[1] > 0)):
            raise SchemeError("monotone scheme assembly produced a non-M-matrix")
        bands.append(M)
    return bands


def _apply_L_axis(u, B, grid, advection, k):
    """L_k u along space axis k over any leading (level) axes of ``u`` and the
    drift array ``B``; wraps on the torus, one-sided garbage at box edges
    (callers restrict to interior rows on the box)."""
    lo, di, up = _axis_L_coeffs(B, k, grid, advection)
    v = u.swapaxes(k - grid.dim, -1)
    vm = np.empty(np.broadcast_shapes(v.shape, lo.shape))
    vp = np.empty_like(vm)
    vm[..., 1:] = v[..., :-1]
    vp[..., :-1] = v[..., 1:]
    periodic = grid.domain_kind == TORUS
    vm[..., 0] = v[..., -1 if periodic else 0]
    vp[..., -1] = v[..., 0 if periodic else -1]
    # lo vm + di v + up vp, summed in that order, in place
    vm *= lo
    di *= v
    vm += di
    vp *= up
    vm += vp
    return vm.swapaxes(-1, k - grid.dim)


def _inner(grid):
    """Slices of the nodes a line solve determines: every node of a torus,
    the interior block ``[1:-1]`` on every axis of a box."""
    return (slice(None) if grid.domain_kind == TORUS else slice(1, -1),) * grid.dim


def _step(rhs, solves):
    """One backward step: solve (I - dt L_x)(I - dt L_y) u = ``rhs`` on the
    ``_inner`` nodes, ``solves`` holding per axis the solve of the level's
    axis factor for a right-hand side whose last axis runs along its lines.
    Leading axes of ``rhs`` before its space axes (a batch) pass through."""
    u = rhs
    for k, solve in enumerate(solves):
        # two space axes at most, so swapping an axis with the last one moves it there
        u = solve(u.swapaxes(k - len(solves), -1)).swapaxes(-1, k - len(solves))
    return u


def solve_frozen(B, F, grid, boundary=None, scheme=UPWIND):
    """Solve the frozen-coefficient backward problem with zero terminal data.

    ``B`` is the drift array (levels, space..., dim), ``F`` the cost array
    (levels, space...), ``boundary`` the Dirichlet data g(t, X) of a box
    (None: zero), called once with a column of the solved levels' times
    against the edge nodes X, and ``scheme`` the advection stencil, UPWIND
    or CENTRAL.
    Data is lifted: with G = g on the edge nodes of each solved level and 0
    inside, the march solves for w = u - G, which is zero on the edges,
    against the right-hand side less the step operator applied to G.
    Returns the full space-time value field.
    """
    periodic = grid.domain_kind == TORUS
    if periodic and boundary is not None:
        raise GridError("Dirichlet data given on a torus, which is periodic")
    B, F = np.asarray(B, dtype=float), np.asarray(F, dtype=float)
    if B.shape != (grid.n_levels,) + grid.space_shape + (grid.dim,):
        raise SchemeError(f"drift field has shape {B.shape}, expected levels x space x dim")

    inside = _inner(grid)
    # the solved levels' and nodes' bands, which the factors overwrite
    factors = [tridiag.LevelFactors(m, periodic)
               for m in _implicit_bands(B[(slice(0, -1),) + inside], grid, scheme)]
    u = np.zeros((grid.n_levels,) + grid.space_shape)
    if boundary is not None:
        edge = np.ones(grid.space_shape, dtype=bool)
        edge[inside] = False
        X = grid.points()[edge]
        u[:-1, edge] = boundary(grid.times()[:-1, None], X)
        # u is G until its inside is solved, and u = w + G after
        lift = _step_operator(u[:-1], B[:-1], grid, scheme)[(slice(None),) + inside]
    for n in range(grid.nt - 1, -1, -1):
        rhs = u[n + 1][inside] + grid.dt * F[n][inside]
        if boundary is not None:
            rhs -= lift[n]
        u[n][inside] = _step(rhs, [partial(f.solve, n) for f in factors])
    if not np.all(np.isfinite(u)):
        raise SchemeError("solver produced non-finite values")
    return SpaceTimeField(grid, u)


def _step_operator(u_lvl, b_lvl, grid, scheme):
    """Apply (I - dt L_x)(I - dt L_y), one factor in 1d, on any leading level
    axes: the exact implicit operator the stepper inverts."""
    out = u_lvl
    for k in range(grid.dim - 1, -1, -1):
        out = out - grid.dt * _apply_L_axis(out, b_lvl, grid, scheme, k)
    return out


def pde_residual(U, B, F, grid, scheme=UPWIND):
    """Discrete residual of the marching equations, solver stencils included.

    Returns an array over (step, space): (U[n+1] + dt F[n] - step operator
    applied to U[n]) / dt on interior nodes, box boundary nodes zeroed.  Solver
    output has residual at roundoff scale; it grows with truncation error
    when ``U`` is an exact solution sampled on the grid.
    """
    res = (U[1:] + grid.dt * F[:-1] - _step_operator(U[:-1], B[:-1], grid, scheme)) / grid.dt
    inner = (slice(None),) + _inner(grid)
    out = np.zeros_like(res)
    out[inner] = res[inner]
    return out


@dataclass
class ConvergenceOrders:
    space: float
    time: float
    errors: list
    skipped: bool = False


def convergence_order(problem_fn, grids, scheme=UPWIND):
    """Observed orders from a ladder of grids with a known exact solution.

    ``problem_fn(grid)`` returns (B, F, exact_values);
    the least-squares slopes of log error against log dx and log dt are
    returned.  Ladders shorter than 3 grids are rejected; errors at machine
    precision skip the fit.
    """
    if len(grids) < 3:
        raise SchemeError("convergence ladder needs at least 3 grids")
    errors = []
    for grid in grids:
        B, F, exact = problem_fn(grid)
        u = solve_frozen(B, F, grid, scheme=scheme)
        errors.append(float(np.max(np.abs(u.values - np.asarray(exact, dtype=float)))))
    if max(errors) < 1e-12:
        return ConvergenceOrders(np.nan, np.nan, errors, skipped=True)
    loge = np.log(errors)
    fit = lambda xs: float(np.polyfit(np.log(xs), loge, 1)[0])
    return ConvergenceOrders(fit([g.dx[0] for g in grids]), fit([g.dt for g in grids]), errors)

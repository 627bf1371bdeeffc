"""Backward linear parabolic solver: d_s u + Lap u + b . grad u + f = 0, u(T) = 0.

Implicit Euler (default) or Crank-Nicolson in time, upwind (default) or
central advection in space, as one theta-step from level n+1 to level n:
its right-hand side (``_step_rhs``) against the implicit operator
(I - theta dt L_x)(I - theta dt L_y), one factor per axis (``_step_operator``),
which the solve inverts with one line sweep per axis and the residuals apply.
Every axis sweep is one pivoting LAPACK call
over all of its lines (``tridiag``), with partial pivoting: line systems
that are not diagonally dominant, such as central advection at large b dx,
are solved stably, and an exactly singular line raises.
With upwind advection and implicit Euler every
step matrix is an M-matrix for any dt, dx and bounded drift, which is checked
at assembly; the discrete comparison principle is then a theorem of the
scheme, not an aspiration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tridiag
from .grids import BOX, CENTRAL, TORUS, UPWIND, GridError, SpaceTimeField

IMPLICIT_EULER = "implicit_euler"
CRANK_NICOLSON = "crank_nicolson"


class SchemeError(RuntimeError):
    pass


@dataclass(frozen=True)
class ParabolicScheme:
    """Discretization choices for the frozen-policy linear solver."""

    time_stepping: str = IMPLICIT_EULER
    advection: str = UPWIND

    def __post_init__(self):
        if self.time_stepping not in (IMPLICIT_EULER, CRANK_NICOLSON):
            raise SchemeError(f"unknown time stepping {self.time_stepping!r}")
        if self.advection not in (UPWIND, CENTRAL):
            raise SchemeError(f"unknown advection {self.advection!r}")

    @property
    def theta(self):
        return 1.0 if self.time_stepping == IMPLICIT_EULER else 0.5

    def claims_monotone(self):
        return self.time_stepping == IMPLICIT_EULER and self.advection == UPWIND


def default_scheme():
    return ParabolicScheme()


def _axis_L_coeffs(beta, h, advection):
    """(lower, diag, upper) of L = d_xx + beta d_x along the last axis."""
    inv_h2 = 1.0 / (h * h)
    if advection == UPWIND:
        bp = np.maximum(beta, 0.0)
        bm = np.minimum(beta, 0.0)
        lower = inv_h2 - bm / h
        upper = inv_h2 + bp / h
        diag = -2.0 * inv_h2 - (bp - bm) / h
    else:
        lower = inv_h2 - beta / (2.0 * h)
        upper = inv_h2 + beta / (2.0 * h)
        diag = np.full_like(np.asarray(beta, dtype=float), -2.0 * inv_h2)
    return lower, diag, upper


def _implicit_coeffs(beta, h, gamma, scheme):
    """Rows of M = I - gamma L along the last axis, with the M-matrix check."""
    lo, di, up = _axis_L_coeffs(beta, h, scheme.advection)
    Ml = -gamma * lo
    Md = 1.0 - gamma * di
    Mu = -gamma * up
    if scheme.claims_monotone():
        if not (np.all(Ml <= 1e-14) and np.all(Mu <= 1e-14) and np.all(Md > 0)):
            raise SchemeError("monotone scheme assembly produced a non-M-matrix")
    return Ml, Md, Mu


def _apply_L_axis(u, beta, h, advection, axis, periodic):
    """L u along one axis (wraps on torus, one-sided garbage at box edges;
    callers restrict to interior rows on the box)."""
    lo, di, up = _axis_L_coeffs(np.moveaxis(beta, axis, -1), h, advection)
    v = np.moveaxis(u, axis, -1)
    if periodic:
        vm = np.roll(v, 1, axis=-1)
        vp = np.roll(v, -1, axis=-1)
    else:
        vm = np.empty_like(v)
        vp = np.empty_like(v)
        vm[..., 1:] = v[..., :-1]
        vm[..., 0] = v[..., 0]
        vp[..., :-1] = v[..., 1:]
        vp[..., -1] = v[..., -1]
    out = lo * vm + di * v + up * vp
    return np.moveaxis(out, -1, axis)


def _solve_axis(rhs, beta, h, gamma, scheme, axis, grid, edge_values=None):
    """Solve (I - gamma L_axis) u = rhs line by line along ``axis``.

    On the box, ``edge_values`` = (lo_values, hi_values) are imposed exactly
    and their stencil couplings move to the right-hand side.
    """
    periodic = grid.domain_kind == TORUS
    b = np.moveaxis(beta, axis, -1)
    r = np.moveaxis(rhs, axis, -1)
    Ml, Md, Mu = _implicit_coeffs(b, h, gamma, scheme)
    if periodic:
        if r.shape[-1] < 3:
            raise SchemeError("torus solves need at least 3 nodes per axis")
        x = tridiag.solve_cyclic(Ml, Md, Mu, r)
        return np.moveaxis(x, -1, axis)

    g_lo, g_hi = edge_values
    r_int = r[..., 1:-1].copy()
    r_int[..., 0] -= Ml[..., 1] * g_lo
    r_int[..., -1] -= Mu[..., -2] * g_hi
    x_int = tridiag.solve_tridiag(Ml[..., 1:-1], Md[..., 1:-1], Mu[..., 1:-1], r_int)
    x = np.empty_like(r)
    x[..., 0] = g_lo
    x[..., -1] = g_hi
    x[..., 1:-1] = x_int
    return np.moveaxis(x, -1, axis)


def check_boundary(grid, boundary):
    """Dirichlet data g(t, X) belongs to a box (None there means g = 0); a
    torus takes none."""
    if boundary is not None and grid.domain_kind == TORUS:
        raise GridError("Dirichlet data given on a torus, which is periodic")


def _edge_values(g, grid, t):
    """Dirichlet values g(t, .) on the two edges of each axis, one (2, ...)
    array (lo, hi) per axis, evaluated on the edge nodes only (box only)."""
    edges = []
    for k in range(grid.dim):
        axes = grid.space_axes()
        axes[k] = axes[k][[0, -1]]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        values = np.zeros(points.shape[:-1]) if g is None else np.asarray(g(t, points), dtype=float)
        edges.append(np.moveaxis(values, k, 0))
    return edges


def _step_rhs(u_next, b_next, f_n, f_next, grid, scheme):
    """Right-hand side of the theta-step from level n+1 to level n: the
    explicit factor (I + (1 - theta) dt L) of u_next (none under implicit
    Euler) plus dt times the theta-mixed cost."""
    dt = grid.dt
    theta = scheme.theta
    if theta == 1.0:
        return u_next + dt * f_n
    expl = _step_operator(u_next, b_next, grid, scheme, -(1.0 - theta) * dt)
    return expl + dt * (theta * f_n + (1.0 - theta) * f_next)


def _step(u_next, b_lvl, f_lvl, grid, boundary, scheme, t_n,
          b_next_lvl=None, f_next_lvl=None):
    """One backward step from level n+1 to level n; ``boundary`` is the
    Dirichlet data g(t, X) of a box, or None."""
    box = grid.domain_kind == BOX
    edges = _edge_values(boundary, grid, t_n) if box else [None] * grid.dim
    gamma = scheme.theta * grid.dt
    u = _step_rhs(u_next, b_next_lvl, f_lvl, f_next_lvl, grid, scheme)
    for k in range(grid.dim):
        g = edges[k]
        if box and k < grid.dim - 1:
            # the x-sweep solves for (I - gamma L_y) u: its edge rows take (I - gamma L_y) g
            g = g - gamma * _apply_L_axis(g, b_lvl[[0, -1], :, 1], grid.dx[1],
                                          scheme.advection, 1, False)
        u = _solve_axis(u, b_lvl[..., k], grid.dx[k], gamma, scheme, k, grid, g)
    if box:
        # a later sweep overwrites the edges an earlier one pinned: pin them all
        for k, g in enumerate(edges):
            np.moveaxis(u, k, 0)[[0, -1]] = g
    return u


def solve_frozen(B, F, grid, boundary=None, scheme=None):
    """Solve the frozen-coefficient backward problem with zero terminal data.

    ``B`` is the drift array (levels, space..., dim), ``F`` the cost array
    (levels, space...), and ``boundary`` the Dirichlet data g(t, X) of a box
    (None: zero).  Returns the full space-time value field.
    """
    scheme = scheme or default_scheme()
    check_boundary(grid, boundary)
    B = np.asarray(B, dtype=float)
    F = np.asarray(F, dtype=float)
    if B.shape != (grid.n_levels,) + grid.space_shape + (grid.dim,):
        raise SchemeError(f"drift field has shape {B.shape}, expected levels x space x dim")

    times = grid.times()
    u = np.zeros((grid.n_levels,) + grid.space_shape)
    for n in range(grid.nt - 1, -1, -1):
        u[n] = _step(u[n + 1], B[n], F[n], grid, boundary, scheme, times[n],
                     b_next_lvl=B[n + 1], f_next_lvl=F[n + 1])
    out = SpaceTimeField(grid, u)
    if not np.all(np.isfinite(u)):
        raise SchemeError("solver produced non-finite values")
    return out


def _interior_mask(grid):
    mask = np.ones(grid.space_shape, dtype=bool)
    if grid.domain_kind == BOX:
        for k in range(grid.dim):
            sl = [slice(None)] * grid.dim
            sl[k] = 0
            mask[tuple(sl)] = False
            sl[k] = -1
            mask[tuple(sl)] = False
    return mask


def _step_operator(u_lvl, b_lvl, grid, scheme, gamma):
    """Apply (I - gamma L_x)(I - gamma L_y), one factor in 1d: at gamma =
    theta dt the exact implicit operator the stepper inverts, at gamma =
    -(1 - theta) dt the explicit factor of its right-hand side."""
    periodic = grid.domain_kind == TORUS
    out = u_lvl
    for k in range(grid.dim - 1, -1, -1):
        out = out - gamma * _apply_L_axis(out, b_lvl[..., k], grid.dx[k],
                                          scheme.advection, k, periodic)
    return out


def pde_residual(U, B, F, grid, scheme=None):
    """Discrete residual of the marching equations, solver stencils included.

    Returns an array over (step, space): (step right-hand side - step
    operator) / dt on interior nodes, box boundary nodes zeroed.  Solver
    output has residual at roundoff scale; it grows with truncation error
    when ``U`` is an exact solution sampled on the grid.
    """
    scheme = scheme or default_scheme()
    gamma = scheme.theta * grid.dt
    mask = _interior_mask(grid)
    res = np.zeros((grid.nt,) + grid.space_shape)
    for n in range(grid.nt):
        r = (_step_rhs(U[n + 1], B[n + 1], F[n], F[n + 1], grid, scheme)
             - _step_operator(U[n], B[n], grid, scheme, gamma)) / grid.dt
        res[n] = np.where(mask, r, 0.0)
    return res


@dataclass
class ConvergenceOrders:
    space: float
    time: float
    errors: list
    dxs: list
    dts: list
    skipped: bool = False


def convergence_order(problem_fn, grids, scheme=None, norm=np.inf):
    """Observed orders from a ladder of grids with a known exact solution.

    ``problem_fn(grid)`` returns (B, F, g or None, exact_values);
    the least-squares slopes of log error against log dx and log dt are
    returned.  Ladders shorter than 3 grids are rejected; errors at machine
    precision skip the fit.
    """
    if len(grids) < 3:
        raise SchemeError("convergence ladder needs at least 3 grids")
    errors, dxs, dts = [], [], []
    for grid in grids:
        B, F, boundary, exact = problem_fn(grid)
        u = solve_frozen(B, F, grid, boundary, scheme)
        e = np.asarray(exact, dtype=float)
        errors.append(float(np.max(np.abs(u.values - e))))
        dxs.append(grid.dx[0])
        dts.append(grid.dt)
    if max(errors) < 1e-12:
        return ConvergenceOrders(np.nan, np.nan, errors, dxs, dts, skipped=True)
    loge = np.log(errors)
    fit = lambda xs: float(np.polyfit(np.log(xs), loge, 1)[0])
    return ConvergenceOrders(fit(dxs), fit(dts), errors, dxs, dts)

"""Space-time grids on a torus or box, sampled fields, and discrete calculus.

The computational domain is the cylinder [0, T] x D with D either a periodic
torus (cell-centered nodes) or a box (endpoint-inclusive nodes).  Fields are
plain numpy arrays indexed (time level, space..., [component]); the calculus
here takes them with their grid, and SpaceTimeField pairs a validated array
with its grid for the solvers' results.  All operations here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TORUS = "torus"
BOX = "box"

CENTRAL = "central"
UPWIND = "upwind"


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid.

    Attributes
    ----------
    domain_kind : "torus" or "box"
    dim : spatial dimension (1 or 2)
    extent : per-axis (lo, hi); for the torus hi - lo is the period
    nx : per-axis node count
    T : terminal time
    nt : number of time steps (nt + 1 time levels)
    dx : per-axis spacing (derived)
    dt : time step (derived)
    """

    domain_kind: str
    dim: int
    extent: tuple
    nx: tuple
    T: float
    nt: int
    dx: tuple
    dt: float

    @property
    def n_levels(self):
        return self.nt + 1

    @property
    def space_shape(self):
        return tuple(self.nx)

    @property
    def periods(self):
        return tuple(hi - lo for lo, hi in self.extent)

    def times(self):
        return np.linspace(0.0, self.T, self.nt + 1)

    def space_axis(self, k):
        """Node coordinates along axis k (cell centers on the torus)."""
        lo, hi = self.extent[k]
        n = self.nx[k]
        if self.domain_kind == TORUS:
            return lo + (np.arange(n) + 0.5) * self.dx[k]
        return np.linspace(lo, hi, n)

    def space_axes(self):
        return [self.space_axis(k) for k in range(self.dim)]

    def meshes(self):
        """Coordinate arrays of shape space_shape, one per axis."""
        return np.meshgrid(*self.space_axes(), indexing="ij")

    def points(self):
        """All space nodes as an array of shape (*space_shape, dim)."""
        return np.stack(self.meshes(), axis=-1)

    def time_weights(self):
        w = np.full(self.nt + 1, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def space_weights(self):
        """Quadrature weight per node: midpoint on torus, trapezoid on box."""
        w = np.ones(self.space_shape)
        for k in range(self.dim):
            wk = np.full(self.nx[k], self.dx[k])
            if self.domain_kind == BOX:
                wk[0] *= 0.5
                wk[-1] *= 0.5
            shape = [1] * self.dim
            shape[k] = self.nx[k]
            w = w * wk.reshape(shape)
        return w

    def wrap(self, x, out=None):
        """Torus points mapped into [lo, hi), into ``out`` (not ``x``) when given; box points pass."""
        x = np.asarray(x, dtype=float)
        if self.domain_kind != TORUS:
            return x
        out = np.empty_like(x) if out is None else out
        for k in range(self.dim):
            lo, hi = self.extent[k]
            r, xk = out[..., k], x[..., k]
            # r = x - L floor((x - lo) / L), which can round onto hi or below lo
            np.subtract(xk, lo, out=r)
            r /= hi - lo
            np.floor(r, out=r)
            r *= lo - hi
            r += xk
            if r.size and (r.min() < lo or r.max() >= hi):
                np.copyto(r, lo, where=(r >= hi) | (r < lo))
        return out

    def clamp(self, x, out=None):
        """Clamp points into the box (coefficient extension rule off-domain),
        into ``out`` when given."""
        lo, hi = np.array(self.extent).T
        return np.clip(np.asarray(x, dtype=float), lo, hi, out=out)

    def nearest_index(self, x):
        """Per-axis nearest node indices for points of shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        idx = []
        for k in range(self.dim):
            v = (x[..., k] - self.extent[k][0]) / self.dx[k]
            if self.domain_kind == TORUS:
                # on [0, nx) truncation is the floor; only points outside it wrap
                inside = v.size and 0 <= v.min() and v.max() < self.nx[k]
                i = v.astype(np.int64) if inside else np.floor(v).astype(np.int64) % self.nx[k]
            else:
                i = np.clip(np.rint(v).astype(np.int64), 0, self.nx[k] - 1)
            idx.append(i)
        return tuple(idx)

    def level_index(self, t):
        """The time level t lies on, to within 1e-9 max(1, T), or None."""
        level = int(round(t / self.dt))
        return level if abs(level * self.dt - t) <= 1e-9 * max(1.0, self.T) else None

    def time_index_left(self, t):
        """Grid time level active at time t, or an array of times (constant from the left node)."""
        if isinstance(t, float):  # one time: Python arithmetic, at a fifth of numpy's cost
            return min(max(math.floor(t / self.dt + 1e-12), 0), self.nt)
        i = np.floor(t / self.dt + 1e-12).astype(np.int64)
        return np.minimum(np.maximum(i, 0), self.nt)  # np.clip is 2x slower on one t


class GridError(ValueError):
    pass


def build_grid(domain_kind, dim, extent, nx, T, nt):
    """Construct a validated Grid.

    ``extent`` is one interval (lo, hi) or a scalar length per axis (scalar L
    means (0, L), torus shorthand); a single value is broadcast over axes.
    ``nx`` likewise.  Rejects nx < 2, nt < 1, T <= 0 and degenerate extents.
    """
    if domain_kind not in (TORUS, BOX):
        raise GridError(f"unknown domain kind {domain_kind!r}")
    if dim not in (1, 2):
        raise GridError(f"dim must be 1 or 2, got {dim}")
    if not (T > 0):
        raise GridError(f"T must be positive, got {T}")
    nt = int(nt)
    if nt < 1:
        raise GridError(f"nt must be >= 1, got {nt}")

    def _per_axis(val):
        if isinstance(val, (list, tuple)) and len(val) == dim and isinstance(val[0], (list, tuple)):
            return list(val)
        return [val] * dim

    ext = [(0.0, float(item)) if np.isscalar(item) else (float(item[0]), float(item[1]))
           for item in _per_axis(extent)]
    for lo, hi in ext:
        if not (hi > lo):
            raise GridError(f"degenerate extent ({lo}, {hi})")

    nxs = [int(nx)] * dim if np.isscalar(nx) else [int(n) for n in nx]
    if len(nxs) != dim:
        raise GridError("nx must give one count per axis")
    if min(nxs) < 2:
        raise GridError(f"nx must be >= 2 per axis, got {min(nxs)}")
    # cell-centered torus nodes, endpoint box nodes
    dxs = [(hi - lo) / (n if domain_kind == TORUS else n - 1) for (lo, hi), n in zip(ext, nxs)]

    return Grid(
        domain_kind=domain_kind,
        dim=dim,
        extent=tuple(ext),
        nx=tuple(nxs),
        T=float(T),
        nt=nt,
        dx=tuple(dxs),
        dt=float(T) / nt,
    )


class FieldError(ValueError):
    pass


class SpaceTimeField:
    """Real scalar field sampled at every (time level, space node).

    Values have shape (nt + 1, *space_shape); construction validates shape
    and finiteness.  ``policy`` is the grid policy a value field was marched
    with (the direct HJB marcher's argmin), or None.
    """

    def __init__(self, grid, values, meta=None, policy=None):
        values = np.asarray(values, dtype=float)
        expect = (grid.n_levels,) + grid.space_shape
        if values.shape != expect:
            raise FieldError(f"field shape {values.shape} incompatible with grid {expect}")
        if not np.all(np.isfinite(values)):
            raise FieldError("field contains non-finite entries")
        self.grid = grid
        self.values = values
        self.meta = dict(meta or {})
        self.policy = policy

    def __repr__(self):
        return f"SpaceTimeField(shape={self.values.shape})"


def lp_norm(values, p, grid):
    """Discrete L^p norm over the space-time cylinder.

    Trapezoid weights in time, midpoint (torus) or trapezoid (box) weights in
    space; p = inf returns the max of |values|.  Vector fields use the
    Euclidean magnitude pointwise.
    """
    values = np.asarray(values, dtype=float)
    mag = np.abs(values)
    if values.ndim == grid.dim + 2:
        mag = np.sqrt(np.sum(values**2, axis=-1))
    if p == np.inf:
        return float(np.max(mag))
    p = float(p)
    if p < 1:
        raise FieldError(f"p must be in [1, inf], got {p}")
    w = grid.time_weights().reshape((-1,) + (1,) * grid.dim) * grid.space_weights()
    return float(np.sum(w * mag**p) ** (1.0 / p))


def spatial_gradient(values, grid):
    """Per-node finite-difference gradient, stacked on a trailing axis.

    Second-order central differences, one-sided at box edges; any leading
    (time level) axes pass through.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape + (grid.dim,))
    for k in range(grid.dim):
        # two space axes at most, so swapping an axis with the last one moves it there
        v, o = (a.swapaxes(k - grid.dim, -1) for a in (values, out[..., k]))
        dx = grid.dx[k]
        np.subtract(v[..., 2:], v[..., :-2], out=o[..., 1:-1])
        if grid.domain_kind == TORUS:
            np.subtract(v[..., 1], v[..., -1], out=o[..., 0])
            np.subtract(v[..., 0], v[..., -2], out=o[..., -1])
            o /= 2 * dx
        else:
            o[..., 1:-1] /= 2 * dx
            o[..., 0] = (v[..., 1] - v[..., 0]) / dx
            o[..., -1] = (v[..., -1] - v[..., -2]) / dx
    return out


def gradient_pair(values, grid):
    """Forward and backward one-sided gradients, stacked on the last axis.

    Returns (g_plus, g_minus) arrays of shape values.shape + (dim,); used by
    the upwind discrete Hamiltonian b+ . g_plus + b- . g_minus.  They wrap on
    the torus; at a box edge the one difference there is taken both ways.
    """
    values = np.asarray(values, dtype=float)
    periodic = grid.domain_kind == TORUS
    gp = np.empty(values.shape + (grid.dim,))
    gm = np.empty_like(gp)
    for k in range(grid.dim):
        v, fwd, bwd = (a.swapaxes(k - grid.dim, -1) for a in (values, gp[..., k], gm[..., k]))
        np.subtract(v[..., 1:], v[..., :-1], out=fwd[..., :-1])
        if periodic:
            np.subtract(v[..., 0], v[..., -1], out=fwd[..., -1])
        else:
            fwd[..., -1] = fwd[..., -2]
        fwd /= grid.dx[k]
        # the backward difference at node i is the forward one at node i - 1
        bwd[..., 1:] = fwd[..., :-1]
        bwd[..., 0] = fwd[..., -1 if periodic else 0]
    return gp, gm


# ---------------------------------------------------------------------------
# serialization


def write_csv(path_or_buf, columns, rows, grid=None):
    """Write a CSV header of ``columns`` and then ``rows``; every cell is
    the ``repr`` of a Python int or float.

    Without ``grid`` each row is a sequence of cells.  With ``grid``,
    ``rows`` holds one array of node values per time level, and the columns
    and every line are prefixed with t,x[,y]: node coordinate strings are
    formatted once, each level's time once, nonnegative integer cells are
    read from a table of their reprs, and each level is written as one join
    of (t, node, cell, newline) slots, the fixed ones filled once.
    """
    own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
    fh = open(path_or_buf, "w") if own else path_or_buf
    try:
        if grid is None:
            fh.write(",".join(columns) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
            return
        fh.write(",".join(["t", "x", "y"][:grid.dim + 1] + list(columns)) + "\n")
        nodes = [",".join(map(repr, x)) + "," for x in grid.points().reshape(-1, grid.dim).tolist()]
        n = len(nodes)
        slots = [None] * (4 * n)
        slots[1::4], slots[3::4] = nodes, ["\n"] * n
        for t, level in zip(grid.times().tolist(), rows):
            level = np.reshape(level, -1)
            slots[0::4] = [f"{t!r},"] * n
            if level.dtype.kind in "iu" and 0 <= level.min() and level.max() < n:
                table = [repr(i) for i in range(level.max() + 1)]
                slots[2::4] = [table[i] for i in level.tolist()]
            else:
                slots[2::4] = map(repr, level.tolist())
            fh.write("".join(slots))
    finally:
        if own:
            fh.close()


def field_to_csv(field, path_or_buf):
    """Write a field as CSV rows t,x[,y],value."""
    write_csv(path_or_buf, ["value"], field.values, grid=field.grid)


def field_from_csv(grid, path):
    """Read a scalar field written by field_to_csv back onto ``grid``."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    n_nodes = int(np.prod(grid.space_shape))
    vals = np.asarray(data["value"], dtype=float)
    if vals.size != grid.n_levels * n_nodes:
        raise FieldError(
            f"CSV holds {vals.size} samples, grid wants {grid.n_levels * n_nodes}"
        )
    return SpaceTimeField(grid, vals.reshape((grid.n_levels,) + grid.space_shape))

"""Space-time mollification: scaled bump kernel and discrete convolution.

The kernel is the standard radial bump exp(-1/(1 - r^2)) on the unit ball of
R^(1+d) (time is one coordinate), normalized to unit mass and rescaled by
epsilon.  Coefficient fields are extended by zero outside [0, T] in time;
space wraps on the torus and zero-extends on the box (with a boundary layer
of width epsilon).  Discrete stencil weights are renormalized to sum exactly
to one at each epsilon so that quadrature drift never contaminates small-gap
experiments.  The convolution multiplies real
FFTs over the time and space axes (the kernel's is taken once per call):
circular on torus axes, zero-padded on the time axis and box axes so that it
is linear there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coefficients import _promote_points, sample_to_grid
from .grids import BOX, TORUS, build_grid, lp_norm, write_csv


class MollifyError(ValueError):
    pass


def _bump(r2):
    """Unnormalized radial profile as a function of |z|^2, zero for r >= 1."""
    r2 = np.asarray(r2, dtype=float)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


# surface measure constants on the unit sphere S^d in R^(d+1)
_SPHERE_AREA = {1: 2.0 * np.pi, 2: 4.0 * np.pi}
# integral of |omega_1| over S^d
_SPHERE_ABS1 = {1: 4.0, 2: 2.0 * np.pi}


@lru_cache(maxsize=None)
def _kernel_constants(dim):
    """(mass Z, first absolute time moment M / Z) of zeta in ``dim`` space
    dimensions at eps = 1.  The radial integrals over [0, 1] use a 128-node
    Gauss-Legendre rule; the integrands are C-infinity and vanish to all
    orders at r = 1."""
    if dim not in (1, 2):
        raise MollifyError(f"kernel supports spatial dim 1 or 2, got {dim}")
    nodes, weights = np.polynomial.legendre.leggauss(128)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    radial = np.exp(-1.0 / (1.0 - r * r))

    Z = _SPHERE_AREA[dim] * np.dot(w, radial * r**dim)
    M = _SPHERE_ABS1[dim] * np.dot(w, radial * r ** (dim + 1))
    return float(Z), float(M / Z)


def abs_time_moment(dim):
    """Mean |t| under zeta; the zero-extension layer loses at most
    2 * abs_time_moment(dim) * eps * sup|g| of time-integrated mass."""
    return _kernel_constants(dim)[1]


def _check(eps, dim):
    """The one check of a mollifier, made before any warning or work: eps is
    positive, and the kernel supports ``dim``."""
    if not (eps > 0):
        raise MollifyError(f"epsilon must be positive, got {eps}")
    _kernel_constants(dim)


def kernel_value(eps, dim, t, x):
    """Evaluate zeta_eps(t, x) = eps^-(d+1) zeta(t/eps, x/eps) in ``dim``
    space dimensions; exactly zero for |(t, x)| >= eps."""
    _check(eps, dim)
    x = _promote_points(x, dim)
    r2 = (np.asarray(t, dtype=float) / eps) ** 2 + np.sum((x / eps) ** 2, axis=-1)
    return _bump(r2) / _kernel_constants(dim)[0] * eps ** (-(dim + 1))


def kernel_normalization_error(eps, dim):
    """|midpoint quadrature of zeta_eps over its support - 1|.

    The midpoint grid scales with eps, so the result is eps-independent; the
    profile is smooth and compactly supported, making the quadrature
    superalgebraically accurate.
    """
    _check(eps, dim)
    n = 401 if dim == 1 else 161
    axis = (-eps + (np.arange(n) + 0.5) * (2 * eps / n))
    t, *x = np.meshgrid(*([axis] * (dim + 1)), indexing="ij")
    total = np.sum(kernel_value(eps, dim, t, np.stack(x, axis=-1))) * (2 * eps / n) ** (dim + 1)
    return abs(float(total) - 1.0)


def _stencil(eps, grid):
    """Grid-aligned stencil: kernel weights on the node offsets -r..r of each
    axis (time first), renormalized to sum to 1, and the radii r."""
    steps = (grid.dt,) + tuple(grid.dx)
    radii = [int(np.floor(eps / h)) for h in steps]
    mesh = np.meshgrid(*(np.arange(-r, r + 1) * h for r, h in zip(radii, steps)), indexing="ij")
    # the center node always carries weight, so the sum is positive
    w = kernel_value(eps, grid.dim, mesh[0], np.stack(mesh[1:], axis=-1))
    return w / w.sum(), radii


def _convolver(eps, grid, shape):
    """The convolution zeta_eps * g of a scalar array g of ``shape`` (levels,
    space...) on ``grid``, as ``convolve(g, out)``, which writes into ``out``;
    the kernel is transformed once, here.  Checks the mollifier and warns
    when eps is not resolved by the grid spacing."""
    _check(eps, grid.dim)
    if eps < max(grid.dx):
        warnings.warn(
            f"mollifier eps={eps:g} below grid spacing max(dx)={max(grid.dx):g}; "
            "the discrete kernel degenerates toward a point mass",
            stacklevel=3,
        )
    periodic = grid.domain_kind == TORUS
    weights, radii = _stencil(eps, grid)
    axes = tuple(range(1 + grid.dim))
    # circular convolution of length n on a torus axis; on the time axis and
    # box axes length n + r, where no shift of at most r wraps onto a node
    sizes = [n if periodic and ax else n + r for ax, n, r in zip(axes, shape, radii)]
    # offset s sits at index s mod size; add.at sums the offsets that fold
    # onto one index when a torus stencil is wider than the period
    kern = np.zeros(sizes)
    np.add.at(kern, np.ix_(*[np.arange(-r, r + 1) % n for r, n in zip(radii, sizes)]), weights)
    spectrum = np.fft.rfftn(kern)
    crop = tuple(slice(n) for n in shape)

    def convolve(values, out):
        # padded complex copies of one component only are held
        spec = np.fft.rfftn(values, sizes, axes)
        spec *= spectrum
        out[...] = np.fft.irfftn(spec, sizes, axes)[crop]

    return convolve


def mollify_field(field, eps, grid):
    """Discrete space-time convolution zeta_eps * field of an array on ``grid``.

    Time uses zero extension outside [0, T]; torus space wraps periodically;
    box space zero-extends (an eps-wide boundary layer is distorted).  Axes
    after the time and space axes are components and are convolved
    independently.  Warns when eps is not resolved by the grid spacing.
    """
    values = np.asarray(field, dtype=float)
    convolve = _convolver(eps, grid, values.shape[:1 + grid.dim])
    out = np.empty_like(values)
    for c in np.ndindex(values.shape[1 + grid.dim:]):
        convolve(values[(...,) + c], out[(...,) + c])
    return out


def mollify_samples(B, F, eps, grid, out=None):
    """Mollify stacked per-action coefficient samples (see sample_all): each
    action's drift components and cost are convolved, on one transform of
    the kernel, straight into ``out`` = (B_eps, F_eps), new tables when None,
    which it returns."""
    convolve = _convolver(eps, grid, F.shape[1:])
    B_eps, F_eps = out or (np.empty(B.shape), np.empty(F.shape))
    for a in range(len(F)):
        for k in range(grid.dim):
            convolve(B[a, ..., k], B_eps[a, ..., k])
        convolve(F[a], F_eps[a])
    return B_eps, F_eps


def strictly_decreasing(eps_list):
    """The order of an epsilon ladder: each rung below the one before."""
    return all(e2 < e1 for e1, e2 in zip(eps_list, eps_list[1:]))


def interior_mask(grid, eps, space=True):
    """Nodes (levels, space...) that the eps-wide layers of the zero
    extension miss: t in [eps, T - eps] and, on a box when ``space``, every
    coordinate eps inside its edges; each bound has 1e-12 slack."""
    box = space and grid.domain_kind == BOX  # else no space axis has an edge layer
    bounds = [(grid.times(), (0.0, grid.T))] + [
        (grid.space_axis(k), grid.extent[k] if box else (-np.inf, np.inf)) for k in range(grid.dim)]
    return np.all(np.meshgrid(*[(x >= lo + eps - 1e-12) & (x <= hi - eps + 1e-12)
                                for x, (lo, hi) in bounds], indexing="ij"), axis=0)


@dataclass
class LadderRung:
    epsilon: float
    lp_distance_b: float
    lp_distance_f: float
    sup_norm_b: float
    sup_norm_f: float


@dataclass
class LadderReport:
    """Coefficient convergence ladder ||g_eps - g||_2 along decreasing eps."""

    rungs: list

    def distances(self):
        return np.array([r.lp_distance_b + r.lp_distance_f for r in self.rungs])

    def to_csv(self, path_or_buf):
        write_csv(path_or_buf, ["epsilon", "lp_distance", "sup_norm"],
                  [(r.epsilon, r.lp_distance_b + r.lp_distance_f,
                    max(r.sup_norm_b, r.sup_norm_f)) for r in self.rungs])


def coefficient_ladder(oracle, action, grid, eps_list):
    """Mollify one action's coefficients along an eps ladder, tracking L^2 gaps.

    Distances are computed on a refined quadrature grid at least four times
    finer than the smallest eps, time restricted to the interior band
    [eps, T - eps] where the zero extension does not bite.
    """
    eps_list = list(eps_list)
    if not strictly_decreasing(eps_list):
        raise MollifyError("eps ladder must be strictly decreasing")
    eps_min = eps_list[-1]

    target = eps_min / 4.0
    nx = [max(n, int(np.ceil((hi - lo) / target)) + 1) for n, (lo, hi) in zip(grid.nx, grid.extent)]
    nt = max(grid.nt, int(np.ceil(grid.T / target)))
    fine = build_grid(grid.domain_kind, grid.dim, list(grid.extent), nx, grid.T, nt)

    b_raw, f_raw = sample_to_grid(oracle, fine, action)
    # one fixed interior time band for every rung (the widest layer) so
    # distances are comparable along the ladder
    band = interior_mask(fine, eps_list[0], space=False)
    rungs = []
    for eps in eps_list:
        B_eps, F_eps = mollify_samples(b_raw[None], f_raw[None], eps, fine)
        db = B_eps[0] - b_raw
        df = F_eps[0] - f_raw
        # zero out the time boundary layers so the distance reflects interior decay
        db = np.where(band[..., None], db, 0.0)
        df = np.where(band, df, 0.0)
        rungs.append(
            LadderRung(
                epsilon=float(eps),
                lp_distance_b=lp_norm(db, 2, fine),
                lp_distance_f=lp_norm(df, 2, fine),
                sup_norm_b=float(np.max(np.abs(B_eps))),
                sup_norm_f=float(np.max(np.abs(F_eps))),
            )
        )
    return LadderReport(rungs)

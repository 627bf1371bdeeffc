"""Batched tridiagonal and cyclic-tridiagonal direct solves on LAPACK ``gtsv``.

Every line of a call (the leading axes index independent lines) is stacked
into one tridiagonal system whose couplings across line boundaries are
exactly zero, so one ``dgtsv`` call solves the whole batch.  ``gtsv`` is
Gaussian elimination with partial pivoting; it never swaps rows across a line
boundary, because the candidate pivot there is the zero coupling.  The
cyclic variant handles periodic wraparound with the Sherman-Morrison
correction; a caller that solves the same lines again, as a time march
does, takes its right-hand-side-free part (``cyclic_correction``) once for
all of them, else the two right-hand sides are two columns of one call.
An exactly singular line, or a periodic line whose correction has no finite
solution, raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv


def _bands(lower, diag, upper, shape):
    """A fresh (3, ..., n) float array of the three bands, each broadcast to
    the line shape (..., n)."""
    bands = np.empty((3,) + shape)
    bands[0], bands[1], bands[2] = lower, diag, upper
    return bands


def _line_name(flat_index, batch):
    """Name of line ``flat_index`` of a batch of lines of shape ``batch``."""
    if not batch:
        return "the line"
    return f"line {tuple(int(i) for i in np.unravel_index(flat_index, batch))}"


def _solve_lines(dl, d, du, b):
    """Solve tri(dl, d, du) x = b on every line in one ``dgtsv`` call.

    ``dl``, ``d`` and ``du`` are C-contiguous bands of the line shape (..., n)
    and ``b`` a C-contiguous (k, ..., n) stack of k right-hand sides; the call
    overwrites all four, so callers pass copies.  The couplings across line
    boundaries are zeroed before the call.
    """
    k, shape = b.shape[0], b.shape[1:]
    n = shape[-1]
    dl[..., 0] = 0.0
    du[..., -1] = 0.0
    _, _, _, x, info = dgtsv(dl.reshape(-1)[1:], d.reshape(-1), du.reshape(-1)[:-1],
                             b.reshape(k, -1).T,
                             overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info > 0:
        line, row = divmod(info - 1, n)
        raise ValueError(f"singular tridiagonal system: {_line_name(line, shape[:-1])} has an "
                         f"exactly zero pivot at row {row}")
    if info < 0:
        raise ValueError(f"dgtsv rejected argument {-info}")
    return x.T.reshape(b.shape)


def solve_tridiag(lower, diag, upper, rhs):
    """Solve tri(lower, diag, upper) x = rhs along the last axis.

    ``lower[..., i]`` multiplies x[..., i-1] in row i (lower[..., 0] unused);
    ``upper[..., i]`` multiplies x[..., i+1] (upper[..., -1] unused).
    """
    b = np.array(rhs, dtype=float)[None]
    return _solve_lines(*_bands(lower, diag, upper, b.shape[1:]), b)[0]


def cyclic_correction(lower, diag, upper, rhs=None):
    """The right-hand-side-free part of ``solve_cyclic`` for the periodic
    lines tri(lower, diag, upper), in one ``dgtsv`` call: (shifted diagonal,
    correction solution z, beta / gamma, 1 + v.z), arrays with the lines'
    leading axes, so that ``[n]`` of each picks a sub-batch.  A given ``rhs``
    rides along as the first column: (correction, y) is returned then, y its
    solution on the shifted system.
    """
    shape = np.broadcast(lower, diag, upper, 0.0 if rhs is None else rhs).shape
    if shape[-1] < 3:
        raise ValueError("cyclic solve needs n >= 3")
    dl, d, du = _bands(lower, diag, upper, shape)
    beta = dl[..., 0].copy()   # A[0, n-1]
    alpha = du[..., -1].copy()  # A[n-1, 0]

    # Sherman-Morrison shift -d[0], or a nonzero one where d[0] is zero
    gamma = np.where(d[..., 0] != 0.0, -d[..., 0], -1.0 - np.abs(du[..., 0]) - np.abs(beta))
    d[..., 0] = d[..., 0] - gamma
    d[..., -1] = d[..., -1] - alpha * beta / gamma
    shifted = d.copy()
    # right-hand sides: rhs if given, then the correction vector gamma e_0 + alpha e_{n-1}
    b = np.zeros((1 + (rhs is not None),) + shape)
    b[:-1] = 0.0 if rhs is None else rhs
    b[-1, ..., 0], b[-1, ..., -1] = gamma, alpha
    *y, z = _solve_lines(dl, d, du, b)
    ratio = beta / gamma
    correction = shifted, z, ratio, 1.0 + (z[..., 0] + ratio * z[..., -1])
    return correction if rhs is None else (correction, y[0])


def solve_cyclic(lower, diag, upper, rhs, correction=None):
    """Solve the periodic tridiagonal system along the last axis.

    Row 0 additionally couples to x[..., -1] with weight lower[..., 0] and
    row n-1 couples to x[..., 0] with weight upper[..., -1].  ``correction``
    is ``cyclic_correction`` of the same bands, when the caller has it.
    """
    rhs = np.asarray(rhs, dtype=float)
    if correction is None:
        correction, y = cyclic_correction(lower, diag, upper, rhs)
    else:
        y = solve_tridiag(lower, correction[0], upper, rhs)
    _, z, ratio, denom = correction
    vy = y[..., 0] + ratio * y[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = y - z * (vy / denom)[..., None]
    bad = ~np.all(np.isfinite(x), axis=-1)  # 1 + vz == 0 too, as z != 0
    if np.any(bad):
        line = _line_name(np.flatnonzero(bad)[0], rhs.shape[:-1])
        raise ValueError(f"singular periodic tridiagonal system: {line} has no finite solution")
    return x

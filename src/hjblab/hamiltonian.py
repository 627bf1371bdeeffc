"""Pointwise Hamiltonian minimization over a finite action list.

With a finite list the exact argmin exists, so the selector implemented here
is an epsilon = 0 selector: it always returns the exact minimizer (ties break
to the lowest action index).  The slack schedule C_k(x) that the theory
needs when the infimum may not be attained is therefore not implemented.

The discrete Hamiltonian takes the gradient of the value iterate in the
convention of the advection stencil of the solver that consumes the policy:
a central gradient, or one-sided gradient pairs for upwind advection; mixing
conventions would break the discrete comparison argument behind monotone
policy iteration.  ``argmin_level``, the one argmin kernel, sums b . grad u by axis.
"""

from __future__ import annotations

import numpy as np

from .coefficients import CoefficientError
from .grids import UPWIND, gradient_pair, spatial_gradient, write_csv


class Policy:
    """Grid-indexed feedback law: one action index per space-time node."""

    def __init__(self, grid, indices, action_set):
        indices = np.asarray(indices)
        expect = (grid.n_levels,) + grid.space_shape
        if indices.shape != expect:
            raise CoefficientError(f"policy shape {indices.shape}, expected {expect}")
        if indices.min() < 0 or indices.max() >= len(action_set):
            raise CoefficientError("policy contains indices outside the action set")
        self.grid = grid
        self.indices = indices.astype(np.int64)
        self.action_set = action_set

    def to_csv(self, path_or_buf):
        write_csv(path_or_buf, ["action_index"], self.indices, grid=self.grid)


def constant_policy(grid, action_set, index=0):
    return Policy(grid, np.full((grid.n_levels,) + grid.space_shape, int(index)), action_set)


def _dot(B, g):
    """b . g, its axes summed in order; the axes after the first are added one
    action at a time, so that no temporary spans every action."""
    s = B[..., 0] * g[..., 0]
    for k in range(1, B.shape[-1]):
        for a in range(len(s)):
            s[a] += B[a, ..., k] * g[..., k]
    return s


def argmin_level(B, F, u, grid, advection):
    """(indices, H): the per-action discrete Hamiltonian H = b . grad u + f at
    every node and the indices of its exact minimum, ties to the lowest index.

    ``B`` has shape (n_a, levels, ..., dim), ``F`` (n_a, levels, ...) and ``u``
    (levels, ...), for any number of leading time levels (u's levels broadcast
    against B's).  With upwind advection the gradient is the one-sided pair and
    H = b+ . g_plus + b- . g_minus + f, the discrete face of b . grad u of the
    monotone stencil; otherwise central.  Each dot product sums its axes in order,
    bit for bit the sum of the full (n_a, levels, ..., dim) product.
    The indices are a running strict-less selection over the actions, bit for
    bit ``H.argmin(axis=0)`` without its copy of H; a non-finite H raises.
    """
    if advection == UPWIND:
        gp, gm = gradient_pair(u, grid)
        H = _dot(np.maximum(B, 0.0), gp)
        H += _dot(np.minimum(B, 0.0), gm)
    else:
        H = _dot(B, spatial_gradient(u, grid))
    H += F
    if not np.isfinite(H).all():
        raise ValueError("non-finite Hamiltonian: no action is the minimum at every node")
    idx, best = np.zeros(H.shape[1:], dtype=np.intp), H[0]
    for a in range(1, len(H)):
        less = H[a] < best
        idx = less.astype(np.intp) if a == 1 else np.where(less, a, idx)
        if a + 1 < len(H):
            best = np.minimum(best, H[a])
    return idx, H

"""Batched tridiagonal and cyclic-tridiagonal direct solves on LAPACK.

The lines of a call (its leading axes index them) are stacked into one
system with zero couplings across line boundaries, where partial pivoting
therefore never swaps rows.  ``dgtsv`` solves by the same arithmetic as
``dgttrf`` then ``dgttrs``: ``LevelFactors`` factors the levels of a time
march once, and a step solves its level on its slice of the factors.
Periodic lines take the Sherman-Morrison correction.  An exactly singular
line, or a periodic one without a finite solution, raises ``ValueError``.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np


@lru_cache(maxsize=None)
def _flapack():
    """scipy's Fortran LAPACK extension ``scipy.linalg._flapack``, loaded once,
    on the first solve (commands that solve nothing load no LAPACK), from its
    file alone: the ``scipy.linalg`` package would import 74 more scipy
    modules (+25 MB).  CPython enters the single-phase extension in
    ``sys.modules``, so its routines are the objects ``scipy.linalg.lapack``
    exports in either import order."""
    import importlib.machinery
    import importlib.util
    import os
    import sys

    import scipy  # its _distributor_init loads the bundled OpenBLAS

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no LAPACK extension {stem}<suffix>, suffixes "
                      f"{importlib.machinery.EXTENSION_SUFFIXES}")


def _line_name(index, batch):
    """Name of line ``index`` (flat) of a batch of lines of shape ``batch``."""
    return f"line {tuple(int(i) for i in np.unravel_index(index, batch))}" if batch else "the line"


def _call(routine, bands, *args, **flags):
    """The outputs but ``info`` of LAPACK ``routine`` on bands (3, ..., n),
    which it overwrites, couplings across line boundaries zeroed."""
    bands[0, ..., 0] = bands[2, ..., -1] = 0.0
    dl, d, du = bands.reshape(3, -1)
    *out, info = getattr(_flapack(), routine)(dl[1:], d, du[:-1], *args, overwrite_dl=1,
                                              overwrite_d=1, overwrite_du=1, **flags)
    if info < 0:
        raise ValueError(f"{routine} rejected argument {-info}")
    if info > 0:
        line, row = divmod(info - 1, bands.shape[-1])
        raise ValueError(f"singular tridiagonal system: {_line_name(line, bands.shape[1:-1])} "
                         f"has an exactly zero pivot at row {row}")
    return out


def _shift(bands, e):
    """Shift periodic bands (3, ..., n) in place to the Sherman-Morrison system,
    write its correction vector gamma e_0 + alpha e_{n-1} into ``e`` and
    return beta / gamma; the per-line factors have the shape (..., 1)."""
    if bands.shape[-1] < 3:
        raise ValueError("cyclic solve needs n >= 3")
    beta, alpha = bands[0, ..., :1].copy(), bands[2, ..., -1:].copy()  # A[0, n-1], A[n-1, 0]
    gamma = -bands[1, ..., :1]
    if np.count_nonzero(gamma) < gamma.size:  # shift -d[0], or a nonzero one where d[0] is zero
        gamma = np.where(gamma != 0.0, gamma, -1.0 - np.abs(bands[2, ..., :1]) - np.abs(beta))
    bands[1, ..., :1] -= gamma
    bands[1, ..., -1:] -= alpha * beta / gamma
    e[...] = 0.0
    e[..., :1], e[..., -1:] = gamma, alpha
    return beta / gamma


def _corrected(y, z, ratio, denom):
    """The periodic solution from the shifted system's solutions y, of the
    right-hand side, and z, of the correction vector; denom is 1 + v.z."""
    return y - z * ((y[..., :1] + ratio * y[..., -1:]) / denom)


def _check_solvable(ok, batch):
    if not ok.all():
        raise ValueError(f"singular periodic tridiagonal system: "
                         f"{_line_name(np.flatnonzero(~ok)[0], batch)} has no finite solution")


def solve_lines(bands, rhs, periodic=False):
    """Solve the lines of bands (3, ..., n), which it overwrites, for ``rhs``
    in one ``dgtsv`` call; periodic lines solve the Sherman-Morrison
    correction vector as a second column of the call."""
    b = np.empty((1 + periodic,) + bands.shape[1:])
    b[0] = rhs
    ratio = _shift(bands, b[1]) if periodic else None
    x = _call("dgtsv", bands, b.reshape(len(b), -1).T, overwrite_b=1)[-1].T.reshape(b.shape)
    if not periodic:
        return x[0]
    y, z = x
    with np.errstate(divide="ignore", invalid="ignore"):
        x = _corrected(y, z, ratio, 1.0 + (z[..., :1] + ratio * z[..., -1:]))
    _check_solvable(np.isfinite(x).all(axis=-1), b.shape[1:-1])  # 1 + vz == 0 too
    return x


def solve_tridiag(lower, diag, upper, rhs, periodic=False):
    """Solve tri(lower, diag, upper) x = rhs along the last axis: ``lower[..., i]``
    multiplies x[..., i-1] in row i and ``upper[..., i]`` x[..., i+1]; ``lower[..., 0]``
    and ``upper[..., -1]`` are unused, or on ``periodic`` lines couple row 0 to
    x[..., -1] and row n-1 to x[..., 0].  No solver calls it or ``solve_cyclic``:
    they stay as the bench tracer's line-solve targets and the tests' reference
    solves until the tracer binds ``LevelFactors`` and ``solve_lines``."""
    bands = np.array(np.broadcast_arrays(lower, diag, upper, rhs)[:3], dtype=float)
    return solve_lines(bands, rhs, periodic)


solve_cyclic = partial(solve_tridiag, periodic=True)


class LevelFactors:
    """LU factors of the levels of tridiagonal lines from one stacked ``dgttrf``
    call on bands (3, levels, ..., n), which it overwrites (periodic lines: of
    their shifted system, its correction solved on them); ``solve(level, rhs)``
    is one ``dgttrs`` call on the level's slice, bit for bit its ``solve_lines``."""

    def __init__(self, bands, periodic=False):
        if bands[0, 0].size < 3:  # scipy's gttrf and gttrs take no system of fewer than 3 rows
            self.solve = lambda level, rhs: solve_lines(bands[:, level].copy(), rhs, periodic)
            return
        ratio = _shift(bands, e := np.empty(bands.shape[1:])) if periodic else None
        dl, d, du, du2, ipiv = _call("dgttrf", bands)
        if periodic:
            z = _flapack().dgttrs(dl, d, du, du2, ipiv, e.ravel(), overwrite_b=1)[0].reshape(e.shape)
            denom = 1.0 + (z[..., :1] + ratio * z[..., -1:])
            _check_solvable((denom != 0.0) & np.isfinite(z).all(axis=-1, keepdims=True), e.shape[:-1])
        self._corrections = list(zip(z, ratio, denom)) if periodic else None
        # level n owns rows [n s, (n + 1) s) of the stack; its pivots count from its first row
        s = d.size // bands.shape[1]
        ipiv -= np.repeat(np.arange(0, d.size, s, dtype=ipiv.dtype), s)
        self._levels = [(dl[a:a + s - 1], d[a:a + s], du[a:a + s - 1], du2[a:a + s - 2],
                         ipiv[a:a + s]) for a in range(0, d.size, s)]

    def solve(self, level, rhs):
        """Solve level ``level``'s lines for ``rhs`` (..., n)."""
        y = _flapack().dgttrs(*self._levels[level], rhs.reshape(-1))[0].reshape(rhs.shape)
        return y if self._corrections is None else _corrected(y, *self._corrections[level])

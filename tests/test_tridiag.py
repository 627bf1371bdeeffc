import importlib.machinery
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjblab import hjb, parabolic, tridiag
from hjblab.grids import build_grid
from hjblab.tridiag import LevelFactors, solve_cyclic, solve_tridiag


def _random_dd_system(rng, n, batch=()):
    lower = rng.uniform(-1.0, 0.0, size=batch + (n,))
    upper = rng.uniform(-1.0, 0.0, size=batch + (n,))
    diag = 2.5 + np.abs(lower) + np.abs(upper)
    rhs = rng.normal(size=batch + (n,))
    return lower, diag, upper, rhs


def _dense_lines(lower, diag, upper, cyclic=False):
    """Dense (..., n, n) matrices of a batch of (cyclic) tridiagonal lines."""
    n = diag.shape[-1]
    A = np.zeros(diag.shape + (n,))
    i = np.arange(n)
    A[..., i, i] = diag
    A[..., i[1:], i[:-1]] = lower[..., 1:]
    A[..., i[:-1], i[1:]] = upper[..., :-1]
    if cyclic:
        A[..., 0, -1] = lower[..., 0]
        A[..., -1, 0] = upper[..., -1]
    return A


def test_tridiag_matches_dense():
    rng = np.random.default_rng(11)
    for n in (3, 7, 40):
        lower, diag, upper, rhs = _random_dd_system(rng, n)
        x = solve_tridiag(lower, diag, upper, rhs)
        A = _dense_lines(lower, diag, upper)
        assert np.allclose(A @ x, rhs, atol=1e-12)


def test_tridiag_batched():
    rng = np.random.default_rng(5)
    lower, diag, upper, rhs = _random_dd_system(rng, 12, batch=(4, 3))
    x = solve_tridiag(lower, diag, upper, rhs)
    for i in range(4):
        for j in range(3):
            A = _dense_lines(lower[i, j], diag[i, j], upper[i, j])
            assert np.allclose(A @ x[i, j], rhs[i, j], atol=1e-12)


def test_cyclic_matches_dense():
    rng = np.random.default_rng(23)
    for n in (4, 9, 33):
        lower, diag, upper, rhs = _random_dd_system(rng, n)
        x = solve_cyclic(lower, diag, upper, rhs)
        A = _dense_lines(lower, diag, upper, cyclic=True)
        assert np.allclose(A @ x, rhs, atol=1e-11)


def test_cyclic_batched():
    rng = np.random.default_rng(31)
    lower, diag, upper, rhs = _random_dd_system(rng, 16, batch=(5,))
    x = solve_cyclic(lower, diag, upper, rhs)
    for i in range(5):
        A = _dense_lines(lower[i], diag[i], upper[i], cyclic=True)
        assert np.allclose(A @ x[i], rhs[i], atol=1e-11)


def test_cyclic_needs_three_nodes():
    with pytest.raises(ValueError):
        solve_cyclic(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))


def test_zero_leading_pivot_matches_dense():
    # nonsingular, not diagonally dominant, first pivot exactly 0: elimination
    # without row interchanges divides by zero here
    lower = np.array([0.0, 1.0, 1.0])
    diag = np.array([0.0, 1.0, 1.0])
    upper = np.array([1.0, 1.0, 0.0])
    rhs = np.array([1.0, 2.0, 3.0])
    x = solve_tridiag(lower, diag, upper, rhs)
    expected = np.linalg.solve(_dense_lines(lower, diag, upper), rhs)
    assert np.allclose(x, expected, rtol=0.0, atol=1e-14)


def test_singular_system_raises():
    # rows 0 and 1 are equal
    lower = np.array([0.0, 1.0, 0.0])
    diag = np.array([1.0, 1.0, 1.0])
    upper = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="row 1"):
        solve_tridiag(lower, diag, upper, np.ones(3))
    # the same system as line 1 behind a nonsingular line 0
    two = lambda a: np.stack([a, a])  # noqa: E731
    diags = np.stack([np.full(3, 2.0), diag])
    with pytest.raises(ValueError, match=r"line \(1,\) .* row 1"):
        solve_tridiag(two(lower), diags, two(upper), np.ones((2, 3)))


def test_inputs_are_not_modified():
    rng = np.random.default_rng(3)
    args = _random_dd_system(rng, 6, batch=(3,))
    copies = [a.copy() for a in args]
    solve_tridiag(*args)
    solve_cyclic(*args)
    for a, c in zip(args, copies):
        assert np.array_equal(a, c)


def test_zero_pivot_lines_do_not_couple():
    # every other line has a zero leading pivot and needs a row interchange;
    # the couplings across line boundaries are nonzero in the inputs and must
    # be ignored, so each line solves alone
    rng = np.random.default_rng(17)
    shape = (3, 4, 5)
    lower = rng.uniform(0.5, 1.5, size=shape)
    upper = rng.uniform(0.5, 1.5, size=shape)
    diag = rng.uniform(-1.0, 1.0, size=shape)
    diag[:, ::2, 0] = 0.0
    rhs = rng.normal(size=shape)
    x = solve_tridiag(lower, diag, upper, rhs)
    expected = np.linalg.solve(_dense_lines(lower, diag, upper), rhs[..., None])[..., 0]
    assert np.allclose(x, expected, rtol=1e-10, atol=1e-10)
    for i in range(shape[0]):
        for j in range(shape[1]):
            alone = solve_tridiag(lower[i, j], diag[i, j], upper[i, j], rhs[i, j])
            assert np.array_equal(alone, x[i, j])


def test_cyclic_zero_leading_diagonal_matches_dense():
    # nonsingular (cond 7.2), but the usual Sherman-Morrison shift -diag[0]
    # is zero here
    lower = upper = np.ones(4)
    diag = np.array([0.0, 3.0, 3.0, 3.0])
    rhs = np.array([1.0, 2.0, 3.0, 4.0])
    x = solve_cyclic(lower, diag, upper, rhs)
    expected = np.linalg.solve(_dense_lines(lower, diag, upper, cyclic=True), rhs)
    assert np.all(np.isfinite(x))
    assert np.allclose(x, expected, rtol=0.0, atol=1e-14)


def test_singular_cyclic_system_raises():
    # the periodic second difference: constants span its null space
    n = 5
    with pytest.raises(ValueError, match="the line"):
        solve_cyclic(-np.ones(n), np.full(n, 2.0), -np.ones(n), np.arange(n, dtype=float))
    # the same system as line 1 behind a nonsingular line 0
    diags = np.stack([np.full(n, 3.0), np.full(n, 2.0)])
    with pytest.raises(ValueError, match=r"line \(1,\)"):
        solve_cyclic(-np.ones((2, n)), diags, -np.ones((2, n)), np.ones((2, n)))


_batch_shapes = st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=_batch_shapes, n=st.integers(3, 12))
def test_tridiag_property_against_dense(seed, batch, n):
    # general sign pattern, not diagonally dominant: partial pivoting matters
    rng = np.random.default_rng(seed)
    shape = batch + (n,)
    lower, diag, upper = (rng.uniform(-2.0, 2.0, size=shape) for _ in range(3))
    rhs = rng.normal(size=shape)
    A = _dense_lines(lower, diag, upper)
    assume(np.all(np.linalg.cond(A) < 1e4))
    x = solve_tridiag(lower, diag, upper, rhs)
    expected = np.linalg.solve(A, rhs[..., None])[..., 0]
    assert np.allclose(x, expected, rtol=1e-9, atol=1e-9)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=_batch_shapes, n=st.integers(3, 12))
def test_cyclic_property_against_dense(seed, batch, n):
    # general sign pattern, not diagonally dominant, and a zero leading
    # diagonal entry on about a quarter of the lines
    rng = np.random.default_rng(seed)
    shape = batch + (n,)
    lower, diag, upper = (rng.uniform(-2.0, 2.0, size=shape) for _ in range(3))
    diag[..., 0] = np.where(rng.uniform(size=batch) < 0.25, 0.0, diag[..., 0])
    rhs = rng.normal(size=shape)
    A = _dense_lines(lower, diag, upper, cyclic=True)
    assume(np.all(np.linalg.cond(A) < 1e4))
    x = solve_cyclic(lower, diag, upper, rhs)
    expected = np.linalg.solve(A, rhs[..., None])[..., 0]
    assert np.allclose(x, expected, rtol=1e-9, atol=1e-9)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 4), lines=st.integers(1, 8),
       n=st.integers(3, 69), periodic=st.booleans())
def test_stacked_factors_are_bit_identical(seed, levels, lines, n, periodic):
    # a march factors every level in one stacked dgttrf call; a level's
    # dgttrs solve on its slice of the factors equals a dgtsv solve of that
    # level alone, bit for bit.  General signs make rows pivot, and a
    # quarter of the lines have a zero leading pivot, which must pivot
    rng = np.random.default_rng(seed)
    shape = (levels, lines, n)
    lower, diag, upper = (rng.uniform(-2.0, 2.0, size=shape) for _ in range(3))
    diag[..., 0] = np.where(rng.uniform(size=shape[:-1]) < 0.25, 0.0, diag[..., 0])
    rhs = rng.normal(size=shape)
    assume(np.all(np.linalg.cond(_dense_lines(lower, diag, upper, cyclic=periodic)) < 1e6))
    factors = LevelFactors(np.array([lower, diag, upper]), periodic)
    solve = solve_cyclic if periodic else solve_tridiag
    for i in range(levels):
        assert np.array_equal(factors.solve(i, rhs[i]), solve(lower[i], diag[i], upper[i], rhs[i]))


def _singular_at(monkeypatch, grid, level, line):
    """Make one axis line of one level exactly singular in every solve's
    bands: two equal rows on a box, the periodic second difference (whose
    null space holds the constants) on a torus."""
    real = parabolic._implicit_bands

    def bands(B, grid, scheme):
        M = real(B, grid, scheme)
        Ml, Md, Mu = M[-1]  # the last axis's, which is the node layout
        at = (level,) + line + (slice(None),)  # a line along the last axis
        if grid.domain_kind == "torus":
            Ml[at], Md[at], Mu[at] = -1.0, 2.0, -1.0
        else:
            Ml[at], Md[at], Mu[at] = 0.0, 1.0, 0.0
            Ml[at][1] = Mu[at][0] = 1.0
        return M

    monkeypatch.setattr(parabolic, "_implicit_bands", bands)


@pytest.mark.parametrize("kind,dim", [("box", 1), ("torus", 1), ("box", 2), ("torus", 2)])
def test_singular_level_line_raises_naming_it(monkeypatch, kind, dim):
    grid, B, F = _tables(kind, dim, 1)
    line = (2,) * (dim - 1)
    _singular_at(monkeypatch, grid, 1, line)
    name = re.escape(f"line {(1,) + line}")
    match = f"{name} has no finite solution" if kind == "torus" else f"{name} .* row 1"
    with pytest.raises(ValueError, match=match):
        parabolic.solve_frozen(B[0], F[0], grid)


def test_moved_lapack_extension_raises_naming_the_path(monkeypatch):
    # one code path: no fallback to importing the scipy.linalg package
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".moved.so"])
    with pytest.raises(ImportError, match=r"linalg.+_flapack<suffix>.+\.moved\.so"):
        tridiag._flapack.__wrapped__()  # the loader's body, past its cache


def _count_lapack(monkeypatch):
    """Record (routine, unknowns, right-hand sides) of every LAPACK call."""
    calls, real = [], tridiag._flapack()

    def counting(name, at):
        def call(*args, **kw):
            rows = args[at]
            calls.append((name, rows.shape[0], rows.shape[1] if rows.ndim == 2 else 1))
            return getattr(real, name)(*args, **kw)
        return call

    # the argument whose rows are the unknowns: the right-hand side, or the
    # diagonal; a solve that looked up any other routine would raise
    lapack = types.SimpleNamespace(**{name: counting(name, at) for name, at in
                                      (("dgtsv", 3), ("dgttrf", 1), ("dgttrs", 5))})
    monkeypatch.setattr(tridiag, "_flapack", lambda: lapack)
    return calls


def _tables(kind, dim, n_actions):
    grid = build_grid(kind, dim, (-1.0, 1.0), 9, 1.0, 4)
    rng = np.random.default_rng(7)
    B = rng.uniform(-1.0, 1.0, size=(n_actions, grid.n_levels) + grid.space_shape + (dim,))
    F = rng.normal(size=(n_actions, grid.n_levels) + grid.space_shape)
    return grid, B, F


@pytest.mark.parametrize("kind,dim", [("box", 1), ("torus", 1), ("box", 2), ("torus", 2)])
def test_one_lapack_call_per_axis_sweep(monkeypatch, kind, dim):
    calls = _count_lapack(monkeypatch)
    grid, B, F = _tables(kind, dim, 1)
    u = parabolic.solve_frozen(B[0], F[0], grid)
    assert np.all(np.isfinite(u.values))
    # a box step solves for its interior block on every axis
    unknowns = int(np.prod(grid.nx if kind == "torus" else [n - 2 for n in grid.nx]))
    # every level's lines are factored first, one stacked call per axis; a
    # torus solves every level's Sherman-Morrison vector on the same factors
    setup = [("dgttrf", grid.nt * unknowns, 1)]
    if kind == "torus":
        setup.append(("dgttrs", grid.nt * unknowns, 1))
    assert calls[:len(setup) * dim] == setup * dim
    # then each step solves its right-hand side, one call per axis
    assert calls[len(setup) * dim:] == [("dgttrs", unknowns, 1)] * (dim * grid.nt)


@pytest.mark.parametrize("kind,dim", [("box", 1), ("torus", 1), ("box", 2), ("torus", 2)])
def test_one_lapack_call_per_axis_march_sweep(monkeypatch, kind, dim):
    calls = _count_lapack(monkeypatch)
    steps = []
    real = hjb._step
    monkeypatch.setattr(hjb, "_step", lambda *a: steps.append(1) or real(*a))
    grid, B, F = _tables(kind, dim, 3)
    hjb.solve_hjb_tables(B, F, grid)
    assert len(steps) >= grid.nt and len(calls) == dim * len(steps)
    # the policy changes between sweeps, so the bands are solved as gathered;
    # a torus line solves its Sherman-Morrison vector beside the right-hand side
    assert all(call[0] == "dgtsv" and call[2] == (2 if kind == "torus" else 1) for call in calls)


@pytest.mark.parametrize("scheme", ["upwind", "central"])
@pytest.mark.parametrize("kind,dim", [("box", 1), ("torus", 1), ("box", 2), ("torus", 2)])
def test_bands_reach_lapack_c_contiguous(monkeypatch, kind, dim, scheme):
    # one band layout from assembly on: the frozen solve's factoring and every
    # march sweep hand LAPACK C-contiguous bands, which no reshape copies
    seen = []
    real = tridiag._call

    def spy(routine, bands, *args, **flags):
        seen.append((routine, bands.flags.c_contiguous))
        return real(routine, bands, *args, **flags)

    monkeypatch.setattr(tridiag, "_call", spy)
    grid, B, F = _tables(kind, dim, 3)
    parabolic.solve_frozen(B[0], F[0], grid, scheme=scheme)
    hjb.solve_hjb_tables(B, F, grid, scheme)
    assert {routine for routine, _ in seen} == {"dgttrf", "dgtsv"}
    assert [routine for routine, contiguous in seen if not contiguous] == []

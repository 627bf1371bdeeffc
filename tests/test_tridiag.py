import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjblab import hjb, parabolic, tridiag
from hjblab.grids import build_grid
from hjblab.tridiag import cyclic_correction, solve_cyclic, solve_tridiag


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


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=_batch_shapes, n=st.integers(3, 12),
       levels=st.integers(1, 4))
def test_stacked_correction_is_bit_identical(seed, batch, n, levels):
    # a march takes every level's Sherman-Morrison set-up in one stacked
    # call; a level's solve with its slice equals a solve from scratch, bit
    # for bit (a quarter of the lines lack the row-0 wraparound coupling)
    rng = np.random.default_rng(seed)
    shape = (levels,) + batch + (n,)
    lower, upper = (rng.uniform(-1.0, 1.0, size=shape) for _ in range(2))
    diag = np.sign(rng.normal(size=shape)) * (2.5 + np.abs(lower) + np.abs(upper))
    lower[..., 0] = np.where(rng.uniform(size=shape[:-1]) < 0.25, 0.0, lower[..., 0])
    rhs = rng.normal(size=shape)
    correction = cyclic_correction(lower, diag, upper)
    for i in range(levels):
        x = solve_cyclic(lower[i], diag[i], upper[i], rhs[i], correction=[c[i] for c in correction])
        assert np.array_equal(x, solve_cyclic(lower[i], diag[i], upper[i], rhs[i]))


def _count_dgtsv(monkeypatch):
    calls = []
    original = tridiag.dgtsv

    def counting(dl, d, du, b, **kw):
        calls.append(b.shape)
        return original(dl, d, du, b, **kw)

    monkeypatch.setattr(tridiag, "dgtsv", counting)
    return calls


def _tables(kind, dim, n_actions):
    grid = build_grid(kind, dim, (-1.0, 1.0), 9, 1.0, 4)
    rng = np.random.default_rng(7)
    B = rng.uniform(-1.0, 1.0, size=(n_actions, grid.n_levels) + grid.space_shape + (dim,))
    F = rng.normal(size=(n_actions, grid.n_levels) + grid.space_shape)
    return grid, B, F


@pytest.mark.parametrize("kind,dim", [("box", 1), ("torus", 1), ("box", 2), ("torus", 2)])
def test_one_lapack_call_per_axis_sweep(monkeypatch, kind, dim):
    calls = _count_dgtsv(monkeypatch)
    grid, B, F = _tables(kind, dim, 1)
    u = parabolic.solve_frozen(B[0], F[0], grid)
    assert np.all(np.isfinite(u.values))
    # a torus first solves every level's Sherman-Morrison vector, one call per axis
    setup = dim if kind == "torus" else 0
    assert len(calls) == setup + dim * grid.nt
    size = int(np.prod(grid.space_shape))
    assert calls[:setup] == [(grid.nt * size, 1)] * setup
    # then each step's line solves carry its right-hand side as the one
    # column; a box step solves for its interior block on every axis
    unknowns = size if kind == "torus" else int(np.prod([n - 2 for n in grid.nx]))
    assert calls[setup:] == [(unknowns, 1)] * (dim * grid.nt)


@pytest.mark.parametrize("kind,dim", [("box", 1), ("torus", 1), ("box", 2), ("torus", 2)])
def test_one_lapack_call_per_axis_march_sweep(monkeypatch, kind, dim):
    calls = _count_dgtsv(monkeypatch)
    steps = []
    real = hjb._step
    monkeypatch.setattr(hjb, "_step", lambda *a: steps.append(1) or real(*a))
    grid, B, F = _tables(kind, dim, 3)
    hjb.solve_hjb_tables(B, F, grid)
    assert len(steps) >= grid.nt and len(calls) == dim * len(steps)
    # the policy changes between sweeps, so a torus line solves its
    # Sherman-Morrison vector beside the right-hand side
    assert all(shape[1] == (2 if kind == "torus" else 1) for shape in calls)

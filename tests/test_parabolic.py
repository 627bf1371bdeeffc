import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab import parabolic
from hjblab.coefficients import ActionSet, make_smooth_baseline, sample_all
from hjblab.grids import build_grid
from hjblab.hjb import solve_hjb_tables
from hjblab.parabolic import (
    SchemeError,
    convergence_order,
    pde_residual,
    solve_frozen,
)


def _const(g, value, *components):
    return np.full((g.n_levels,) + g.space_shape + components, float(value))


def _sample(g, fn):
    """fn(t, X) at every node, stacked over the time levels."""
    return np.stack([np.asarray(fn(t, g.points()), dtype=float) for t in g.times()])


def exact_quadratic(T):
    return lambda t, X: X[..., 0] ** 2 * (T - t) + (T - t) ** 2


def exact_cubic(T):
    return lambda t, X: ((X[..., 0] + T - t) ** 3 - X[..., 0] ** 3) / 3.0 + (T - t) ** 2


def test_space_constant_exact():
    g = build_grid("torus", 1, 1.0, 16, 1.0, 8)
    u = solve_frozen(_const(g, 0.0, 1), _const(g, 1.0), g)
    exact = (g.T - g.times())[:, None] * np.ones(g.space_shape)
    assert np.max(np.abs(u.values - exact)) < 1e-13


def test_solver_residual_roundoff():
    g = build_grid("torus", 1, 1.0, 32, 1.0, 16)
    rng = np.random.default_rng(2)
    b = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape + (1,))
    f = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape)
    u = solve_frozen(b, f, g)
    res = pde_residual(u.values, b, f, g)
    assert np.max(np.abs(res)) < 1e-10


def test_residual_of_zero_field():
    g = build_grid("torus", 1, 1.0, 16, 1.0, 8)
    b = _const(g, 0.0, 1)
    f = _const(g, 1.0)
    res = pde_residual(np.zeros((g.n_levels,) + g.space_shape), b, f, g)
    assert np.allclose(res, 1.0)


def test_quadratic_closed_form_on_box():
    g = build_grid("box", 1, (-6.0, 6.0), 121, 1.0, 128)
    exact_fn = exact_quadratic(g.T)
    b = _const(g, 0.0, 1)
    f = _sample(g, lambda t, X: X[..., 0] ** 2)
    u = solve_frozen(b, f, g, exact_fn, "central")
    exact = np.stack([exact_fn(t, g.points()) for t in g.times()])
    assert np.max(np.abs(u.values - exact)) < 5 * (g.dx[0] ** 2 + g.dt)


def test_cubic_closed_form_with_drift():
    g = build_grid("box", 1, (-6.0, 6.0), 241, 1.0, 256)
    exact_fn = exact_cubic(g.T)
    b = _const(g, 1.0, 1)
    f = _sample(g, lambda t, X: X[..., 0] ** 2)
    u = solve_frozen(b, f, g, exact_fn, "central")
    exact = np.stack([exact_fn(t, g.points()) for t in g.times()])
    assert np.max(np.abs(u.values - exact)) < 10 * (g.dx[0] ** 2 + g.dt)


def test_exact_field_residual_shrinks_at_rate():
    b_zero = lambda g: _const(g, 0.0, 1)
    res_sup = []
    for nx, nt in ((61, 32), (121, 64)):
        g = build_grid("box", 1, (-6.0, 6.0), nx, 1.0, nt)
        exact_fn = exact_quadratic(g.T)
        f = _sample(g, lambda t, X: X[..., 0] ** 2)
        exact = np.stack([exact_fn(t, g.points()) for t in g.times()])
        res = pde_residual(exact, b_zero(g), f, g, scheme="central")
        res_sup.append(np.max(np.abs(res)))
    # halving dx and dt halves the (dt-dominated) truncation residual
    assert res_sup[0] / res_sup[1] == pytest.approx(2.0, rel=0.2)


def test_comparison_principle_sample():
    rng = np.random.default_rng(17)
    g = build_grid("torus", 1, 1.0, 32, 0.5, 16)
    for _ in range(20):
        b = rng.uniform(-2, 2, size=(g.n_levels,) + g.space_shape + (1,))
        f1 = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape)
        f2 = f1 + rng.uniform(0, 1, size=f1.shape)
        u1 = solve_frozen(b, f1, g)
        u2 = solve_frozen(b, f2, g)
        assert np.max(u1.values - u2.values) <= 1e-12


def test_boundedness_by_horizon():
    rng = np.random.default_rng(29)
    g = build_grid("torus", 1, 1.0, 24, 1.0, 12)
    b = rng.uniform(-3, 3, size=(g.n_levels,) + g.space_shape + (1,))
    f = rng.uniform(-2, 2, size=(g.n_levels,) + g.space_shape)
    u = solve_frozen(b, f, g)
    fmax = np.max(np.abs(f))
    for n, t in enumerate(g.times()):
        assert np.max(np.abs(u.values[n])) <= (g.T - t) * fmax + 1e-12


def test_linearity():
    rng = np.random.default_rng(41)
    g = build_grid("torus", 1, 1.0, 16, 1.0, 8)
    b = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape + (1,))
    f1 = rng.normal(size=(g.n_levels,) + g.space_shape)
    f2 = rng.normal(size=f1.shape)
    u12 = solve_frozen(b, f1 + f2, g)
    u1 = solve_frozen(b, f1, g)
    u2 = solve_frozen(b, f2, g)
    assert np.max(np.abs(u12.values - u1.values - u2.values)) < 1e-11


def test_unconditional_stability_large_dt():
    rng = np.random.default_rng(53)
    g = build_grid("torus", 1, 1.0, 64, 1.0, 2)  # dt = 0.5 with dx = 1/64
    b = rng.uniform(-5, 5, size=(g.n_levels,) + g.space_shape + (1,))
    f = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape)
    u = solve_frozen(b, f, g)
    assert np.all(np.isfinite(u.values))


def test_monotonicity_flags(monkeypatch):
    # the M-matrix check runs on upwind assembly only: central coefficients
    # at |b| dx > 2 have a positive off-diagonal, which the check refuses
    # when they stand in for upwind's
    g = build_grid("torus", 1, 1.0, 8, 1.0, 4)
    B = _const(g, 40.0, 1)[:-1]
    (Ml, _, _), = parabolic._implicit_bands(B, g, "central")
    assert np.any(Ml > 0.0)
    central = parabolic._axis_L_coeffs
    monkeypatch.setattr(parabolic, "_axis_L_coeffs",
                        lambda B, k, grid, advection: central(B, k, grid, "central"))
    with pytest.raises(SchemeError, match="non-M-matrix"):
        parabolic._implicit_bands(B, g, "upwind")


@pytest.mark.parametrize("dim", [1, 2])
def test_dirichlet_data_evaluated_on_edge_nodes_only(dim):
    g = build_grid("box", dim, (-1.0, 1.0), 9, 1.0, 4)
    seen = []

    def data(t, X):
        seen.append(np.array(X).reshape(-1, dim))
        return t + np.sum(X, axis=-1)

    u = solve_frozen(_const(g, 0.5, dim), _const(g, 1.0), g, data)
    assert len(seen) == 1  # one call, a column of the solved levels' times
    points = np.concatenate(seen)
    assert np.all(np.any(np.abs(points) == 1.0, axis=1))
    edge = np.any(np.abs(g.points()) == 1.0, axis=-1)
    assert len(np.unique(points, axis=0)) == np.sum(edge)
    # and the solution holds the data on every edge node
    for n, t in enumerate(g.times()[:-1]):
        assert np.array_equal(u.values[n][edge], t + np.sum(g.points(), axis=-1)[edge])


def test_scheme_validation():
    # a scheme is its advection string, and the solvers refuse any other
    g = build_grid("torus", 1, 1.0, 8, 1.0, 4)
    b, f = _const(g, 0.5, 1), _const(g, 1.0)
    with pytest.raises(SchemeError, match="unknown advection 'weno'"):
        solve_frozen(b, f, g, scheme="weno")
    with pytest.raises(SchemeError, match="unknown advection 'weno'"):
        pde_residual(np.zeros(f.shape), b, f, g, scheme="weno")
    with pytest.raises(SchemeError, match="unknown advection 'weno'"):
        solve_hjb_tables(b[None], f[None], g, scheme="weno")


def _smooth_problem(grid):
    oracle = make_smooth_baseline(grid)
    B, F = sample_all(oracle, grid, ActionSet(np.array([1.0])))
    exact = np.stack([oracle.exact_value(t, grid.points(), grid.T) for t in grid.times()])
    return B[0], F[0], exact


def test_convergence_orders_central():
    grids = [build_grid("torus", 1, 1.0, nx, 1.0, nx * nx // 8) for nx in (16, 24, 32)]
    orders = convergence_order(_smooth_problem, grids, "central")
    assert orders.space == pytest.approx(2.0, abs=0.25)
    assert orders.time == pytest.approx(1.0, abs=0.25)


def test_convergence_orders_upwind():
    grids = [build_grid("torus", 1, 1.0, nx, 1.0, nx) for nx in (32, 48, 64)]
    orders = convergence_order(_smooth_problem, grids, "upwind")
    assert orders.space == pytest.approx(1.0, abs=0.25)
    assert orders.time == pytest.approx(1.0, abs=0.25)


def test_convergence_order_skips_machine_precision():
    def constant_problem(grid):
        b = np.zeros((grid.n_levels,) + grid.space_shape + (1,))
        f = np.ones((grid.n_levels,) + grid.space_shape)
        exact = (grid.T - grid.times())[:, None] * np.ones(grid.space_shape)
        return b, f, exact

    grids = [build_grid("torus", 1, 1.0, nx, 1.0, 8) for nx in (8, 16, 32)]
    orders = convergence_order(constant_problem, grids)
    assert orders.skipped


def test_convergence_order_needs_three_grids():
    grids = [build_grid("torus", 1, 1.0, 8, 1.0, 8)] * 2
    with pytest.raises(SchemeError):
        convergence_order(None, grids)


# ------------------------------- 2d -----------------------------------------


def test_2d_space_constant_exact():
    g = build_grid("torus", 2, 1.0, 8, 1.0, 4)
    u = solve_frozen(_const(g, 0.0, 2), _const(g, 1.0), g)
    exact = (g.T - g.times())[:, None, None] * np.ones(g.space_shape)
    assert np.max(np.abs(u.values - exact)) < 1e-13


def test_2d_box_quadratic():
    g = build_grid("box", 2, (-3.0, 3.0), 31, 0.5, 32)
    T = g.T
    exact_fn = lambda t, X: (X[..., 0] ** 2 + X[..., 1] ** 2) * (T - t) + 2 * (T - t) ** 2
    b = _const(g, 0.0, 2)
    f = _sample(g, lambda t, X: X[..., 0] ** 2 + X[..., 1] ** 2)
    u = solve_frozen(b, f, g, exact_fn)
    exact = np.stack([exact_fn(t, g.points()) for t in g.times()])
    assert np.max(np.abs(u.values - exact)) < 10 * (g.dx[0] ** 2 + g.dt)


def _smooth_problem_2d(grid):
    """u = A (T - t) sin(pi x) sin(pi y) under a drift that varies on both
    axes; u vanishes on the edges of [0, 1]^2, so zero Dirichlet data is exact."""
    A, t = 0.25, grid.times()[:, None, None]
    x, y = grid.meshes()
    sx, cx, sy, cy = np.sin(np.pi * x), np.cos(np.pi * x), np.sin(np.pi * y), np.cos(np.pi * y)
    b = np.stack([0.5 * cx * sy + 0.3, -0.4 * sx * cy + 0.2], axis=-1)
    B = np.broadcast_to(b, (grid.n_levels,) + b.shape)
    ds_u = -A * sx * sy
    lap_u = -2.0 * np.pi ** 2 * A * (grid.T - t) * sx * sy
    b_grad_u = np.pi * A * (grid.T - t) * (B[..., 0] * cx * sy + B[..., 1] * sx * cy)
    F = -(ds_u + lap_u + b_grad_u)
    return B, F, A * (grid.T - t) * sx * sy


# per advection: the (nx, nt) ladder and criterion 8's (space, time) orders;
# the central ladder refines dt with dx^2
_LADDERS_2D = {
    "central": ([(nx, nx * nx // 8) for nx in (16, 24, 32, 48)], (2.0, 1.0)),
    "upwind": ([(nx, nx) for nx in (32, 48, 64, 96)], (1.0, 1.0)),
}


@pytest.mark.parametrize("scheme", ["central", "upwind"])
@pytest.mark.parametrize("kind", ["torus", "box"])
def test_2d_convergence_orders(kind, scheme):
    # criterion 8's 1d orders hold in 2d: on the period-2 torus, and on the
    # box [0, 1]^2 with nx + 1 nodes per axis
    ladder, order = _LADDERS_2D[scheme]
    extent, extra = ((-1.0, 1.0), 0) if kind == "torus" else ((0.0, 1.0), 1)
    grids = [build_grid(kind, 2, extent, nx + extra, 1.0, nt) for nx, nt in ladder]
    orders = convergence_order(_smooth_problem_2d, grids, scheme)
    assert (orders.space, orders.time) == pytest.approx(order, abs=0.25)


def test_2d_solver_residual_roundoff():
    g = build_grid("torus", 2, 1.0, 8, 0.5, 8)
    rng = np.random.default_rng(3)
    b = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape + (2,))
    f = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape)
    u = solve_frozen(b, f, g)
    res = pde_residual(u.values, b, f, g)
    assert np.max(np.abs(res)) < 1e-10


def test_2d_comparison_principle():
    rng = np.random.default_rng(59)
    g = build_grid("torus", 2, 1.0, 8, 0.25, 8)
    for _ in range(5):
        b = rng.uniform(-2, 2, size=(g.n_levels,) + g.space_shape + (2,))
        f1 = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape)
        f2 = f1 + rng.uniform(0, 1, size=f1.shape)
        u1 = solve_frozen(b, f1, g)
        u2 = solve_frozen(b, f2, g)
        assert np.max(u1.values - u2.values) <= 1e-12


@pytest.mark.parametrize("advection", ["upwind", "central"])
def test_2d_box_solver_residual_roundoff(advection):
    # lifted data enters through the step operator applied to the edge
    # data, whose dt^2 cross term reaches the interior nodes next to the
    # x-edges; data that varies along the x-edges shows it
    g = build_grid("box", 2, (-3.0, 3.0), 41, 1.0, 32)
    rng = np.random.default_rng(61)
    b = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape + (2,))
    f = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape)
    for data, b_, f_ in ((lambda t, X: X[..., 1] ** 2, 0.0 * b, 0.0 * f),
                         (lambda t, X: np.sin(X[..., 1]) + t * X[..., 0], b, f)):
        u = solve_frozen(b_, f_, g, data, advection)
        assert np.max(np.abs(pde_residual(u.values, b_, f_, g, scheme=advection))) <= 1e-10


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["torus", "box"]),
       dim=st.integers(1, 2), nx=st.integers(3, 10), nt=st.integers(1, 8))
def test_comparison_principle_fuzz(seed, kind, dim, nx, nt):
    # upwind implicit Euler: ordered costs give ordered values, on a box
    # with the same Dirichlet data for both solves
    rng = np.random.default_rng(seed)
    g = build_grid(kind, dim, (-1.0, 1.0), nx, 0.5, nt)
    b = rng.uniform(-3, 3, size=(g.n_levels,) + g.space_shape + (dim,))
    f1 = rng.uniform(-1, 1, size=(g.n_levels,) + g.space_shape)
    f2 = f1 + rng.uniform(0, 1, size=f1.shape)
    c = rng.normal(size=3)
    data = None
    if kind == "box":
        data = lambda t, X: c[0] + c[1] * np.sin(3.0 * X[..., 0] + t) + c[2] * X[..., -1] ** 2
    if nx < parabolic.MIN_NODES[kind]:  # a 3-node box line has one unknown: refused
        with pytest.raises(SchemeError, match="line solves need at least"):
            solve_frozen(b, f1, g, data)
        return
    u1 = solve_frozen(b, f1, g, data)
    u2 = solve_frozen(b, f2, g, data)
    assert np.max(u1.values - u2.values) <= 1e-12


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["torus", "box"]),
       dim=st.integers(1, 2), nx=st.integers(4, 12), length=st.floats(1e-3, 1e3),
       T=st.floats(1e-4, 1e2), nt=st.integers(1, 40), scale=st.floats(0.0, 1e6))
def test_upwind_implicit_bands_are_m_matrix_rows(seed, kind, dim, nx, length, T, nt, scale):
    # Barles-Souganidis: every row of the upwind implicit Euler step matrix,
    # assembled for all levels and axes at once, has nonpositive
    # off-diagonals and a positive diagonal that exceeds their sum by 1; axis
    # k's rows have its lines along the last axis
    rng = np.random.default_rng(seed)
    g = build_grid(kind, dim, (0.0, length), nx, T, nt)
    B = scale * rng.standard_normal(size=(g.nt,) + g.space_shape + (dim,))
    for k, (Ml, Md, Mu) in enumerate(parabolic._implicit_bands(B, g, "upwind")):
        assert Md.shape == B[..., k].swapaxes(k - dim, -1).shape
        assert np.all(Ml <= 0.0) and np.all(Mu <= 0.0) and np.all(Md > 0.0)
        assert np.all(np.abs(Md + Ml + Mu - 1.0) <= 1e-14 * Md)


def _broadcast_bands(B, g, scheme):
    """The bands with the spacing an array broadcast along B's last axis,
    ``dim`` last: the reference that the per-axis assembly pins bit for bit."""
    h = np.array(g.dx)
    inv_h2 = 1.0 / (h * h)
    if scheme == "upwind":
        bp, bm = np.maximum(B, 0.0), np.minimum(B, 0.0)
        lo, up, di = inv_h2 - bm / h, inv_h2 + bp / h, -2.0 * inv_h2 - (bp - bm) / h
    else:
        lo, up, di = inv_h2 - B / (2.0 * h), inv_h2 + B / (2.0 * h), np.full(B.shape, -2.0 * inv_h2)
    return -g.dt * lo, 1.0 - g.dt * di, -g.dt * up


@pytest.mark.parametrize("kind", ["torus", "box"])
@pytest.mark.parametrize("scheme", ["upwind", "central"])
def test_implicit_bands_bits_on_unequal_axes(kind, scheme):
    # axes of different spacing, so that a band built with the other axis's
    # dx shows: every level of a frozen solve, and a march's two-level view
    g = build_grid(kind, 2, [[-1.0, 1.0], [-2.0, 2.0]], [12, 9], 0.5, 6)
    inner = parabolic._inner(g)
    B = np.random.default_rng(5).uniform(-3.0, 3.0, size=(3, g.n_levels) + g.space_shape + (2,))
    for table in (B[0, :-1][(slice(None),) + inner], B[:, 2:4][(slice(None),) * 2 + inner]):
        ref = _broadcast_bands(table, g, scheme)
        for k, got in enumerate(parabolic._implicit_bands(table, g, scheme)):
            # the reference in the band layout: axis k's lines along the last axis
            ref_k = np.array([m[..., k].swapaxes(k - 2, -1) for m in ref])
            assert np.array_equal(got.view(np.int64), ref_k.view(np.int64))


def test_non_finite_values_raise_scheme_error():
    # box lines carry no finiteness check of their own: an overflowing cost
    # reaches the solve's own check, which runs before the field is built
    g = build_grid("box", 1, (-1.0, 1.0), 8, 1.0, 4)
    with pytest.raises(SchemeError, match="non-finite"):
        solve_frozen(_const(g, 0.0, 1), _const(g, 1e308), g)


@pytest.mark.parametrize("nt", [1, 3])
def test_box_lines_of_two_unknowns(nt):
    # a 4-node box line has two unknowns, fewer than scipy's gttrf and gttrs
    # wrappers take: those levels are solved from their bands as handed
    g = build_grid("box", 1, (-1.0, 1.0), 4, 1.0, nt)
    rng = np.random.default_rng(nt)
    b = rng.uniform(-1.0, 1.0, size=(g.n_levels, 4, 1))
    f = rng.uniform(-1.0, 1.0, size=(g.n_levels, 4))
    u = solve_frozen(b, f, g, lambda t, X: np.cos(X[..., 0] + t))
    assert np.max(np.abs(pde_residual(u.values, b, f, g))) < 1e-12

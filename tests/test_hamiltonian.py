import tracemalloc

import numpy as np
import pytest

from hjblab.coefficients import (
    CATALOG,
    ActionFamily,
    ActionSet,
    CoefficientError,
    CoefficientOracle,
    make_bang_bang,
    make_checkerboard,
    make_counterexample,
    bang_bang_actions,
    sample_all,
)
from hjblab.grids import build_grid, gradient_pair, spatial_gradient
from hjblab.hamiltonian import (
    Policy,
    argmin_level,
    constant_policy,
)

ADVECTIONS = ("central", "upwind")
CASES = ("1d_box", "1d_torus", "2d_torus", "2d_box")


@pytest.fixture
def torus():
    return build_grid("torus", 1, (-1.0, 1.0), 16, 1.0, 4)


def _compass(grid):
    """2d test oracle: b = a * (1 + x y / 2), actions the four unit steps and
    zero, cost depending on t and x."""

    def eval_fn(t, X, a):
        scale = 1.0 + 0.5 * X[..., 0] * X[..., 1]
        b = np.asarray(a, dtype=float) * scale[..., None]
        return b, np.sin(X[..., 0] + t) + 0.5 * X[..., 1] ** 2

    oracle = CoefficientOracle("compass", 2, eval_fn, lambda t, X: np.full(X.shape[:-1], 4.0))
    aset = ActionSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]))
    return oracle, aset


def _case(name):
    """(grid, oracle, action set, u values) with a time-dependent u."""
    if name == "1d_box":
        grid = build_grid("box", 1, (-1.0, 1.0), 17, 1.0, 6)
        oracle, aset = make_checkerboard(grid, kx=2), ActionSet(np.array([-1.0, 0.5, 1.0]))
    elif name == "1d_torus":
        grid = build_grid("torus", 1, (-1.0, 1.0), 16, 1.0, 6)
        oracle, aset = make_bang_bang(grid), bang_bang_actions()
    else:
        kind = "box" if name == "2d_box" else "torus"
        grid = build_grid(kind, 2, (-1.0, 1.0), 8, 0.5, 4)
        oracle, aset = _compass(grid)
    X = grid.points()
    u = np.stack([np.sin(np.pi * X[..., 0] + t) * np.cos(0.5 * np.pi * X[..., -1]) + t * X[..., 0]
                  for t in grid.times()])
    return grid, oracle, aset, u


def _minimum(B, F, u, grid, advection):
    """argmin_level's indices and the minimum Hamiltonian they select from
    its per-action values."""
    idx, H = argmin_level(B, F, u, grid, advection)
    assert H.shape == (len(B),) + idx.shape
    return idx, np.take_along_axis(H, idx[None], axis=0)[0]


def _bruteforce(grid, oracle, aset, u, advection):
    """Min over the action list of the discrete Hamiltonian, from oracle.eval:
    one action at a time, replacing the incumbent only on a strict decrease."""
    if advection == "upwind":
        gp, gm = gradient_pair(u, grid)
    else:
        g = spatial_gradient(u, grid)
    X = grid.points()
    best = np.full(u.shape, np.inf)
    arg = np.zeros(u.shape, dtype=np.int64)
    for n, t in enumerate(grid.times()):
        for ia in range(len(aset)):
            b, f = oracle.eval(t, X, aset.action(ia))
            if advection == "upwind":
                h = (np.sum(np.maximum(b, 0.0) * gp[n], axis=-1)
                     + np.sum(np.minimum(b, 0.0) * gm[n], axis=-1) + f)
            else:
                h = np.sum(b * g[n], axis=-1) + f
            better = h < best[n]
            best[n] = np.where(better, h, best[n])
            arg[n] = np.where(better, ia, arg[n])
    return arg, best


def _linear_box(slope):
    grid = build_grid("box", 1, (-1.0, 1.0), 9, 1.0, 4)
    u = np.broadcast_to(slope * grid.space_axis(0), (grid.n_levels, 9)).copy()
    return grid, u


def test_ham_min_bang_bang():
    grid, u = _linear_box(2.0)
    B, F = sample_all(make_bang_bang(grid), grid, bang_bang_actions())
    for advection in ADVECTIONS:
        idx, H = _minimum(B, F, u, grid, advection)
        # b = a, f = x^2: min over {-1, 1} of 2a + x^2 is at a = -1
        i = 5  # x = 0.25
        assert np.all(idx[:, i] == 0)
        assert H[0, i] == pytest.approx(-2.0 + 0.25**2)


def test_ham_min_zero_gradient_tie_break():
    grid, u = _linear_box(0.0)
    B, F = sample_all(make_bang_bang(grid), grid, bang_bang_actions())
    for advection in ADVECTIONS:
        idx, H = _minimum(B, F, u, grid, advection)
        assert np.all(idx == 0)  # lowest index on ties
        assert H[0, 6] == pytest.approx(0.25)  # x = 0.5


def test_ham_min_counterexample_diagonal():
    g = build_grid("box", 1, (-6.0, 6.0), 25, 1.0, 4)
    nodes = g.space_axis(0)
    B, F = sample_all(make_counterexample(g), g, ActionSet(nodes))
    u = np.broadcast_to(2.0 * nodes, (g.n_levels, 25)).copy()
    for advection in ADVECTIONS:
        idx, H = _minimum(B, F, u, g, advection)
        # a positive gradient everywhere: each node picks a = x, switching the drift off
        assert np.array_equal(nodes[idx], np.broadcast_to(nodes, idx.shape))
        assert np.allclose(H, nodes**2, rtol=0.0, atol=1e-12)


def test_lower_envelope():
    # pointwise minimality and the lowest-index tie-break, against oracle.eval
    for case in CASES:
        grid, oracle, aset, u = _case(case)
        B, F = sample_all(oracle, grid, aset)
        for advection in ADVECTIONS:
            idx, H = _minimum(B, F, u, grid, advection)
            arg, best = _bruteforce(grid, oracle, aset, u, advection)
            assert len(np.unique(idx)) > 1  # the case exercises a real choice
            assert np.array_equal(idx, arg)
            assert np.allclose(H, best, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("advection", ADVECTIONS)
def test_all_levels_equals_per_level(case, advection):
    grid, oracle, aset, u = _case(case)
    B, F = sample_all(oracle, grid, aset)
    idx, H = _minimum(B, F, u, grid, advection)
    for n in range(grid.n_levels):
        idx_n, H_n = _minimum(B[:, n:n + 1], F[:, n:n + 1], u[n:n + 1], grid, advection)
        assert np.array_equal(idx_n[0], idx[n])
        assert np.array_equal(H_n[0], H[n])


def _product_and_sum(B, F, u, grid, advection):
    """The kernel as a full (actions, levels, ..., dim) product summed over
    its last axis, and ``H.argmin(axis=0)``: the reference that argmin_level's
    contraction and strict-less selection pin."""
    if advection == "upwind":
        gp, gm = gradient_pair(u, grid)
        adv = (np.maximum(B, 0.0) * gp[None]).sum(axis=-1)
        adv += (np.minimum(B, 0.0) * gm[None]).sum(axis=-1)
    else:
        adv = (B * spatial_gradient(u, grid)[None]).sum(axis=-1)
    H = adv + F
    return H.argmin(axis=0), H


def _catalog_tables(name, kind, dim):
    """(grid, B, F, u) for a catalog entry, or for random tables that drift
    along every axis, so that in 2d each dot product sums two terms;
    "unequal" draws them on axes of different spacing, [-1, 1] x [-2, 2] at
    12 x 9 nodes, where a gradient or a sum that took the other axis's dx
    shows."""
    if name == "unequal":
        grid = build_grid(kind, dim, [[-1.0, 1.0], [-2.0, 2.0]][:dim], [12, 9][:dim], 0.5, 6)
    else:
        grid = build_grid(kind, dim, (-1.0, 1.0), 17 if dim == 1 else 8, 0.5, 6)
    X = grid.points()
    u = np.stack([np.sin(np.pi * X[..., 0] + t) * np.cos(0.5 * np.pi * X[..., -1] - t)
                  + t * X[..., -1] for t in grid.times()])
    if name in ("random", "unequal"):
        rng = np.random.default_rng(dim)
        B = rng.uniform(-1.0, 1.0, size=(3, grid.n_levels) + grid.space_shape + (dim,))
        return grid, B, rng.uniform(size=B.shape[:-1]), u
    if name == "counterexample":
        aset = ActionSet(X.reshape(-1, dim)[::5] if dim == 2 else grid.space_axis(0)[::3])
    else:
        aset = ActionSet(np.array([-1.0, 0.5, 1.0]))
    return (grid,) + sample_all(CATALOG[name](grid), grid, aset) + (u,)


@pytest.mark.parametrize("name", sorted(CATALOG) + ["random", "unequal"])
@pytest.mark.parametrize("kind,dim", [("torus", 1), ("box", 1), ("torus", 2), ("box", 2)])
@pytest.mark.parametrize("advection", ADVECTIONS)
def test_argmin_bits_match_product_and_sum(name, kind, dim, advection):
    # every bit of H and every index, over all levels (policy iteration and
    # the residual) and with u's one level against B's two (the march)
    grid, B, F, u = _catalog_tables(name, kind, dim)
    calls = [(B, F, u)] + [(B[:, n - 1:n + 1], F[:, n - 1:n + 1], u[n:n + 1])
                           for n in range(1, grid.n_levels)]
    for args in calls:
        idx, H = argmin_level(*args, grid, advection)
        ref_idx, ref_H = _product_and_sum(*args, grid, advection)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(H.view(np.int64), ref_H.view(np.int64))


@pytest.mark.parametrize("n_actions", [1, 2, 3, 5])
def test_argmin_ties_go_to_the_lowest_index(n_actions):
    # zero drift leaves H = F: values drawn from {-1, 0, 1} tie at most
    # nodes, and every index is H.argmin's
    grid = build_grid("torus", 2, (-1.0, 1.0), 6, 0.5, 4)
    rng = np.random.default_rng(n_actions)
    F = rng.choice([-1.0, 0.0, 1.0], size=(n_actions, grid.n_levels) + grid.space_shape)
    B = np.zeros(F.shape + (2,))
    u = rng.normal(size=F.shape[1:])
    for advection in ADVECTIONS:
        idx, H = argmin_level(B, F, u, grid, advection)
        assert np.array_equal(H, F)
        assert idx.dtype == np.intp and np.array_equal(idx, H.argmin(axis=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_hamiltonian_raises(torus, bad):
    B, F = sample_all(make_bang_bang(torus), torus, bang_bang_actions())
    F[1, 2, 3] = bad
    u = np.zeros((torus.n_levels,) + torus.space_shape)
    for advection in ADVECTIONS:
        with pytest.raises(ValueError, match="non-finite Hamiltonian"):
            argmin_level(B, F, u, torus, advection)


def test_central_argmin_holds_no_product():
    # the peak of an all-levels central call on a 2d table stays below the
    # gradient, H and the indices (a page over for the arrays' headers);
    # a (actions, levels, ..., dim) product would add 2 x H bytes
    grid = build_grid("torus", 2, (-1.0, 1.0), 24, 1.0, 48)
    rng = np.random.default_rng(0)
    B = rng.uniform(-1.0, 1.0, size=(2, grid.n_levels) + grid.space_shape + (2,))
    F = rng.uniform(size=B.shape[:-1])
    u = rng.normal(size=F.shape[1:])
    tracemalloc.start()
    try:
        idx, H = argmin_level(B, F, u, grid, "central")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * u.nbytes + H.nbytes + idx.nbytes + 4096


def test_concavity_in_p():
    # level n of u carries the uniform gradient p[n], so one call per slope set
    grid = build_grid("box", 1, (-1.0, 1.0), 9, 1.0, 49)
    B, F = sample_all(make_bang_bang(grid), grid, bang_bang_actions())
    rng = np.random.default_rng(9)
    p1, p2 = rng.normal(size=(2, grid.n_levels)) * 4
    lam = rng.uniform(size=grid.n_levels)
    x = grid.space_axis(0)
    for advection in ADVECTIONS:
        def H(p):
            return _minimum(B, F, p[:, None] * x, grid, advection)[1]

        hmid = H(lam * p1 + (1 - lam) * p2)
        assert np.all(hmid >= lam[:, None] * H(p1) + (1 - lam[:, None]) * H(p2) - 1e-12)


def test_select_policy_single_action(torus):
    B, F = sample_all(make_bang_bang(torus), torus, ActionSet(np.array([1.0])))
    u = np.zeros((torus.n_levels,) + torus.space_shape)
    for advection in ADVECTIONS:
        idx, _ = argmin_level(B, F, u, torus, advection)
        assert np.all(idx == 0)


def test_select_policy_sign_rule(torus):
    B, F = sample_all(make_bang_bang(torus), torus, bang_bang_actions())
    x = torus.space_axis(0)
    u = np.broadcast_to(x**2, (torus.n_levels,) + torus.space_shape).copy()
    interior = np.abs(np.abs(x) - 1.0) > 0.1  # away from the periodic seam
    # argmin of a * p over {-1, +1} is -sign(p) = -sign(2x)
    expected = np.where(x[interior] > 0, 0, 1)
    for advection in ADVECTIONS:
        idx, _ = argmin_level(B, F, u, torus, advection)
        assert np.array_equal(idx[0][interior], expected)


def test_selector_realizes_ham_min(torus):
    bb = make_bang_bang(torus)
    aset = bang_bang_actions()
    X = torus.points()
    u = np.stack([np.sin(np.pi * X[..., 0]) for _ in torus.times()])
    B, F = sample_all(bb, torus, aset)
    idx, H = _minimum(B, F, u, torus, "central")
    grad = spatial_gradient(u, torus)
    for n, t in enumerate(torus.times()):
        for i in range(torus.nx[0]):
            p = grad[n, i, 0]
            b, f = bb.eval(t, X[i], aset.action(idx[n, i]))
            assert b[0] * p + f == pytest.approx(H[n, i], abs=1e-15)


def test_truncate_action_set():
    # truncation to the length-N prefix is ActionFamily.prefix
    fam = ActionFamily("three", lambda i: float(i + 1), size=3)
    t2 = fam.prefix(2)
    assert list(t2.values) == [1.0, 2.0]
    t5 = fam.prefix(5)
    assert list(t5.values) == [1.0, 2.0, 3.0]
    with pytest.raises(CoefficientError):
        fam.prefix(0)


def test_policy_validation(torus):
    aset = bang_bang_actions()
    good = constant_policy(torus, aset, 1)
    assert np.all(aset.values[good.indices] == 1.0)
    with pytest.raises(CoefficientError):
        Policy(torus, np.full((torus.n_levels,) + torus.space_shape, 2), aset)
    with pytest.raises(CoefficientError):
        Policy(torus, np.zeros((2, 3)), aset)


def test_policy_csv(tmp_path, torus):
    pol = constant_policy(torus, bang_bang_actions(), 0)
    path = tmp_path / "policy.csv"
    pol.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,action_index"
    assert len(lines) == 1 + torus.n_levels * torus.nx[0]
    assert lines[1].endswith(",0")

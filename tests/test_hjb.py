import os

import numpy as np
import pytest

import hjblab.hjb as hjb_module
from hjblab.coefficients import (
    ActionSet,
    CoefficientOracle,
    bang_bang_actions,
    make_bang_bang,
    make_constant_drift,
    make_oracle,
    make_tabulated,
    sample_all,
)
from hjblab.grids import build_grid, spatial_gradient
from hjblab.hamiltonian import Policy, argmin_level, constant_policy
from hjblab.hjb import (
    hjb_residual,
    policy_iteration,
    policy_iteration_checks,
    solve_hjb_direct,
    solve_hjb_tables,
    solve_policy_value,
)
from hjblab.montecarlo import value_at
from hjblab.parabolic import SchemeError, pde_residual, solve_frozen


@pytest.fixture
def bang(scope="module"):
    grid = build_grid("torus", 1, (-1.0, 1.0), 32, 1.0, 32)
    return grid, make_bang_bang(grid), bang_bang_actions()


def test_single_action_equals_frozen(bang):
    grid, oracle, _ = bang
    single = ActionSet(np.array([1.0]))
    B, F = sample_all(oracle, grid, single)
    frozen = solve_frozen(B[0], F[0], grid)
    u_pi, _, trace = policy_iteration(oracle, single, grid)
    u_dir = solve_hjb_direct(oracle, single, grid)
    assert np.array_equal(u_pi.values, frozen.values)
    assert np.array_equal(u_dir.values, frozen.values)
    assert trace.converged


def test_zero_cost_zero_value(bang):
    grid, _, aset = bang
    zero_cost = CoefficientOracle(
        "zc", 1,
        lambda t, X, a: (np.broadcast_to(np.asarray(a), X.shape[:-1])[..., None] * np.ones(X.shape), np.zeros(X.shape[:-1])),
        lambda t, X: np.ones(X.shape[:-1]),
    )
    u, _, trace = policy_iteration(zero_cost, aset, grid)
    assert np.all(u.values == 0.0)
    assert trace.iterations <= 2


def test_oracle_agreement(bang):
    grid, oracle, aset = bang
    tol = 1e-8
    u_pi, policy, trace = policy_iteration(oracle, aset, grid, tol=tol)
    u_dir = solve_hjb_direct(oracle, aset, grid)
    assert np.max(np.abs(u_pi.values - u_dir.values)) <= 10 * tol
    assert trace.converged and trace.iterations <= 30


def test_monotone_descent_and_adjusted_sequence(bang):
    grid, oracle, aset = bang
    _, _, trace = policy_iteration(oracle, aset, grid)
    assert max(trace.max_pos_diffs[1:], default=0.0) <= 1e-10


def test_value_domination(bang):
    grid, oracle, aset = bang
    u_star, _, _ = policy_iteration(oracle, aset, grid)
    rng = np.random.default_rng(13)
    policies = [constant_policy(grid, aset, 0), constant_policy(grid, aset, 1)]
    for _ in range(3):
        idx = rng.integers(0, len(aset), size=(grid.n_levels,) + grid.space_shape)
        policies.append(Policy(grid, idx, aset))
    for pol in policies:
        u_alpha = solve_policy_value(oracle, pol, grid)
        assert np.max(u_star.values - u_alpha.values) <= 1e-10


def test_gradient_convergence_along_iterations(bang, monkeypatch):
    grid, oracle, aset = bang
    u_final, _, _ = policy_iteration(oracle, aset, grid, tol=1e-12)
    g_final = spatial_gradient(u_final.values, grid)
    sups = []
    for k in (1, 2, 3):
        monkeypatch.setattr(hjb_module, "MAX_ITERS", k)
        u_k, _, _ = policy_iteration(oracle, aset, grid, tol=0.0)
        g_k = spatial_gradient(u_k.values, grid)
        sups.append(float(np.max(np.abs(g_k - g_final))))
    assert sups[-1] <= sups[0] + 1e-12
    assert sups[-1] < 1e-6


def test_policy_iteration_stops_at_max_iters(bang, monkeypatch):
    grid, oracle, aset = bang
    for k in (1, 2, 4):
        monkeypatch.setattr(hjb_module, "MAX_ITERS", k)
        _, _, trace = policy_iteration(oracle, aset, grid, tol=0.0)
        assert trace.iterations == k and len(trace.residuals) == k and not trace.converged


@pytest.mark.parametrize("scheme", ["upwind", "central"])
def test_hjb_residual_indices_are_the_argmin(bang, scheme):
    grid, oracle, aset = bang
    B, F = sample_all(oracle, grid, aset)
    u = solve_hjb_direct(oracle, aset, grid, scheme=scheme).values
    _, (idx, bsel, fsel) = hjb_residual(u, B, F, grid, scheme)
    assert np.array_equal(idx, argmin_level(B, F, u, grid, scheme)[0])
    # the fields it returns are the ones that policy selects
    assert np.array_equal(bsel, np.take_along_axis(B, idx[None, ..., None], axis=0)[0])
    assert np.array_equal(fsel, np.take_along_axis(F, idx[None], axis=0)[0])


def test_hjb_residual_zero_field(bang):
    grid, oracle, aset = bang
    u0 = np.zeros((grid.n_levels,) + grid.space_shape)
    res, _ = hjb_residual(u0, *sample_all(oracle, grid, aset), grid)
    # with u = 0 the residual is min_a f = dist^2, sup over the grid
    X = grid.points()
    _, f = oracle.eval(0.0, X, 1.0)
    assert res == pytest.approx(float(np.max(f)), rel=1e-12)


def test_residual_bound_at_convergence(bang):
    grid, oracle, aset = bang
    tol = 1e-8
    u_pi, _, trace = policy_iteration(oracle, aset, grid, tol=tol)
    bmax = 1.0
    assert trace.residuals[-1] <= tol * (1.0 + bmax / grid.dx[0])


@pytest.mark.parametrize("kind,dim", [("box", 1), ("torus", 2)])
def test_one_action_hjb_residual_is_pde_residual(kind, dim):
    grid = build_grid(kind, dim, (-1.0, 1.0), 9, 0.5, 6)
    scheme = "upwind"
    rng = np.random.default_rng(8)
    B = rng.uniform(-1.0, 1.0, size=(1, grid.n_levels) + grid.space_shape + (dim,))
    F = rng.normal(size=(1, grid.n_levels) + grid.space_shape)
    u = rng.normal(size=(grid.n_levels,) + grid.space_shape)
    res, _ = hjb_residual(u, B, F, grid, scheme)
    assert res > 0.0
    assert res == float(np.max(np.abs(pde_residual(u, B[0], F[0], grid, scheme=scheme))))


def test_direct_flags_are_clean(bang):
    grid, oracle, aset = bang
    u = solve_hjb_direct(oracle, aset, grid)
    assert u.meta["inner_flagged_steps"] == []
    assert u.policy is not None and u.policy.action_set is aset
    # tables without an action set march the same field, with no policy
    bare = solve_hjb_tables(*sample_all(oracle, grid, aset), grid)
    assert bare.policy is None and np.array_equal(bare.values, u.values)


def _constant_drift_problem(grid, c):
    """Single-action constant-drift oracle: H = c p + x^2, on a box wide
    enough that its zero edge data barely reaches the centre."""
    return make_constant_drift(grid, c=c), ActionSet(np.array([1.0]))


def test_single_action_p_independent_hamiltonian():
    grid = build_grid("box", 1, (-6.0, 6.0), 61, 1.0, 32)
    oracle, single = _constant_drift_problem(grid, 0.0)
    u = solve_hjb_direct(oracle, single, grid)
    B, F = sample_all(oracle, grid, single)
    u_frozen = solve_frozen(B[0], F[0], grid)
    assert np.max(np.abs(u.values - u_frozen.values)) < 1e-12
    assert hjb_residual(u.values, B, F, grid)[0] < 1e-9


def test_single_action_hamiltonian_with_gradient_term():
    grid = build_grid("box", 1, (-6.0, 6.0), 241, 1.0, 256)
    oracle, single = _constant_drift_problem(grid, 1.0)
    # central advection, the gradient the callable-H march used
    u = solve_hjb_direct(oracle, single, grid, scheme="central")
    assert u.values[0, 120] == pytest.approx(4.0 / 3.0, rel=0.02)


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_2d_agreement(kind):
    # agreement and convergence only: on a 2d box policy iteration's
    # descent is not monotone (see ROADMAP item 5)
    grid = build_grid(kind, 2, (-1.0, 1.0), 12, 0.5, 12)
    oracle = make_bang_bang(grid)
    aset = bang_bang_actions()
    u_pi, _, trace = policy_iteration(oracle, aset, grid, tol=1e-8)
    u_dir = solve_hjb_direct(oracle, aset, grid)
    assert np.max(np.abs(u_pi.values - u_dir.values)) <= 1e-7
    assert trace.converged


@pytest.mark.parametrize("name,params", [("step_drift", {"c": 1.0}),
                                         ("checkerboard", {"kx": 2, "kt": 1})])
def test_self_convergence_under_a_discontinuous_hamiltonian(name, params):
    # min over {0, 1} of a b(x) p jumps where b does; V(0, .) at the 96 cell
    # centres of [-1, 1] settles as the grid refines.  The march flags steps
    # on these ladders (argmin ties), so nothing is asserted about them.
    X = (-1.0 + (np.arange(96) + 0.5) / 48.0)[:, None]
    samples = []
    for nx in (32, 64, 128, 256):
        grid = build_grid("torus", 1, (-1.0, 1.0), nx, 1.0, 2 * nx)
        oracle = make_oracle(name, grid, **params)
        samples.append(value_at(solve_hjb_direct(oracle, ActionSet(np.array([0.0, 1.0])), grid),
                                0.0, X))
    diffs = [np.max(np.abs(a - b)) for a, b in zip(samples, samples[1:])]
    assert diffs[0] > diffs[1] > diffs[2]


def test_policy_iteration_takes_each_argmin_once(monkeypatch):
    # the residual's argmin of each iterate, and the fields it selects, are
    # the policy the next iteration freezes, and a repeated policy is neither
    # solved nor checked again: k iterations that end on a repeat make k
    # argmin calls and k selections, not 2k, and k - 1 frozen solves
    from hjblab.config import load_config

    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "bench", "inputs",
                                   "bang_bang_2d.cfg"))
    calls = []
    for name in ("argmin_level", "_select_fields", "solve_frozen"):
        def counting(*args, _name=name, _real=getattr(hjb_module, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(hjb_module, name, counting)
    u, policy, trace = policy_iteration(cfg.build_oracle(), cfg.build_action_set(), cfg.grid,
                                        scheme=cfg.scheme, tol=cfg.tol)
    assert trace.converged and trace.iterations >= 3 and trace.policy_changes[-1] == 0
    assert calls.count("argmin_level") == calls.count("_select_fields") == trace.iterations
    assert calls.count("solve_frozen") == trace.iterations - 1
    # the returned policy is the one frozen for the last solve
    expect = solve_policy_value(cfg.build_oracle(), policy, cfg.grid, scheme=cfg.scheme)
    assert np.array_equal(expect.values, u.values)


@pytest.mark.parametrize("n_actions", [1, 2, 3, 4])
@pytest.mark.parametrize("kind,dim", [("torus", 1), ("box", 2)])
def test_select_fields_is_take_along_axis(kind, dim, n_actions):
    # an exact copy of the chosen action's entries, with the last action's
    # tables a repeat of the first's, and on a table that is a strided view
    grid, B, F = _random_tables(kind, dim, 6, n_actions=n_actions, seed=n_actions)
    B[-1], F[-1] = B[0], F[0]
    idx = np.random.default_rng(dim).integers(0, n_actions, size=F.shape[1:])
    for b, f, i in ((B, F, idx), (B[:, ::2], F[:, ::2], idx[::2])):
        selected, bsel, fsel = hjb_module._select_fields(b, f, i)
        assert selected is i
        assert np.array_equal(bsel, np.take_along_axis(b, i[None, ..., None], axis=0)[0])
        assert np.array_equal(fsel, np.take_along_axis(f, i[None], axis=0)[0])


def _random_tables(kind, dim, nx, n_actions=3, seed=3):
    grid = build_grid(kind, dim, (-1.0, 1.0), nx, 1.0, 5)
    rng = np.random.default_rng(seed)
    B = rng.uniform(-1.0, 1.0, size=(n_actions, grid.n_levels) + grid.space_shape + (dim,))
    F = rng.uniform(0.0, 1.0, size=(n_actions, grid.n_levels) + grid.space_shape)
    return grid, B, F


@pytest.mark.parametrize("kind,dim", [("torus", 1), ("box", 1), ("torus", 2), ("box", 2)])
def test_one_bad_drift_entry_raises_scheme_error(kind, dim):
    # the M-matrix check runs once per solve, over every level (and action)
    # at once: one entry it cannot certify still stops the solve
    grid, B, F = _random_tables(kind, dim, 6)
    F[2] += 10.0  # action 2 is never the cheapest where the drift is finite
    for action in (0, 2):
        bad = B.copy()
        bad[(action, grid.nt // 2) + (2,) * dim + (dim - 1,)] = np.nan
        with pytest.raises(SchemeError, match="non-M-matrix"):
            solve_frozen(bad[action], F[action], grid)
        with pytest.raises(SchemeError, match="non-M-matrix"):
            solve_hjb_tables(bad, F, grid)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind,nx,least", [("torus", 2, 3), ("box", 3, 4)])
def test_too_small_grids_name_the_minimum(kind, nx, least, dim):
    grid, B, F = _random_tables(kind, dim, nx)
    with pytest.raises(SchemeError, match=f"{kind} line solves need at least {least} nodes"):
        solve_frozen(B[0], F[0], grid)
    with pytest.raises(SchemeError, match=f"{kind} line solves need at least {least} nodes"):
        solve_hjb_tables(B, F, grid)


@pytest.mark.parametrize("kind,dim", [("torus", 1), ("box", 1), ("torus", 2), ("box", 2)])
def test_march_bits_do_not_depend_on_its_table_size(monkeypatch, kind, dim):
    # the march assembles its band tables for a few levels at a time: tables
    # of one level, of two or of every level give the same bits.  Each
    # sweep's argmin call also takes the next level's first policy, so a
    # march makes one argmin call per sweep and one before the first
    import hjblab.hjb as hjb_module

    grid, B, F = _random_tables(kind, dim, 6)
    nodes = B[0, 0, ..., 0].size if kind == "torus" else 4 ** dim
    calls, sweeps = [], []
    real_argmin, real_step = hjb_module.argmin_level, hjb_module._step
    monkeypatch.setattr(hjb_module, "argmin_level", lambda *a: calls.append(1) or real_argmin(*a))
    monkeypatch.setattr(hjb_module, "_step", lambda *a: sweeps.append(1) or real_step(*a))
    runs = []
    for levels in (1, 2, grid.nt):
        monkeypatch.setattr(hjb_module, "TABLE_ENTRIES", levels * 3 * nodes * (3 * dim + 1))
        calls.clear()
        sweeps.clear()
        u = solve_hjb_tables(B, F, grid, action_set=ActionSet(np.arange(3.0)))
        assert len(calls) == len(sweeps) + 1 and len(sweeps) > grid.nt
        runs.append((u.values, u.policy.indices, u.meta["inner_flagged_steps"]))
    for values, indices, flagged in runs[1:]:
        assert np.array_equal(values, runs[0][0]) and np.array_equal(indices, runs[0][1])
        assert flagged == runs[0][2]


@pytest.mark.parametrize("seed", range(40))
def test_policy_iteration_fuzz_1d_tabulated(seed):
    # random tables (Bokanowski-Maroso-Zidani's setting): 2-4 actions, the
    # last a copy of the first so that exact ties come up; the seed picks the
    # domain and the advection, the draw the sizes
    rng = np.random.default_rng(seed)
    kind, scheme = ("torus", "box")[seed % 2], ("upwind", "central")[seed // 2 % 2]
    n_a, nx, nt = int(rng.integers(2, 5)), *(int(n) for n in rng.integers(8, 33, size=2))
    grid = build_grid(kind, 1, (-1.0, 1.0), nx, 0.5, nt)
    shape = (n_a, grid.n_levels) + grid.space_shape
    B, F = rng.uniform(-2.0, 2.0, size=shape + (1,)), rng.uniform(0.0, 1.0, size=shape)
    B[-1], F[-1] = B[0], F[0]
    oracle, aset, tol = make_tabulated(grid, B, F), ActionSet(np.arange(float(n_a))), 1e-8
    u_pi, _, trace = policy_iteration(oracle, aset, grid, scheme=scheme, tol=tol)
    u_dir = solve_hjb_direct(oracle, aset, grid, scheme=scheme)
    _, _, checks = policy_iteration_checks(u_pi, u_dir, trace, tol)
    assert all(passed for _, passed, _ in checks), checks
    assert u_dir.meta["inner_flagged_steps"] == []
    # the discrete verification inequality: no grid policy beats the march's
    # value, and the march's own policy returns it, both up to rounding
    floor = 1e-12 * max(1.0, float(np.max(np.abs(u_dir.values))))
    own = u_dir.policy.indices
    u_own = solve_policy_value(oracle, u_dir.policy, grid, scheme=scheme)
    assert np.max(np.abs(u_own.values - u_dir.values)) <= floor
    for _ in range(2):
        perturbed = own.copy()
        at = rng.uniform(size=own.shape) < 0.05
        perturbed[at] = rng.integers(0, n_a, size=int(at.sum()))
        for idx in (rng.integers(0, n_a, size=own.shape), perturbed):
            u_alpha = solve_policy_value(oracle, Policy(grid, idx, aset), grid, scheme=scheme)
            assert np.min(u_alpha.values - u_dir.values) >= -floor

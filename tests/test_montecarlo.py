import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab import montecarlo
from hjblab.coefficients import (
    ActionSet,
    CoefficientOracle,
    bang_bang_actions,
    make_bang_bang,
    make_constant_drift,
    make_counterexample,
)
from hjblab.experiments import verification_check
from hjblab.grids import SpaceTimeField, build_grid
from hjblab.hamiltonian import Policy
from hjblab.montecarlo import (
    NOISE_CHUNK,
    FeedbackRule,
    GridPolicyControl,
    SimConfig,
    SimulationError,
    constant_control,
    dpp_residual,
    dpp_residuals,
    simulate_cost,
    simulate_costs,
    value_at,
)


def _field(grid, fn):
    """The field of fn(t, X) sampled at every node."""
    return SpaceTimeField(grid, np.stack([fn(t, grid.points()) for t in grid.times()]))


def unit_cost_oracle(dim=1):
    return CoefficientOracle(
        "unit", dim,
        lambda t, X, a: (np.zeros(X.shape), np.ones(X.shape[:-1])),
        lambda t, X: np.ones(X.shape[:-1]),
    )


@pytest.fixture
def box():
    return build_grid("box", 1, (-6.0, 6.0), 61, 1.0, 32)


def test_deterministic_integrand_zero_se(box):
    sim = SimConfig(n_paths=500, dt_sim=0.01, seed=1)
    est = simulate_cost(unit_cost_oracle(), constant_control(0.0), sim, box)
    assert est.mean == pytest.approx(box.T, abs=1e-12)
    assert est.se <= 1e-9


def test_reproducibility_and_thread_invariance(box, monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 2048)
    oracle = make_constant_drift(box, c=1.0)
    a = simulate_cost(oracle, constant_control(1.0),
                      SimConfig(n_paths=9000, dt_sim=5e-3, seed=7), box)
    b = simulate_cost(oracle, constant_control(1.0),
                      SimConfig(n_paths=9000, dt_sim=5e-3, seed=7), box)
    c = simulate_cost(oracle, constant_control(1.0),
                      SimConfig(n_paths=9000, dt_sim=5e-3, seed=7, n_threads=2), box)
    assert a.mean == b.mean and a.se == b.se
    assert a.mean == c.mean and a.se == c.se


def test_common_random_numbers(box):
    # same seed, different drift scale: shared noise keeps the A/B gap tight
    o1 = make_constant_drift(box, c=1.0)
    o2 = make_constant_drift(box, c=1.01)
    sim = SimConfig(n_paths=4000, dt_sim=5e-3, seed=11)
    j1 = simulate_cost(o1, constant_control(1.0), sim, box)
    j2 = simulate_cost(o2, constant_control(1.0), sim, box)
    assert abs(j2.mean - j1.mean) < 0.05  # paired gap, far below 3 * (se1 + se2) scale


def test_euler_weak_order(box):
    # drift 1, quadratic cost from (0,0): only quadrature bias, -1.5 dt + O(dt^2)
    oracle = make_constant_drift(box, c=1.0)
    biases = []
    for dt in (0.04, 0.02):
        est = simulate_cost(oracle, constant_control(1.0),
                            SimConfig(n_paths=100_000, dt_sim=dt, seed=3), box)
        biases.append(est.mean - 4.0 / 3.0)
    assert biases[0] / biases[1] == pytest.approx(2.0, abs=0.5)


def test_ci_calibration_zero_drift_quadratic(box):
    # 95 percent CI covers the exact value 1.0 in at least 90 percent of seeds
    ce = make_counterexample(box)
    fb = FeedbackRule(lambda t, X: X[:, 0], name="a_eq_x")
    hits = 0
    n_seeds = 200
    for seed in range(n_seeds):
        est = simulate_cost(ce, fb, SimConfig(n_paths=400, dt_sim=1e-3, seed=seed), box)
        hits += int(abs(est.mean - 1.0) <= 1.96 * est.se)
    assert hits >= 0.90 * n_seeds


def test_policy_lookup_conventions():
    grid = build_grid("torus", 1, (-1.0, 1.0), 4, 1.0, 2)
    aset = ActionSet(np.array([10.0, 20.0, 30.0]))
    idx = np.zeros((3, 4), dtype=int)
    idx[0] = [0, 1, 2, 0]
    idx[1] = [1, 1, 1, 1]
    pol = Policy(grid, idx, aset)
    control = GridPolicyControl(pol)
    X = np.array([[-0.75], [-0.25], [0.25], [0.75]])  # the four cell centers
    assert list(control.values(0.0, X)) == [10.0, 20.0, 30.0, 10.0]
    # left-continuous in time: t inside (0, 0.5) uses the level at t = 0
    assert list(control.values(0.25, X)) == [10.0, 20.0, 30.0, 10.0]
    assert list(control.values(0.5, X)) == [20.0] * 4
    # nearest node in space
    assert control.values(0.0, np.array([[-0.7]]))[0] == 10.0


def _nearest_reference(grid, X):
    """Nearest node indices with the wrap applied to every torus index (the reference)."""
    idx = []
    for k, (lo, _) in enumerate(grid.extent):
        v = (X[..., k] - lo) / grid.dx[k]
        if grid.domain_kind == "torus":
            idx.append(np.mod(np.floor(v).astype(np.int64), grid.nx[k]))
        else:
            idx.append(np.clip(np.rint(v).astype(np.int64), 0, grid.nx[k] - 1))
    return tuple(idx)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["torus", "box"]),
       dim=st.sampled_from([1, 2]), n=st.integers(1, 40),
       t=st.one_of(st.floats(-0.5, 1.5), st.integers(0, 10).map(lambda i: i / 10)),
       spread=st.sampled_from([1.0, 3.0, 1e6]))
def test_policy_table_lookup_equals_the_two_stage_gather(seed, kind, dim, n, t, spread):
    grid = build_grid(kind, dim, (-1.0, 1.0), 6, 1.0, 10)  # (3 / 10) / dt rounds below 3
    rng = np.random.default_rng(seed)
    aset = ActionSet(rng.normal(size=(3, dim)) if dim == 2 else np.array([-1.0, 0.5, 2.0]))
    policy = Policy(grid, rng.integers(0, 3, (grid.n_levels,) + grid.space_shape), aset)
    X = rng.uniform(-spread, spread, (n, dim))
    X[::3] = grid.wrap(X[::3])  # wrapped torus points, on the box points inside and out
    X[1::5] = -0.0
    it = min(max(int(np.floor(t / grid.dt + 1e-12)), 0), grid.nt)
    assert grid.time_index_left(t) == it == grid.time_index_left(np.array(t))
    expect = aset.values[policy.indices[(it,) + _nearest_reference(grid, X)]]
    got = GridPolicyControl(policy).values(t, X)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_policy_table_is_read_once_at_construction():
    grid = build_grid("torus", 1, (-1.0, 1.0), 4, 1.0, 2)
    policy = Policy(grid, np.zeros((3, 4), dtype=int), ActionSet(np.array([10.0, 20.0])))

    class Counting:
        reads = 0
        grid, action_set = policy.grid, policy.action_set

        @property
        def indices(self):
            Counting.reads += 1
            return policy.indices

    control = GridPolicyControl(Counting())
    policy.indices[:] = 1  # a change after construction does not reach the control
    X = np.array([[-0.75], [0.25]])
    for t in (0.0, 0.5, 1.0):
        assert list(control.values(t, X)) == [10.0, 10.0]
    assert Counting.reads == 1


def test_value_at_linear_exact():
    grid = build_grid("box", 1, (0.0, 1.0), 11, 1.0, 2)
    u = _field(grid, lambda t, X: 3.0 * X[..., 0] + 1.0)
    out = value_at(u, 0.0, np.array([[0.123], [0.87]]))
    assert out == pytest.approx([1.369, 3.61], abs=1e-12)


def test_value_at_torus_wrap():
    grid = build_grid("torus", 1, 1.0, 8, 1.0, 2)
    u = _field(grid, lambda t, X: np.sin(2 * np.pi * X[..., 0]))
    a = value_at(u, 0.0, np.array([[0.1]]))
    b = value_at(u, 0.0, np.array([[1.1]]))  # one period over
    assert a[0] == pytest.approx(b[0], abs=1e-12)


def test_value_at_2d_bilinear_exact():
    grid = build_grid("box", 2, (0.0, 1.0), 6, 1.0, 2)
    u = _field(grid, lambda t, X: 2 * X[..., 0] + 3 * X[..., 1] + X[..., 0] * X[..., 1])
    pts = np.array([[0.31, 0.77], [0.05, 0.5]])
    expect = 2 * pts[:, 0] + 3 * pts[:, 1] + pts[:, 0] * pts[:, 1]
    assert value_at(u, 0.0, pts) == pytest.approx(expect, abs=1e-12)


# value_at on [-1, 1] x [-2, 2] at 12 x 9 nodes, at points inside, past an
# edge and on a node, taken from the lookup that divided by an array of dx
VALUE_AT_PINNED = {
    "torus": ["-0x1.8fbdf7bd7a161p-3", "0x1.0e0d1b981d800p-1", "-0x1.e391e6d131ebfp-1",
              "-0x1.435d0272e48dep-1", "0x1.f9c454d67204dp-2"],
    "box": ["-0x1.d928f7607c213p-4", "0x1.b413b4cbf4377p-1", "-0x1.927c8d0d6b145p+0",
            "-0x1.138ecc9d122e0p-3", "0x1.f9c454d67204dp-2"],
}


@pytest.mark.parametrize("kind", list(VALUE_AT_PINNED))
def test_value_at_2d_on_unequal_axes_is_bit_identical_to_the_pinned_values(kind):
    grid = build_grid(kind, 2, [[-1.0, 1.0], [-2.0, 2.0]], [12, 9], 0.5, 4)
    rng = np.random.default_rng(3)
    u = SpaceTimeField(grid, rng.normal(size=(grid.n_levels,) + grid.space_shape))
    X = np.array([[0.3, -1.7], [-0.95, 1.9], [1.4, 2.6], [-1.2, -2.3], [0.0, 0.0]])
    assert [float(v).hex() for v in value_at(u, 0.25, X)] == VALUE_AT_PINNED[kind]


def test_value_at_requires_grid_time():
    grid = build_grid("box", 1, (0.0, 1.0), 5, 1.0, 4)
    u = _field(grid, lambda t, X: X[..., 0])
    with pytest.raises(SimulationError):
        value_at(u, 0.33, np.array([[0.5]]))


def test_value_at_refuses_levels_outside_the_horizon(box):
    # a level one step before 0 or past T is no level of the field, not its nearest
    u = _field(box, lambda t, X: t + X[..., 0])
    X = np.array([[0.5]])
    for t in (-box.dt, box.T + box.dt):
        with pytest.raises(SimulationError, match="not a grid time level"):
            value_at(u, t, X)
    assert value_at(u, box.T, X)[0] == pytest.approx(box.T + 0.5, abs=1e-12)
    sim = SimConfig(n_paths=10, dt_sim=0.01, seed=5, start_time=-box.dt)
    with pytest.raises(SimulationError, match="not a grid time level"):
        dpp_residual(u, unit_cost_oracle(), constant_control(0.0), 0.5, sim)


def test_dpp_residual_zero_cost(box):
    zero = CoefficientOracle(
        "z", 1,
        lambda t, X, a: (np.zeros(X.shape), np.zeros(X.shape[:-1])),
        lambda t, X: np.ones(X.shape[:-1]),
    )
    u = SpaceTimeField(box, np.zeros((box.n_levels,) + box.space_shape))
    sim = SimConfig(n_paths=300, dt_sim=0.01, seed=5)
    est = dpp_residual(u, zero, constant_control(0.0), 0.5, sim)
    assert est.mean == 0.0 and est.se == 0.0


def test_dpp_residual_range_check(box):
    u = SpaceTimeField(box, np.zeros((box.n_levels,) + box.space_shape))
    sim = SimConfig(n_paths=10, dt_sim=0.01, seed=5)
    with pytest.raises(SimulationError):
        dpp_residual(u, unit_cost_oracle(), constant_control(0.0), 1.5, sim)


def test_cost_bound_check_saturating(box):
    sim = SimConfig(n_paths=200, dt_sim=0.01, seed=9)
    est = simulate_cost(unit_cost_oracle(), constant_control(0.0), sim, box)
    # |J| = sup(Phi) (T - s) meets the Krylov-type bound exactly
    assert abs(est.mean) == pytest.approx(box.T, abs=1e-12)


def test_off_box_fraction_reported(box):
    oracle = make_constant_drift(box, c=1.0)
    sim = SimConfig(n_paths=500, dt_sim=0.01, seed=13, start_state=(5.9,))
    est = simulate_cost(oracle, constant_control(1.0), sim, box)
    assert est.off_box_fraction > 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_off_box_fraction_counts_paths(dim):
    # a path off the box in both axes counts once per step
    grid = build_grid("box", dim, (-1.0, 1.0), 9, 1.0, 20)
    sim = SimConfig(n_paths=300, dt_sim=0.05, seed=17, start_state=(0.9,) * dim)
    oracle, control = make_constant_drift(grid, c=1.0), constant_control(1.0)
    est = simulate_cost(oracle, control, sim, grid)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(sim.seed, spawn_key=(0,))))
    noise = rng.standard_normal((20, sim.n_paths, dim))
    X, off, off_twice = np.tile(sim.start_state, (sim.n_paths, 1)), 0, 0
    for i in range(20):
        X_eval = grid.clamp(X)
        off += int(np.count_nonzero(np.any(X != X_eval, axis=-1)))
        off_twice += int(np.count_nonzero(np.all(X != X_eval, axis=-1))) if dim == 2 else 1
        b, _ = oracle.eval(i * 0.05, X_eval, control.values(i * 0.05, X_eval))
        X = X + b * 0.05 + np.sqrt(2.0 * 0.05) * noise[i]
    assert 0 < off < 20 * sim.n_paths and off_twice > 0
    assert est.off_box_fraction == off / (20 * sim.n_paths)


def test_sim_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(n_paths=0, dt_sim=0.01, seed=1)
    with pytest.raises(SimulationError):
        SimConfig(n_paths=10, dt_sim=-0.1, seed=1)


@pytest.mark.parametrize("n_threads", [0, -1])
def test_sim_config_rejects_nonpositive_threads(n_threads):
    with pytest.raises(SimulationError):
        SimConfig(n_paths=10, dt_sim=0.01, seed=1, n_threads=n_threads)


@pytest.mark.parametrize("kind", ["box", "torus"])
def test_start_state_must_fit_the_grid(kind):
    grid = build_grid(kind, 2, (-1.0, 1.0), 8, 1.0, 4)
    sim = SimConfig(n_paths=10, dt_sim=0.25, seed=1)  # the default start state, (0.0,)
    with pytest.raises(SimulationError, match="length 1, the grid dimension 2"):
        simulate_cost(unit_cost_oracle(dim=2), constant_control(0.0), sim, grid)
    u = _field(grid, lambda t, X: X[..., 0] + t)
    with pytest.raises(SimulationError, match="length 1, the grid dimension 2"):
        dpp_residual(u, unit_cost_oracle(dim=2), constant_control(0.0), 0.5, sim)
    with pytest.raises(SimulationError, match="length 1, the grid dimension 2"):
        verification_check(u, unit_cost_oracle(dim=2), sim, [], constant_control(0.0))


def test_simulate_2d_deterministic_cost():
    grid = build_grid("torus", 2, 1.0, 6, 0.5, 4)
    sim = SimConfig(n_paths=200, dt_sim=0.01, seed=21, start_state=(0.2, 0.3))
    est = simulate_cost(unit_cost_oracle(dim=2), constant_control(0.0), sim, grid)
    assert est.mean == pytest.approx(grid.T, abs=1e-12)
    assert est.se <= 1e-9


# ---------------------------------------------------------------------------
# grouped stepping and chunked noise

# 700 paths in blocks of 128 (five full blocks and one of 60); T = 1 at
# dt_sim = 1/37 gives 37 steps, two full noise chunks and one of 5
GROUP_SIM = dict(n_paths=700, dt_sim=1.0 / 37, seed=2024)


@pytest.fixture
def blocks_of_128(monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 128)


def _mc_case(kind):
    if kind == "box":
        grid = build_grid("box", 1, (-2.0, 2.0), 41, 1.0, 37)
        oracle = make_counterexample(grid)
        control = FeedbackRule(lambda t, X: np.round(X[:, 0], 1), name="a_near_x")
        start = (0.3,)
    else:
        grid = build_grid("torus", 2, (-1.0, 1.0), 8, 1.0, 37)
        oracle = make_bang_bang(grid)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 2, size=(grid.n_levels,) + grid.space_shape)
        control = GridPolicyControl(Policy(grid, idx, bang_bang_actions()))
        start = (0.9, -0.95)
    u = _field(grid, lambda t, X: np.cos(np.pi * X[..., 0]) + t * X[..., -1])
    return grid, oracle, control, u, start


@pytest.mark.parametrize("kind", ["box", "torus"])
def test_estimates_bit_identical_across_thread_counts(kind, blocks_of_128):
    grid, oracle, control, u, start = _mc_case(kind)
    out = []
    for threads in (1, 2, 3):
        sim = SimConfig(start_state=start, n_threads=threads, **GROUP_SIM)
        est = simulate_cost(oracle, control, sim, grid)
        dpp = dpp_residual(u, oracle, control, 14.0 / 37, sim)
        out.append((est.mean, est.se, est.off_box_fraction, dpp.mean, dpp.se))
    assert out[0] == out[1] == out[2]
    assert out[0][1] > 0 and out[0][4] > 0


def _one_draw_estimate(oracle, control, sim, grid, t_end):
    """The engine's estimate from a loop drawing each block's noise at once."""
    n_steps = max(1, int(round((t_end - sim.start_time) / sim.dt_sim)))
    dt = (t_end - sim.start_time) / n_steps
    stats = []
    for bi, start in enumerate(range(0, sim.n_paths, montecarlo.BLOCK_SIZE)):
        n_b = min(montecarlo.BLOCK_SIZE, sim.n_paths - start)
        seq = np.random.SeedSequence(sim.seed, spawn_key=(bi,))
        rng = np.random.Generator(np.random.SFC64(seq))
        noise = rng.standard_normal((n_steps, n_b, grid.dim))
        X = grid.wrap(np.tile(np.asarray(sim.start_state), (n_b, 1)))
        cost = np.zeros(n_b)
        for i in range(n_steps):
            t = sim.start_time + i * dt
            X_eval = grid.clamp(X) if grid.domain_kind == "box" else X
            b, f = oracle.eval(t, X_eval, control.values(t, X_eval))
            cost += f * dt
            X = grid.wrap(X + b * dt + np.sqrt(2.0 * dt) * noise[i])
        stats.append((n_b, float(np.mean(cost)), float(np.sum((cost - np.mean(cost)) ** 2))))
    n_acc, mean, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in stats:
        delta = mean_b - mean
        n_new = n_acc + n_b
        mean += delta * n_b / n_new
        m2 += m2_b + delta * delta * n_acc * n_b / n_new
        n_acc = n_new
    return mean, float(np.sqrt(m2 / (sim.n_paths - 1) / sim.n_paths))


@pytest.mark.parametrize("kind", ["box", "torus"])
def test_chunked_noise_equals_one_draw_per_block(kind, blocks_of_128):
    grid, oracle, control, _, start = _mc_case(kind)
    for threads in (1, 2):
        sim = SimConfig(start_state=start, n_threads=threads, **GROUP_SIM)
        est = simulate_cost(oracle, control, sim, grid)
        expect = _one_draw_estimate(oracle, control, sim, grid, grid.T)
        assert (est.mean, est.se) == expect


def test_noise_draws_span_at_most_one_chunk(monkeypatch):
    shapes = []
    real = np.random.Generator

    class Recording:
        def __init__(self, bit_generator):
            self.gen = real(bit_generator)

        def standard_normal(self, size=None, *args, **kwargs):
            shapes.append(size)
            return self.gen.standard_normal(size, *args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Recording)
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 24)
    grid = build_grid("torus", 2, (-1.0, 1.0), 8, 1.0, 4)
    sim = SimConfig(n_paths=40, dt_sim=1.0 / 200, seed=3, start_state=(0.0, 0.0), n_threads=2)
    simulate_cost(make_bang_bang(grid), constant_control(1.0), sim, grid)
    # step-major (steps, paths, d) draws of at most NOISE_CHUNK steps
    assert shapes and all(s[0] <= NOISE_CHUNK and s[1:] in ((24, 2), (16, 2)) for s in shapes)
    # every block draws all 200 steps of its 24 and 16 paths, no more
    assert sum(shape[0] * shape[1] for shape in shapes) == 200 * 40


# ---------------------------------------------------------------------------
# shared-noise batches: legs under one seed take one step loop


def _batch_case(kind):
    """Three legs; on the box some paths start at the edge and leave it."""
    if kind == "box":
        grid = build_grid("box", 1, (-2.0, 2.0), 41, 1.0, 50)
        legs = [(make_counterexample(grid), FeedbackRule(lambda t, X: np.round(X[:, 0], 1))),
                (make_constant_drift(grid, c=1.0), constant_control(1.0)),
                (make_bang_bang(grid), constant_control(-1.0))]
        return grid, legs, (1.9,)
    grid = build_grid("torus", 2, (-1.0, 1.0), 8, 1.0, 50)
    idx = np.random.default_rng(1).integers(0, 2, size=(grid.n_levels,) + grid.space_shape)
    legs = [(make_bang_bang(grid), GridPolicyControl(Policy(grid, idx, bang_bang_actions()))),
            (make_bang_bang(grid), constant_control(1.0)),
            (make_constant_drift(grid, c=0.5), constant_control(-1.0))]
    return grid, legs, (0.9, -0.95)


@pytest.mark.parametrize("kind", ["box", "torus"])
@pytest.mark.parametrize("threads", [1, 2])
def test_batch_equals_separate_estimates(kind, threads, monkeypatch):
    # 5000 paths in blocks of 2048: three blocks, split over the threads
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 2048)
    grid, legs, start = _batch_case(kind)
    sim = SimConfig(n_paths=5000, dt_sim=0.02, seed=31, start_state=start, n_threads=threads)
    batch = simulate_costs(legs, sim, grid)
    alone = [simulate_cost(oracle, control, sim, grid) for oracle, control in legs]
    assert len(batch) == len(legs)
    for a, b in zip(batch, alone):
        assert (a.mean, a.se, a.off_box_fraction) == (b.mean, b.se, b.off_box_fraction)
    offs = [est.off_box_fraction for est in batch]
    assert all(off > 0 for off in offs) if kind == "box" else offs == [0.0] * 3
    assert len({est.mean for est in batch}) == 3


def test_batch_draws_each_block_noise_once(monkeypatch):
    drawn = []
    real = np.random.Generator

    class Counting:
        def __init__(self, bit_generator):
            self.gen = real(bit_generator)

        def standard_normal(self, size=None, *args, **kwargs):
            drawn.append(int(np.prod(size)))
            return self.gen.standard_normal(size, *args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 128)
    grid, legs, start = _batch_case("torus")
    sim = SimConfig(n_paths=300, dt_sim=0.02, seed=31, start_state=start)
    simulate_costs(legs, sim, grid)
    # 50 steps of 300 two-dimensional paths, drawn once for all three legs
    assert sum(drawn) == 50 * 300 * 2
    drawn.clear()
    u = _field(grid, lambda t, X: X[..., 0] + t)
    dpp_residuals(u, legs, [0.5, 0.2, 0.5], sim)
    # the horizons share one loop of 25 steps
    assert sum(drawn) == 25 * 300 * 2


def test_a_seed_names_one_stream(monkeypatch):
    # a seed names one stream: outside [0, 2**64) it is rejected, inside no two share noise
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(SimulationError, match="seed"):
            SimConfig(n_paths=10, dt_sim=0.1, seed=seed)
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 16)
    grid = build_grid("torus", 1, (-1.0, 1.0), 8, 1.0, 4)
    means = {simulate_cost(make_bang_bang(grid), constant_control(1.0),
                           SimConfig(n_paths=64, dt_sim=0.1, seed=seed), grid).mean
             for seed in (0, 1, 2**64 - 2, 2**64 - 1)}
    assert len(means) == 4


def test_golden_stream_values(blocks_of_128):
    # a change to the noise stream or the step arithmetic must edit these on purpose
    box = build_grid("box", 1, (-6.0, 6.0), 61, 1.0, 32)
    sim = SimConfig(n_paths=300, dt_sim=0.01, seed=20260810)
    est = simulate_cost(make_counterexample(box), FeedbackRule(lambda t, X: X[:, 0]), sim, box)
    assert (est.mean.hex(), est.se.hex()) == ("0x1.042a275d6b626p+0", "0x1.f60e26e45d71ap-5")
    grid = build_grid("torus", 1, (-1.0, 1.0), 16, 1.0, 16)
    u = _field(grid, lambda t, X: np.cos(np.pi * X[..., 0]) + t)
    sim = SimConfig(n_paths=300, dt_sim=1 / 64, seed=20260810, start_state=(0.5,))
    dpp = dpp_residual(u, make_bang_bang(grid), constant_control(1.0), 0.5, sim)
    assert (dpp.mean.hex(), dpp.se.hex()) == ("0x1.4a8e7a124a27ep-1", "0x1.37b81db4c9e5ap-5")

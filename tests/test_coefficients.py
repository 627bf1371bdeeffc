import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab.coefficients import (
    ActionFamily,
    ActionSet,
    CoefficientError,
    CoefficientOracle,
    bang_bang_actions,
    bang_bang_dyadic_family,
    bang_bang_family,
    make_checkerboard,
    make_counterexample,
    make_constant_drift,
    make_oracle,
    make_smooth_baseline,
    make_step_drift,
    make_tabulated,
    sample_all,
    sample_to_grid,
    verify_bound,
    _level_column,
    _multiplier_entry,
    _promote_points,
    _torus_dist2,
)
from hjblab.grids import FieldError, build_grid
from test_hamiltonian import _compass


@pytest.fixture
def box():
    return build_grid("box", 1, (-6.0, 6.0), 25, 1.0, 4)


@pytest.fixture
def torus():
    return build_grid("torus", 1, 1.0, 4, 1.0, 2)


def test_counterexample_drift_values(box):
    ce = make_counterexample(box)
    b, f = ce.eval(0.0, 0.5, 0.5)
    assert b[0] == 0.0
    b, f = ce.eval(0.0, 0.5, 0.3)
    assert b[0] == 1.0
    _, f = ce.eval(0.3, 2.0, 0.1)
    assert f == pytest.approx(4.0)


def test_eval_determinism(box):
    ce = make_counterexample(box)
    x = np.linspace(-3, 3, 17)
    b1, f1 = ce.eval(0.25, x, 0.7)
    b2, f2 = ce.eval(0.25, x, 0.7)
    assert np.array_equal(b1, b2) and np.array_equal(f1, f2)


def test_sample_constant_drift(torus):
    oracle = make_constant_drift(torus, c=1.0)
    bf, ff = sample_to_grid(oracle, torus, 1.0)
    assert np.all(bf[..., 0] == 1.0)


def test_step_drift_tie_rule():
    g = build_grid("box", 1, (-1.0, 1.0), 9, 1.0, 2)  # node exactly at 0
    oracle = make_step_drift(g, c=1.0)
    bf, _ = sample_to_grid(oracle, g, 1.0)
    i0 = 4
    assert g.space_axis(0)[i0] == 0.0
    assert bf[0, i0, 0] == 1.0  # sign(0) = +1


def test_checkerboard_cells(torus):
    oracle = make_checkerboard(torus, kx=1, kt=0)
    bf, _ = sample_to_grid(oracle, torus, 1.0)
    # period 1, cells [0, 1/2) and [1/2, 1), centers at 1/8, 3/8, 5/8, 7/8
    assert list(bf[0, :, 0]) == [1.0, 1.0, -1.0, -1.0]


def test_verify_bound_counterexample(box):
    rep = verify_bound(make_counterexample(box), box, bang_bang_actions())
    assert rep.passed
    assert rep.min_slack >= -1e-12


def test_verify_bound_violation(box):
    bad = CoefficientOracle(
        "bad", 1,
        lambda t, X, a: (np.zeros(X.shape), np.ones(X.shape[:-1])),
        lambda t, X: np.zeros(X.shape[:-1]),
    )
    rep = verify_bound(bad, box, ActionSet(np.array([0.0])))
    assert not rep.passed
    t, x, a, excess = rep.violations[0]
    assert excess == pytest.approx(1.0)


def test_verify_bound_zero_slack(box):
    zero = CoefficientOracle(
        "zero", 1,
        lambda t, X, a: (np.zeros(X.shape), np.zeros(X.shape[:-1])),
        lambda t, X: np.zeros(X.shape[:-1]),
    )
    rep = verify_bound(zero, box, ActionSet(np.array([0.0])))
    assert rep.passed and rep.min_slack == 0.0


def test_action_set_invariants():
    with pytest.raises(CoefficientError):
        ActionSet(np.array([]))
    with pytest.raises(CoefficientError):
        ActionSet(np.array([1.0, 1.0]))
    aset = ActionSet(np.array([3.0, -1.0]))
    assert len(aset) == 2 and aset.action(1) == -1.0


def test_family_prefix_consistency():
    fam = bang_bang_family()
    p1 = fam.prefix(1)
    p3 = fam.prefix(3)
    assert np.array_equal(p3.values[:1], p1.values)
    assert list(p3.values) == [1.0, -1.0, 1.0][: len(p3)] or len(p3) == 2


def test_dyadic_family_never_runs_out():
    values = bang_bang_dyadic_family().prefix(40).values
    assert list(values[:6]) == [0.5, -0.5, 0.75, -0.75, 0.875, -0.875]
    assert len(values) == 40 and np.all(np.abs(values) < 1.0)
    assert np.array_equal(values[::2], -values[1::2])
    # past 1 - 2^-53 a double rounds to 1: the prefixes stop at 106 elements
    assert len(bang_bang_dyadic_family().prefix(500)) == 106


def test_family_enumeration_prefix_rule():
    fam = ActionFamily("evens", lambda i: 2.0 * i)
    assert list(fam.prefix(3).values) == [0.0, 2.0, 4.0]
    with pytest.raises(CoefficientError):
        fam.prefix(0)


def test_tabulated_matches_source(torus):
    src = make_step_drift(torus, c=1.0)
    aset = ActionSet(np.array([-1.0, 1.0]))
    B, F = sample_all(src, torus, aset)
    tab = make_tabulated(torus, B, F)
    X = torus.points()
    for ia, a in enumerate(aset.values):
        for t in torus.times():
            b_src, f_src = src.eval(t, X, a)
            b_tab, f_tab = tab.eval(t, X, ia)
            assert np.array_equal(b_src, b_tab)
            assert np.array_equal(f_src, f_tab)
    rep = verify_bound(tab, torus, ActionSet(np.array([0.0, 1.0])))
    assert rep.passed


def test_smooth_baseline_requires_integer_period():
    g = build_grid("torus", 1, 1.5, 8, 1.0, 2)
    with pytest.raises(CoefficientError):
        make_smooth_baseline(g)


def test_make_oracle_catalog(torus):
    assert make_oracle("bang_bang", torus).name == "bang_bang"
    with pytest.raises(CoefficientError):
        make_oracle("unknown_entry", torus)
    with pytest.raises(CoefficientError):
        make_oracle("tabulated", torus)


def test_constant_drift_exact_value_limit():
    g = build_grid("box", 1, (-6.0, 6.0), 25, 1.0, 4)
    c0 = make_constant_drift(g, c=0.0)
    c1 = make_constant_drift(g, c=1.0)
    x = np.array([[0.0], [1.0]])
    v0 = c0.exact_value(0.0, x, 1.0)
    v1 = c1.exact_value(0.0, x, 1.0)
    assert v0[0] == pytest.approx(1.0)
    assert v0[1] == pytest.approx(2.0)
    assert v1[0] == pytest.approx(4.0 / 3.0)
    assert v1[1] == pytest.approx(10.0 / 3.0)
    # terminal condition: both closed forms vanish at t = T
    assert np.all(c0.exact_value(1.0, x, 1.0) == 0.0)
    assert np.all(c1.exact_value(1.0, x, 1.0) == 0.0)


@pytest.mark.parametrize("extent", [(-1.0, 1.0), (0.1, 0.7), (-3.0, 3.0)])
def test_torus_dist2_matches_mod_formula(extent):
    grid = build_grid("torus", 2, extent, 8, 1.0, 2)
    L = extent[1] - extent[0]
    X = np.random.default_rng(5).uniform(-3 * L, 3 * L, (5000, 2))
    d = np.mod(X + 0.5 * L, L) - 0.5 * L
    assert np.max(np.abs(_torus_dist2(X, grid) - np.sum(d**2, axis=-1))) <= 1e-15


def _torus_dist2_reference(X, domain):
    """The torus distance summed into a zeros array (the reference)."""
    d2 = np.zeros(X.shape[:-1])
    for k in range(X.shape[-1]):
        L = domain.extent[k][1] - domain.extent[k][0]
        d = X[..., k] - L * np.rint(X[..., k] / L)
        d2 = d2 + d**2
    return d2


def _multiplier_reference(shape_fn, domain):
    """The multiplier entry's evaluation with its drift set into zeros (the reference)."""
    def eval_fn(t, X, a):
        s = np.asarray(a, dtype=float) * shape_fn(t, X)
        b = np.zeros(s.shape + X.shape[-1:])
        b[..., 0] = s
        dist2 = (_torus_dist2_reference(X, domain) if domain.domain_kind == "torus"
                 else _reduced_dist2(X))
        return b, dist2
    return eval_fn


SHAPES = {"ones": lambda t, X: np.ones(X.shape[:-1]),
          "sign": lambda t, X: np.where(X[..., 0] >= 0.0, 1.0, -1.0),
          "in_t": lambda t, X: np.cos(3.0 * t + X[..., 0])}  # spans t's shape too


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["torus", "box"]),
       dim=st.sampled_from([1, 2]), extent=st.sampled_from([(-1.0, 1.0), (0.1, 0.7), (-3.0, 3.0)]),
       shape=st.sampled_from(sorted(SHAPES)), levels=st.booleans(), per_point=st.booleans(),
       spread=st.sampled_from([1.0, 10.0, 1e8]), n=st.sampled_from([None, 17]))
def test_multiplier_kernels_equal_the_zeros_forms(seed, kind, dim, extent, shape, levels,
                                                  per_point, spread, n):
    # at a scalar t over path points (or one point), or at the level column over the nodes
    grid = build_grid(kind, dim, extent, 6, 1.0, 4)
    rng = np.random.default_rng(seed)
    if levels:
        t, X = _level_column(grid), grid.points()
    else:
        t, X = float(rng.uniform(0.0, 1.0)), rng.uniform(-spread, spread, (n or 1, dim))
        if n:
            X[::4] = -0.0
        else:
            X = X[0]
    assert _torus_dist2(X, grid).tobytes() == _torus_dist2_reference(X, grid).tobytes()
    a = rng.choice([-1.0, 0.5, 2.0], size=X.shape[:-1]) if per_point else 0.5
    oracle = _multiplier_entry("m", grid, SHAPES[shape], 1.0)
    for got, expect in zip(oracle.eval(t, X, a), _multiplier_reference(SHAPES[shape], grid)(
            t, X, a)):
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def _reduced_dist2(X):
    """The box distance as a reduction over the last axis (the reference)."""
    return np.sum(X**2, axis=-1)


def _reduced_counterexample_drift(X, a):
    """The counterexample drift as a reduction over the last axis (the reference)."""
    eq = np.all(X == np.broadcast_to(_promote_points(a, X.shape[-1]), X.shape), axis=-1)
    b = np.zeros(X.shape)
    b[..., 0] = np.where(eq, 0.0, 1.0)
    return b


@pytest.mark.parametrize("shape", [(60, 1), (60, 2), (3, 20, 1), (3, 20, 2)])
def test_counterexample_per_axis_forms_equal_the_reductions(shape):
    d = shape[-1]
    grid = build_grid("box", d, (-1.0, 1.0), 5, 1.0, 4)
    oracle = make_counterexample(grid)
    X = np.random.default_rng(11).uniform(-3.0, 3.0, shape)  # two thirds off the box
    X.reshape(-1)[::5] = 0.0
    X.reshape(-1)[2::5] = -0.0
    A = X.copy()
    A[X == 0.0] *= -1.0  # +0.0 against -0.0 and back is still the diagonal
    rows = A.reshape(-1, d)
    rows[1::4, -1] += 0.5  # off the diagonal in the last axis only
    rows[2::4, 0] -= 0.25  # ... in the first axis only
    actions = [A, X, A.reshape(-1, d)[1], X.reshape(-1, d)[0]] + ([A[..., 0]] if d == 1 else [])
    for a in actions:
        b, f = oracle.eval(0.5, X, a)
        assert np.array_equal(b, _reduced_counterexample_drift(X, a))
        assert np.array_equal(f, _reduced_dist2(X))
    b, _ = oracle.eval(0.5, X, A)
    assert 0 < np.count_nonzero(b[..., 0]) < b[..., 0].size
    assert np.array_equal(oracle.bound(0.5, X), 1.0 + _reduced_dist2(X))


def _per_level_samples(oracle, grid, aset):
    """The reference sampler: one oracle call per time level and action."""
    X = grid.points()
    B = np.empty((len(aset), grid.n_levels) + grid.space_shape + (grid.dim,))
    F = np.empty((len(aset), grid.n_levels) + grid.space_shape)
    for ia in range(len(aset)):
        for it, t in enumerate(grid.times()):
            B[ia, it], F[ia, it] = oracle.eval(t, X, aset.action(ia))
    return B, F


def _sampling_cases():
    """Cases (oracle, grid, action set): every catalog entry, checkerboard
    with and without time cells, and the 2d compass oracle, on both domains
    in 1d and 2d."""
    scalar = ActionSet(np.array([-1.0, 0.5, 1.0]))
    for kind in ("torus", "box"):
        for dim in (1, 2):
            grid = build_grid(kind, dim, (-1.0, 1.0), 9, 0.75, 6)
            nodes = grid.points().reshape(-1, dim)
            cases = {"counterexample": (make_counterexample(grid), ActionSet(nodes[[0, 4, -1]])),
                     "constant_drift": (make_constant_drift(grid, c=0.7), scalar),
                     "step_drift": (make_step_drift(grid), scalar),
                     "bang_bang": (make_oracle("bang_bang", grid), scalar),
                     "smooth_baseline": (make_smooth_baseline(grid), scalar)}
            for kt in (0, 1, 3):
                cases[f"checkerboard_kt{kt}"] = (make_checkerboard(grid, kx=2, kt=kt), scalar)
            if dim == 2:
                cases["compass"] = _compass(grid)
            for name, (oracle, aset) in cases.items():
                yield pytest.param(oracle, grid, aset, id=f"{name}-{kind}-{dim}d")


@pytest.mark.parametrize("oracle, grid, aset", _sampling_cases())
def test_sample_all_equals_a_per_level_loop(oracle, grid, aset):
    # one eval call per action samples every level at once: the same bits as
    # one call per level, for the entry and for its tabulated copy
    B, F = sample_all(oracle, grid, aset)
    expect = _per_level_samples(oracle, grid, aset)
    assert np.array_equal(B, expect[0]) and np.array_equal(F, expect[1])
    tab, indices = make_tabulated(grid, B, F), ActionSet(np.arange(float(len(aset))))
    tab_B, tab_F = sample_all(tab, grid, indices)
    expect = _per_level_samples(tab, grid, indices)
    assert np.array_equal(tab_B, expect[0]) and np.array_equal(tab_F, expect[1])
    assert np.array_equal(tab_B, B) and np.array_equal(tab_F, F)


def _count_calls(monkeypatch, oracle):
    """Count the oracle's eval and bound calls."""
    calls = {"eval": 0, "bound": 0}

    def counted(name):
        real = getattr(oracle, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name))
    return calls


@pytest.mark.parametrize("scan", [sample_all, verify_bound])
def test_one_oracle_call_per_action(monkeypatch, scan):
    # every level at once: one eval call per action, and the bound scan one
    # bound call besides
    grid = build_grid("box", 2, (-1.0, 1.0), 6, 0.5, 5)
    oracle, aset = make_checkerboard(grid, kx=2, kt=1), ActionSet(np.array([-1.0, 0.5, 1.0]))
    calls = _count_calls(monkeypatch, oracle)
    scan(oracle, grid, aset)
    assert calls == {"eval": 3, "bound": int(scan is verify_bound)}


@pytest.mark.parametrize("table", ["b", "f"])
def test_non_finite_samples_raise_field_error(box, table):
    def eval_fn(t, X, a):
        bad = np.where((X[..., 0] > 1.0) & (t > 0.5), np.nan, 0.0)
        return (bad[..., None], 0.0 * bad) if table == "b" else (0.0 * X, bad)

    oracle = CoefficientOracle("nan", 1, eval_fn, lambda t, X: np.ones(X.shape[:-1]))
    with pytest.raises(FieldError, match="non-finite"):
        sample_to_grid(oracle, box, 0.0)


def _level_loop_violations(oracle, grid, aset):
    """The domination scan as a level x action loop, one oracle call per
    level and action: the first 16 violations by time, then action, then node."""
    X = grid.points()
    out = []
    for t in grid.times():
        phi = oracle.bound(t, X)
        for ia in range(len(aset)):
            a = aset.action(ia)
            b, f = oracle.eval(t, X, a)
            slack = phi - (np.sqrt(np.sum(b**2, axis=-1)) + np.abs(f))
            for loc in np.argwhere(slack < -1e-12)[: max(0, 16 - len(out))]:
                loc = tuple(loc)
                out.append((float(t), X[loc], np.asarray(a).tolist(), float(-slack[loc])))
    return out


def test_verify_bound_records_the_first_violations_in_order():
    grid = build_grid("torus", 2, (-1.0, 1.0), 6, 1.0, 8)

    def eval_fn(t, X, a):
        hot = np.sin(5.0 * X[..., 0] + 3.0 * X[..., 1] + 7.0 * t + 4.0 * np.sum(a)) > 0.8
        return np.asarray(a) * np.ones(X.shape), np.where(hot, 1.0 + t, 0.0)

    oracle = CoefficientOracle("sparse", 2, eval_fn, lambda t, X: np.full(X.shape[:-1], 1.0))
    aset = ActionSet(np.array([[0.1, 0.0], [0.0, 0.2]]))
    rep = verify_bound(oracle, grid, aset)
    expect = _level_loop_violations(oracle, grid, aset)
    assert not rep.passed and len(rep.violations) == len(expect) == 16
    # the 16 recorded span several levels and both actions
    assert len({v[0] for v in expect}) > 1 and len({tuple(v[2]) for v in expect}) == 2
    for got, want in zip(rep.violations, expect):
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert got[2] == want[2] and got[3] == want[3]
    assert rep.n_checked == len(aset) * grid.n_levels * 36
    B, F = sample_all(oracle, grid, aset)
    assert np.sum(np.sqrt(np.sum(B**2, axis=-1)) + F > 1.0) > 16

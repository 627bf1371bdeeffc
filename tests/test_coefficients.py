import numpy as np
import pytest

from hjblab.coefficients import (
    ActionFamily,
    ActionSet,
    CoefficientError,
    CoefficientOracle,
    bang_bang_actions,
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
    _torus_dist2,
)
from hjblab.grids import build_grid


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
    assert np.all(bf.values[..., 0] == 1.0)


def test_step_drift_tie_rule():
    g = build_grid("box", 1, (-1.0, 1.0), 9, 1.0, 2)  # node exactly at 0
    oracle = make_step_drift(g, c=1.0)
    bf, _ = sample_to_grid(oracle, g, 1.0)
    i0 = 4
    assert g.space_axis(0)[i0] == 0.0
    assert bf.values[0, i0, 0] == 1.0  # sign(0) = +1


def test_checkerboard_cells(torus):
    oracle = make_checkerboard(torus, kx=1, kt=0)
    bf, _ = sample_to_grid(oracle, torus, 1.0)
    # period 1, cells [0, 1/2) and [1/2, 1), centers at 1/8, 3/8, 5/8, 7/8
    assert list(bf.values[0, :, 0]) == [1.0, 1.0, -1.0, -1.0]


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
    assert p1.truncated and p3.family == "bang_bang"
    assert np.array_equal(p3.values[:1], p1.values)
    assert list(p3.values) == [1.0, -1.0, 1.0][: len(p3)] or len(p3) == 2


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
        make_smooth_baseline(g, T=1.0)


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
